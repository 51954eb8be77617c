// Package metrics provides the measurement instruments of the evaluation
// (§5.1.3 and §5.2.4): sustained throughput, detection latency (collected
// at the sinks by the asp package), and process-level resource sampling —
// memory and CPU usage over time, standing in for the paper's cluster
// dashboards in Figure 5.
package metrics

import (
	"runtime"
	rtm "runtime/metrics"
	"sync"
	"time"
)

// Sample is one point of the resource-usage time series.
type Sample struct {
	At        time.Duration // offset from sampler start
	HeapBytes uint64        // live heap (runtime.MemStats.HeapAlloc)
	CPUPct    float64       // process CPU utilization, 0-100 per core set
	State     int64         // engine-reported buffered elements, if wired
}

// CheckpointPoint is one completed checkpoint in a run's overhead series:
// when it completed (offset from run start), how long trigger-to-complete
// took, the worst per-instance alignment stall, and the serialized size.
type CheckpointPoint struct {
	ID         int64
	At         time.Duration
	Duration   time.Duration
	AlignPause time.Duration
	Bytes      int64
}

// Sampler periodically records memory and CPU usage. CPU utilization is
// derived from runtime/metrics CPU-class deltas: (total - idle) cpu-seconds
// over wall time, normalized by GOMAXPROCS.
type Sampler struct {
	Period time.Duration
	// StateFn, when set, is polled for the engine's buffered-element count.
	StateFn func() int64

	mu      sync.Mutex
	samples []Sample
	stop    chan struct{}
	done    chan struct{}
	stopped bool
}

// NewSampler creates a sampler with the given period (default 250ms).
func NewSampler(period time.Duration) *Sampler {
	if period <= 0 {
		period = 250 * time.Millisecond
	}
	return &Sampler{Period: period}
}

// Start begins sampling in a background goroutine; call Stop to finish.
// Calling Start while the sampler is already running is a no-op.
func (s *Sampler) Start() {
	s.mu.Lock()
	defer s.mu.Unlock()
	if s.stop != nil && !s.stopped {
		return // already running
	}
	s.stop = make(chan struct{})
	s.done = make(chan struct{})
	s.stopped = false
	go s.loop()
}

// Stop ends sampling and returns the collected series. It is idempotent:
// calling it again — or calling it before Start — returns the series
// collected so far instead of panicking on a nil or closed channel.
func (s *Sampler) Stop() []Sample {
	s.mu.Lock()
	var done chan struct{}
	if s.stop != nil && !s.stopped {
		close(s.stop)
		s.stopped = true
		done = s.done
	}
	s.mu.Unlock()
	if done != nil {
		<-done
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.samples
}

var cpuMetricNames = []string{
	"/cpu/classes/total:cpu-seconds",
	"/cpu/classes/idle:cpu-seconds",
}

func readCPU() (total, idle float64, ok bool) {
	samples := make([]rtm.Sample, len(cpuMetricNames))
	for i, n := range cpuMetricNames {
		samples[i].Name = n
	}
	rtm.Read(samples)
	if samples[0].Value.Kind() != rtm.KindFloat64 || samples[1].Value.Kind() != rtm.KindFloat64 {
		return 0, 0, false
	}
	return samples[0].Value.Float64(), samples[1].Value.Float64(), true
}

func (s *Sampler) loop() {
	defer close(s.done)
	start := time.Now()
	lastWall := start
	lastTotal, lastIdle, cpuOK := readCPU()
	ticker := time.NewTicker(s.Period)
	defer ticker.Stop()
	var ms runtime.MemStats
	for {
		select {
		case <-s.stop:
			return
		case now := <-ticker.C:
			runtime.ReadMemStats(&ms)
			sample := Sample{At: now.Sub(start), HeapBytes: ms.HeapAlloc}
			if cpuOK {
				total, idle, ok := readCPU()
				wall := now.Sub(lastWall).Seconds()
				if ok && wall > 0 {
					busy := (total - lastTotal) - (idle - lastIdle)
					procs := float64(runtime.GOMAXPROCS(0))
					pct := busy / (wall * procs) * 100
					if pct < 0 {
						pct = 0
					}
					if pct > 100 {
						pct = 100
					}
					sample.CPUPct = pct
					lastTotal, lastIdle = total, idle
				}
				lastWall = now
			}
			if s.StateFn != nil {
				sample.State = s.StateFn()
			}
			s.mu.Lock()
			s.samples = append(s.samples, sample)
			s.mu.Unlock()
		}
	}
}

// Peak returns the maximum heap and CPU observed in a series.
func Peak(samples []Sample) (heap uint64, cpu float64) {
	for _, s := range samples {
		if s.HeapBytes > heap {
			heap = s.HeapBytes
		}
		if s.CPUPct > cpu {
			cpu = s.CPUPct
		}
	}
	return heap, cpu
}
