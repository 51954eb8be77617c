package asp

import (
	"sync"
	"testing"
	"time"

	"cep2asp/internal/event"
	"cep2asp/internal/obs"
)

// slowSink delays every record, keeping the bounded input channel full so
// upstream sends block — the backpressure scenario.
type slowSink struct {
	BaseOperator
	delay time.Duration
}

func (s *slowSink) OnRecord(int, *Record, *Collector) { time.Sleep(s.delay) }

func TestBackpressureAccounting(t *testing.T) {
	reg := obs.NewRegistry()
	env := NewEnvironment(Config{ChannelCapacity: 2, Metrics: reg})
	const n = 200
	minutes := make([]int64, n)
	for i := range minutes {
		minutes[i] = int64(i)
	}
	env.Source("src", mkEvents(tQ, 1, minutes, nil), false).
		Sink("slow", func(int) Operator { return &slowSink{delay: 500 * time.Microsecond} })

	// Poll queue depth while the run is in flight: the bounded channel must
	// cap it at the edge's capacity, and backpressure should keep it busy.
	stop := make(chan struct{})
	var wg sync.WaitGroup
	var maxQueued, overCap int
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-stop:
				return
			default:
			}
			for _, e := range reg.Snapshot().Edges {
				if e.Queued > maxQueued {
					maxQueued = e.Queued
				}
				if e.Queued > e.Capacity {
					overCap = e.Queued
				}
			}
			time.Sleep(time.Millisecond)
		}
	}()
	run(t, env)
	close(stop)
	wg.Wait()

	if overCap != 0 {
		t.Fatalf("queue depth %d exceeded channel capacity", overCap)
	}
	if maxQueued == 0 {
		t.Fatal("saturated edge never showed a queued record")
	}
	snap := reg.Snapshot()
	var edge *obs.EdgeSnapshot
	for i := range snap.Edges {
		if snap.Edges[i].From == "src" && snap.Edges[i].To == "slow" {
			edge = &snap.Edges[i]
		}
	}
	if edge == nil {
		t.Fatalf("edge src->slow not registered; edges: %+v", snap.Edges)
	}
	// Sent counts every record crossing the edge: the n events plus
	// control records (watermarks, end-of-stream).
	if edge.Sent < n {
		t.Fatalf("edge sent %d records, want >= %d", edge.Sent, n)
	}
	if edge.BlockedNanos == 0 {
		t.Fatal("slow sink produced no blocked-send time on the upstream edge")
	}
	for _, o := range snap.Operators {
		if o.Node == "slow" && o.In != n {
			t.Fatalf("sink counted %d records in, want %d", o.In, n)
		}
		if o.Node == "src" && o.Out != n {
			t.Fatalf("source counted %d records out, want %d", o.Out, n)
		}
	}
}

func TestSourceWatermarkUnderflow(t *testing.T) {
	cases := []struct{ maxTS, lateness, want event.Time }{
		{100, 10, 89},
		{0, 0, -1},
		{-5, 2, -8},
		{event.MinWatermark, 0, event.MinWatermark},
		{event.MinWatermark, 5 * event.Minute, event.MinWatermark},
		{event.MinWatermark + 3, 10, event.MinWatermark},
	}
	for _, c := range cases {
		if got := sourceWatermark(c.maxTS, c.lateness); got != c.want {
			t.Errorf("sourceWatermark(%d, %d) = %d, want %d", c.maxTS, c.lateness, got, c.want)
		}
	}
}

// wmRecorder captures every watermark delivered to a sink instance.
type wmRecorder struct {
	BaseOperator
	mu  sync.Mutex
	wms []event.Time
}

func (w *wmRecorder) OnRecord(int, *Record, *Collector) {}

func (w *wmRecorder) OnWatermark(wm event.Time, _ *Collector) {
	w.mu.Lock()
	w.wms = append(w.wms, wm)
	w.mu.Unlock()
}

// A source whose max event time sits closer to the bottom of the time
// domain than its lateness bound must not emit a wrapped-around watermark:
// before the saturation guard, maxTS - lateness - 1 underflowed int64 and
// jumped ahead of every event time, firing downstream windows prematurely.
func TestSourceWatermarkUnderflowEndToEnd(t *testing.T) {
	rec := &wmRecorder{}
	env := NewEnvironment(Config{WatermarkInterval: 1})
	events := []event.Event{
		{Type: tQ, ID: 1, TS: event.MinWatermark + 2},
		{Type: tQ, ID: 1, TS: event.MinWatermark + 3},
	}
	env.SourceOutOfOrder("src", events, false, 100).
		Sink("rec", func(int) Operator { return rec })
	run(t, env)
	maxTS := events[1].TS
	for _, wm := range rec.wms {
		if wm > maxTS && wm != event.MaxWatermark {
			t.Fatalf("watermark %d wrapped past max event time %d", wm, maxTS)
		}
	}
}

func TestResultsLatencyPercentiles(t *testing.T) {
	res := NewResults(false, false)
	base := time.Now().UnixNano()
	// 100 records with detection latencies 1ms..100ms: the exact p50/p90/p99
	// are 50/90/99ms; the log-bucketed histogram may overshoot by its ~3%
	// bucket width plus the wall-clock skew between stamping and add().
	for i := 1; i <= 100; i++ {
		e := event.Event{Type: tQ, ID: int64(i), TS: int64(i)}
		e.Ingest = base - int64(i)*int64(time.Millisecond)
		r := EventRecord(e)
		res.add(&r)
	}
	p50, p90, p99 := res.LatencyPercentiles()
	check := func(name string, got time.Duration, exact time.Duration) {
		t.Helper()
		if got < exact || got > exact+exact/8+5*time.Millisecond {
			t.Fatalf("%s = %v, want within [%v, %v]", name, got, exact, exact+exact/8+5*time.Millisecond)
		}
	}
	check("p50", p50, 50*time.Millisecond)
	check("p90", p90, 90*time.Millisecond)
	check("p99", p99, 99*time.Millisecond)
	if !(p50 <= p90 && p90 <= p99 && p99 <= res.MaxLatency()) {
		t.Fatalf("quantiles not monotone: p50=%v p90=%v p99=%v max=%v", p50, p90, p99, res.MaxLatency())
	}
	if res.MaxLatency() < 100*time.Millisecond {
		t.Fatalf("max latency %v below the largest recorded value", res.MaxLatency())
	}
}

// TestSourcePublishesMaxEventTime: a source publishes its maximum event time
// before each watermark and once more before its EOS, so after the run the
// registry's stream-wide maximum is the largest TS of any source — here one
// that no watermark interval boundary follows.
func TestSourcePublishesMaxEventTime(t *testing.T) {
	reg := obs.NewRegistry()
	env := NewEnvironment(Config{Metrics: reg, WatermarkInterval: 7})
	q, v := mkEvents(tQ, 1, minutesUpTo(100), nil), mkEvents(tV, 2, minutesUpTo(60), nil)
	env.Source("q", q, false).Union("u", env.Source("v", v, false)).
		Sink("sink", func(int) Operator { return passOperator{} })
	run(t, env)
	want := q[len(q)-1].TS
	if got := reg.Snapshot().MaxEventTime; got != int64(want) {
		t.Fatalf("MaxEventTime = %d, want the streams' max TS %d", got, want)
	}
}
