package obs

import (
	"math"
	"sync"
	"sync/atomic"
)

// unset marks a watermark or event-time gauge that has not been written yet
// (mirrors event.MinWatermark without importing the event package).
const unset = math.MinInt64

// Registry collects the instruments of one running dataflow: one
// OperatorMetrics per operator instance, one EdgeMetrics per graph edge,
// plus named histograms (e.g. the sink's detection latency). The engine
// attaches a registry through asp.Config.Metrics; a nil registry disables
// all instrumentation.
//
// Registration happens once, before the dataflow starts; the write-path
// methods on the returned handles are lock-free. Snapshot may be called
// concurrently with a running dataflow (the live HTTP endpoints do).
type Registry struct {
	mu    sync.RWMutex
	ops   []*OperatorMetrics
	edges []*EdgeMetrics
	pools []*PoolMetrics
	hists []*namedHist
	// nets instruments network exchange peers. Like the health counters
	// they survive ResetGraph: connections outlive individual execution
	// attempts (the supervisor rebuilds the graph, not the mesh).
	nets []*NetMetrics

	// maxEventTime is the largest event timestamp emitted by any source,
	// the reference point for per-operator watermark lag.
	maxEventTime atomic.Int64

	// Job-level supervision health. These survive ResetGraph: they describe
	// the job across execution attempts, not one graph instance.
	restarts, failures, deadLetters atomic.Int64
	// deadLettersDropped counts dead letters evicted from a capped DLQ
	// (drop-oldest): quarantine history lost to the queue bound.
	deadLettersDropped atomic.Int64
	// Network fault tolerance counters: transient data-link reconnects
	// (heals that needed no restart), heartbeat liveness expiries (fatal
	// detections), partitions healed by a first post-blackhole delivery,
	// and the latency of the last failure detection.
	reconnects, heartbeatTimeouts, partitionsHealed atomic.Int64
	lastDetectNs                                    atomic.Int64
	lastMu                                          sync.Mutex
	lastFailure                                     string

	// clusterFn, when set, provides per-worker cluster status for the
	// /cluster/* endpoints. The distributed coordinator installs it; it
	// survives ResetGraph and job completion so post-run scrapes still see
	// the last run's cluster.
	clusterMu sync.Mutex
	clusterFn func() []WorkerStatus

	// overloadFn, when set, pulls the executing environment's job-level
	// overload counters (shed totals, peak state, recall estimate) at
	// snapshot time. The engine installs it per execution; ResetGraph
	// clears it so a long-lived registry never reports a finished run's
	// counters as live.
	overloadMu sync.Mutex
	overloadFn func() OverloadStats
}

// OverloadStats is the job-level bounded-state degradation summary pulled
// from the executing environment at snapshot time. Armed distinguishes a
// run with overload configured (all counters meaningful, even when zero)
// from an ordinary run.
type OverloadStats struct {
	Armed bool `json:"armed"`
	// ShedRecords totals accounting units evicted under the Shed policy;
	// PeakState is the largest job-wide buffered element count observed.
	ShedRecords int64 `json:"shed_records"`
	PeakState   int64 `json:"peak_state"`
	// Matches counts matches delivered to terminal nodes; LostBound is
	// the accumulated upper bound on matches evicted state could still
	// have produced; RecallEstimate is the guaranteed lower bound on
	// achieved recall the two imply.
	Matches        int64   `json:"matches"`
	LostBound      float64 `json:"lost_match_bound"`
	RecallEstimate float64 `json:"recall_estimate"`
}

type namedHist struct {
	name string
	h    *Histogram
}

// NewRegistry creates an empty registry.
func NewRegistry() *Registry {
	r := &Registry{}
	r.maxEventTime.Store(unset)
	return r
}

// ResetGraph drops all operator and edge instruments and the max-event-time
// gauge, keeping named histograms. The engine calls it when a new execution
// attaches, so a long-lived registry (live HTTP endpoint across benchmark
// runs) always describes the currently executing graph.
func (r *Registry) ResetGraph() {
	if r == nil {
		return
	}
	r.mu.Lock()
	r.ops = nil
	r.edges = nil
	r.pools = nil
	r.maxEventTime.Store(unset)
	r.mu.Unlock()
	r.overloadMu.Lock()
	r.overloadFn = nil
	r.overloadMu.Unlock()
}

// SetOverloadSource installs the pull function for job-level overload
// counters; the engine calls it when an execution attaches. Nil-safe.
func (r *Registry) SetOverloadSource(fn func() OverloadStats) {
	if r == nil {
		return
	}
	r.overloadMu.Lock()
	r.overloadFn = fn
	r.overloadMu.Unlock()
}

// Operator registers and returns the instrument handle for one operator
// instance.
func (r *Registry) Operator(node string, instance int) *OperatorMetrics {
	if r == nil {
		return nil
	}
	m := &OperatorMetrics{Node: node, Instance: instance, reg: r}
	m.Watermark.Store(unset)
	r.mu.Lock()
	r.ops = append(r.ops, m)
	r.mu.Unlock()
	return m
}

// Edge registers and returns the instrument handle for one graph edge.
// capacity is the edge's total buffering (channel capacity x receiver
// instances); queueLen, when non-nil, is polled at snapshot time for the
// current queue depth.
func (r *Registry) Edge(from, to string, capacity int, queueLen func() int) *EdgeMetrics {
	if r == nil {
		return nil
	}
	e := &EdgeMetrics{From: from, To: to, Capacity: capacity, queueLen: queueLen}
	r.mu.Lock()
	r.edges = append(r.edges, e)
	r.mu.Unlock()
	return e
}

// Net registers (or finds — registration is idempotent per peer) the
// instrument handle for one network exchange peer: frame and byte counters
// for traffic to and from that peer. Net handles survive ResetGraph.
func (r *Registry) Net(peer string) *NetMetrics {
	if r == nil {
		return nil
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, n := range r.nets {
		if n.Peer == peer {
			return n
		}
	}
	n := &NetMetrics{Peer: peer}
	r.nets = append(r.nets, n)
	return n
}

// Pool registers and returns the instrument handle for one buffer pool:
// Hits counts buffers served from the pool, Misses fresh allocations.
func (r *Registry) Pool(name string) *PoolMetrics {
	if r == nil {
		return nil
	}
	p := &PoolMetrics{Name: name}
	r.mu.Lock()
	r.pools = append(r.pools, p)
	r.mu.Unlock()
	return p
}

// RegisterHistogram exposes a named histogram (nanosecond samples) through
// the registry's snapshot and export surfaces, replacing any previous
// histogram of the same name. Named histograms survive ResetGraph.
func (r *Registry) RegisterHistogram(name string, h *Histogram) {
	if r == nil || h == nil {
		return
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	for _, nh := range r.hists {
		if nh.name == name {
			nh.h = h
			return
		}
	}
	r.hists = append(r.hists, &namedHist{name: name, h: h})
}

// ObserveEventTime advances the registry-wide maximum source event time.
func (r *Registry) ObserveEventTime(ts int64) {
	if r == nil {
		return
	}
	for {
		cur := r.maxEventTime.Load()
		if ts <= cur || r.maxEventTime.CompareAndSwap(cur, ts) {
			return
		}
	}
}

// RecordFailure counts one job failure and retains its description as the
// last-failure message (nil-safe).
func (r *Registry) RecordFailure(desc string) {
	if r == nil {
		return
	}
	r.failures.Add(1)
	r.lastMu.Lock()
	r.lastFailure = desc
	r.lastMu.Unlock()
}

// RecordRestart counts one supervised restart (nil-safe).
func (r *Registry) RecordRestart() {
	if r == nil {
		return
	}
	r.restarts.Add(1)
}

// RecordDeadLetter counts one record routed to the dead-letter queue
// (nil-safe).
func (r *Registry) RecordDeadLetter() {
	if r == nil {
		return
	}
	r.deadLetters.Add(1)
}

// RecordDeadLetterDropped counts one dead letter evicted from a capped
// DLQ under drop-oldest (nil-safe).
func (r *Registry) RecordDeadLetterDropped() {
	if r == nil {
		return
	}
	r.deadLettersDropped.Add(1)
}

// RecordReconnect counts one transparent data-link reconnect: a transient
// network fault healed in place, with no job restart (nil-safe).
func (r *Registry) RecordReconnect() {
	if r == nil {
		return
	}
	r.reconnects.Add(1)
}

// RecordHeartbeatTimeout counts one liveness-deadline expiry and retains
// the detection latency — how long the peer had been silent when the
// failure detector fired (nil-safe).
func (r *Registry) RecordHeartbeatTimeout(latencyNs int64) {
	if r == nil {
		return
	}
	r.heartbeatTimeouts.Add(1)
	r.lastDetectNs.Store(latencyNs)
}

// RecordPartitionHealed counts one network partition that healed: the
// first successful delivery after a blackhole window (nil-safe).
func (r *Registry) RecordPartitionHealed() {
	if r == nil {
		return
	}
	r.partitionsHealed.Add(1)
}

// Health returns the job-level supervision counters.
func (r *Registry) Health() HealthSnapshot {
	if r == nil {
		return HealthSnapshot{}
	}
	r.lastMu.Lock()
	last := r.lastFailure
	r.lastMu.Unlock()
	return HealthSnapshot{
		Restarts:           r.restarts.Load(),
		Failures:           r.failures.Load(),
		DeadLetters:        r.deadLetters.Load(),
		DeadLettersDropped: r.deadLettersDropped.Load(),
		Reconnects:         r.reconnects.Load(),
		HeartbeatTimeouts:  r.heartbeatTimeouts.Load(),
		PartitionsHealed:   r.partitionsHealed.Load(),
		DetectLatencyMs:    r.lastDetectNs.Load() / 1e6,
		LastFailure:        last,
	}
}

// OperatorMetrics instruments one operator instance. The engine updates the
// exported atomics directly from the instance's goroutine; other fields are
// written through the helper methods. All writes are lock-free.
type OperatorMetrics struct {
	Node     string
	Instance int

	// In / Out count data records (events and composites) entering and
	// leaving the instance; Late counts data records arriving with an event
	// time at or below the instance's current watermark — candidates for
	// dropping by window operators downstream of the merge. The instance
	// adds its own tallies at every batch hand-off, after every consumed
	// batch and when it exits: a reader is at most one batch behind.
	In, Out, Late atomic.Int64
	// Proc is the processing-time histogram, one sample per data record
	// that reached OnRecord: the mean per-record time of the consumed batch
	// the record arrived in (wall time of the batch minus its OnWatermark
	// calls). Count and sum are per record; the quantiles are those of
	// record-weighted batch means, per-record times at a batch size of 1.
	Proc Histogram
	// WatermarkNanos accumulates the time spent inside OnWatermark.
	WatermarkNanos atomic.Int64
	// Watermark is the instance's current output watermark (event-time ms).
	Watermark atomic.Int64
	// Partials gauges retained state in accounting units: partial matches
	// for the NFA operator — the paper's key memory signal (§5.2.1) —
	// buffered records for joins and window buffers, groups for
	// aggregations. The engine publishes it from each operator's
	// StateAccountant after every watermark.
	Partials atomic.Int64
	// StateBytes gauges the approximate byte footprint of the retained
	// state (element counts x element size, maintained incrementally).
	StateBytes atomic.Int64
	// Shed counts accounting units this instance evicted under the Shed
	// overload policy — quantified, never-silent degradation.
	Shed atomic.Int64

	reg *Registry
}

// ObserveEventTime forwards a source-emitted event time to the registry's
// max-event-time gauge (sources call this; nil-safe).
func (m *OperatorMetrics) ObserveEventTime(ts int64) {
	if m != nil {
		m.reg.ObserveEventTime(ts)
	}
}

// EdgeMetrics instruments one graph edge (all parallel senders and
// receivers combined).
type EdgeMetrics struct {
	From, To string
	// Capacity is the edge's total buffering across receiver instances.
	Capacity int
	// Sent counts records pushed into the edge (data, watermarks, barriers).
	Sent atomic.Int64
	// BlockedNanos accumulates time senders spent blocked on a full channel
	// — the engine's backpressure signal for this edge.
	BlockedNanos atomic.Int64
	// Batch records the size of each channel transfer in records. With edge
	// batching enabled one transfer carries up to Config.BatchSize records;
	// the distribution shows how full batches actually run (idle flushes and
	// barrier/EOS flushes truncate them).
	Batch Histogram

	queueLen func() int
}

// NetMetrics instruments the data-plane traffic exchanged with one network
// peer of a distributed execution (nil-safe field access via the atomics).
type NetMetrics struct {
	// Peer names the remote end, e.g. "w1" or its data address.
	Peer string
	// FramesOut/BytesOut count frames written to the peer; FramesIn/BytesIn
	// count frames received from it. Bytes include frame headers.
	FramesOut, BytesOut, FramesIn, BytesIn atomic.Int64
	// Reconnects counts mid-run re-dials of the outbound link to this peer
	// after a write failure — transient faults healed without a restart.
	Reconnects atomic.Int64
}

// SentFrame counts one written frame of n bytes (nil-safe).
func (n *NetMetrics) SentFrame(bytes int) {
	if n != nil {
		n.FramesOut.Add(1)
		n.BytesOut.Add(int64(bytes))
	}
}

// RecvFrame counts one received frame of n bytes (nil-safe).
func (n *NetMetrics) RecvFrame(bytes int) {
	if n != nil {
		n.FramesIn.Add(1)
		n.BytesIn.Add(int64(bytes))
	}
}

// Reconnect counts one mid-run re-dial of the link to this peer (nil-safe).
func (n *NetMetrics) Reconnect() {
	if n != nil {
		n.Reconnects.Add(1)
	}
}

// PoolMetrics instruments one engine buffer pool (nil-safe methods).
type PoolMetrics struct {
	Name string
	// Hits counts buffers recycled from the pool; Misses counts fresh
	// allocations because the pool was empty (or the GC emptied it).
	Hits, Misses atomic.Int64
}

// Hit counts one recycled buffer (nil-safe).
func (p *PoolMetrics) Hit() {
	if p != nil {
		p.Hits.Add(1)
	}
}

// Miss counts one fresh allocation (nil-safe).
func (p *PoolMetrics) Miss() {
	if p != nil {
		p.Misses.Add(1)
	}
}

// Queued returns the edge's current queue depth (sum over receiver
// instance channels), or 0 when not wired.
func (e *EdgeMetrics) Queued() int {
	if e == nil || e.queueLen == nil {
		return 0
	}
	return e.queueLen()
}

// OperatorSnapshot is one operator instance's metrics at a point in time.
type OperatorSnapshot struct {
	Node     string `json:"node"`
	Instance int    `json:"instance"`
	In       int64  `json:"in"`
	Out      int64  `json:"out"`
	Late     int64  `json:"late"`
	// Watermark is the instance's current watermark (event-time ms);
	// WatermarkValid is false before the first watermark.
	Watermark      int64 `json:"watermark"`
	WatermarkValid bool  `json:"watermark_valid"`
	// WatermarkLagMs is max source event time minus the watermark, clamped
	// to >= 0; 0 when either side is unset.
	WatermarkLagMs int64 `json:"watermark_lag_ms"`
	Partials       int64 `json:"partials"`
	StateBytes     int64 `json:"state_bytes"`
	Shed           int64 `json:"shed"`
	// WatermarkNanos is the time spent inside OnWatermark so far.
	WatermarkNanos int64 `json:"wm_ns"`
	// Per-record processing time, nanoseconds (see OperatorMetrics.Proc).
	ProcCount int64 `json:"proc_count"`
	ProcSum   int64 `json:"proc_sum_ns"`
	ProcP50   int64 `json:"proc_p50_ns"`
	ProcP90   int64 `json:"proc_p90_ns"`
	ProcP99   int64 `json:"proc_p99_ns"`
	ProcMax   int64 `json:"proc_max_ns"`
}

// EdgeSnapshot is one edge's metrics at a point in time.
type EdgeSnapshot struct {
	From         string  `json:"from"`
	To           string  `json:"to"`
	Capacity     int     `json:"capacity"`
	Queued       int     `json:"queued"`
	FillPct      float64 `json:"fill_pct"`
	Sent         int64   `json:"sent"`
	BlockedNanos int64   `json:"blocked_ns"`
	// Batch transfer statistics: number of channel transfers and the
	// distribution of records per transfer.
	Batches   int64 `json:"batches"`
	BatchP50  int64 `json:"batch_p50"`
	BatchP99  int64 `json:"batch_p99"`
	BatchMax  int64 `json:"batch_max"`
	BatchMean int64 `json:"batch_mean"`
}

// PoolSnapshot is one buffer pool's counters at a point in time.
type PoolSnapshot struct {
	Name   string `json:"name"`
	Hits   int64  `json:"hits"`
	Misses int64  `json:"misses"`
}

// NetSnapshot is one network peer's traffic counters at a point in time.
type NetSnapshot struct {
	Peer       string `json:"peer"`
	FramesOut  int64  `json:"frames_out"`
	BytesOut   int64  `json:"bytes_out"`
	FramesIn   int64  `json:"frames_in"`
	BytesIn    int64  `json:"bytes_in"`
	Reconnects int64  `json:"reconnects,omitempty"`
}

// HistogramSnapshot is one named histogram's summary at a point in time.
// State carries the full bucket contents — omitted from JSON surfaces but
// shipped by the gob-encoded federation push, so the coordinator can Merge
// worker histograms exactly instead of folding lossy quantiles.
type HistogramSnapshot struct {
	Name  string         `json:"name"`
	Count int64          `json:"count"`
	Sum   int64          `json:"sum_ns"`
	Mean  int64          `json:"mean_ns"`
	P50   int64          `json:"p50_ns"`
	P90   int64          `json:"p90_ns"`
	P99   int64          `json:"p99_ns"`
	Max   int64          `json:"max_ns"`
	State HistogramState `json:"-"`
}

// HealthSnapshot is the job-level supervision state at a point in time:
// how often the job failed and was restarted, how many records were
// dead-lettered, and the last failure's description.
type HealthSnapshot struct {
	Restarts    int64 `json:"restarts"`
	Failures    int64 `json:"failures"`
	DeadLetters int64 `json:"dead_letters"`
	// DeadLettersDropped counts dead letters evicted from a capped DLQ
	// (drop-oldest).
	DeadLettersDropped int64 `json:"dead_letters_dropped"`
	// Network fault tolerance: transparent data-link reconnects, heartbeat
	// liveness expiries, healed partition windows, and the silence duration
	// at which the last liveness expiry fired (the detection latency).
	Reconnects        int64  `json:"reconnects,omitempty"`
	HeartbeatTimeouts int64  `json:"heartbeat_timeouts,omitempty"`
	PartitionsHealed  int64  `json:"partitions_healed,omitempty"`
	DetectLatencyMs   int64  `json:"detect_latency_ms,omitempty"`
	LastFailure       string `json:"last_failure,omitempty"`
}

// Snapshot is a consistent-enough point-in-time view of every registered
// instrument, suitable for polling on the resource-sampler timeline.
type Snapshot struct {
	MaxEventTime int64               `json:"max_event_time"`
	Operators    []OperatorSnapshot  `json:"operators"`
	Edges        []EdgeSnapshot      `json:"edges"`
	Pools        []PoolSnapshot      `json:"pools,omitempty"`
	Nets         []NetSnapshot       `json:"nets,omitempty"`
	Histograms   []HistogramSnapshot `json:"histograms,omitempty"`
	Health       HealthSnapshot      `json:"health"`
	// Overload carries the job-level bounded-state degradation summary;
	// Overload.Armed is false on runs without overload configured.
	Overload OverloadStats `json:"overload"`
}

// Snapshot captures the current value of every instrument. Safe to call
// while the dataflow runs. Nil-safe: a nil registry yields a zero snapshot.
func (r *Registry) Snapshot() Snapshot {
	if r == nil {
		return Snapshot{MaxEventTime: unset}
	}
	r.mu.RLock()
	ops := append([]*OperatorMetrics(nil), r.ops...)
	edges := append([]*EdgeMetrics(nil), r.edges...)
	pools := append([]*PoolMetrics(nil), r.pools...)
	nets := append([]*NetMetrics(nil), r.nets...)
	hists := append([]*namedHist(nil), r.hists...)
	r.mu.RUnlock()

	r.overloadMu.Lock()
	ovFn := r.overloadFn
	r.overloadMu.Unlock()

	maxET := r.maxEventTime.Load()
	s := Snapshot{MaxEventTime: maxET, Health: r.Health()}
	if ovFn != nil {
		s.Overload = ovFn()
	}
	for _, m := range ops {
		wm := m.Watermark.Load()
		os := OperatorSnapshot{
			Node: m.Node, Instance: m.Instance,
			In: m.In.Load(), Out: m.Out.Load(), Late: m.Late.Load(),
			Watermark: wm, WatermarkValid: wm != unset,
			Partials:   m.Partials.Load(),
			StateBytes: m.StateBytes.Load(),
			Shed:       m.Shed.Load(), WatermarkNanos: m.WatermarkNanos.Load(),
			ProcCount: m.Proc.Count(), ProcSum: m.Proc.Sum(),
			ProcP50: m.Proc.Quantile(0.50), ProcP90: m.Proc.Quantile(0.90),
			ProcP99: m.Proc.Quantile(0.99), ProcMax: m.Proc.Max(),
		}
		if wm != unset && maxET != unset && maxET > wm {
			os.WatermarkLagMs = maxET - wm
		}
		s.Operators = append(s.Operators, os)
	}
	for _, e := range edges {
		q := e.Queued()
		es := EdgeSnapshot{
			From: e.From, To: e.To, Capacity: e.Capacity, Queued: q,
			Sent: e.Sent.Load(), BlockedNanos: e.BlockedNanos.Load(),
			Batches: e.Batch.Count(), BatchP50: e.Batch.Quantile(0.50),
			BatchP99: e.Batch.Quantile(0.99), BatchMax: e.Batch.Max(),
			BatchMean: e.Batch.Mean(),
		}
		if e.Capacity > 0 {
			es.FillPct = float64(q) / float64(e.Capacity) * 100
		}
		s.Edges = append(s.Edges, es)
	}
	for _, p := range pools {
		s.Pools = append(s.Pools, PoolSnapshot{
			Name: p.Name, Hits: p.Hits.Load(), Misses: p.Misses.Load(),
		})
	}
	for _, n := range nets {
		s.Nets = append(s.Nets, NetSnapshot{
			Peer:      n.Peer,
			FramesOut: n.FramesOut.Load(), BytesOut: n.BytesOut.Load(),
			FramesIn: n.FramesIn.Load(), BytesIn: n.BytesIn.Load(),
			Reconnects: n.Reconnects.Load(),
		})
	}
	for _, nh := range hists {
		s.Histograms = append(s.Histograms, HistogramSnapshot{
			Name: nh.name, Count: nh.h.Count(), Sum: nh.h.Sum(), Mean: nh.h.Mean(),
			P50: nh.h.Quantile(0.50), P90: nh.h.Quantile(0.90),
			P99: nh.h.Quantile(0.99), Max: nh.h.Max(),
			State: nh.h.State(),
		})
	}
	return s
}
