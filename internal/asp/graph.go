package asp

import (
	"fmt"
	"log/slog"
	"strings"
	"sync"
	"sync/atomic"
	"time"

	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/trace"
)

// Config tunes the execution environment.
type Config struct {
	// DefaultParallelism is the number of instances per stateful node when
	// a stream is keyed; one worker of the paper's testbed corresponds to
	// 16 task slots (§5.1.1). Defaults to 1.
	DefaultParallelism int
	// ChannelCapacity bounds each inter-instance channel; full channels
	// block the sender, propagating backpressure to the sources exactly as
	// Flink's bounded network buffers do (§5.2.4). Defaults to 1024.
	ChannelCapacity int
	// WatermarkInterval is the number of records a source emits between
	// watermarks. Defaults to 64.
	WatermarkInterval int
	// BatchSize is the number of records a sender accumulates per downstream
	// channel before transferring them in one channel operation, amortizing
	// channel synchronization the way Flink's network buffers do. Barriers
	// and EOS markers flush immediately; partial batches flush whenever an
	// instance drains its input (idle flush) and at least every
	// FlushTimeout. 1 disables batching (every record crosses alone);
	// values <= 0 select the default of 64.
	BatchSize int
	// FlushTimeout bounds how long a partial output batch may sit in a
	// busy instance before being flushed, keeping downstream progress (and
	// coalesced watermarks) flowing when an operator emits far fewer
	// records than it consumes. Zero selects the default of 5ms; negative
	// disables the timer (idle and full-batch flushes still apply).
	FlushTimeout time.Duration
	// MaxOperatorState, when positive, bounds the total number of buffered
	// elements across all stateful operators. Exceeding it aborts the run
	// with ErrStateBudget — the analogue of the paper's FlinkCEP runs
	// failing with memory exhaustion (§5.2.3/§5.2.4). It is shorthand for
	// Overload.Budget.PerJob; the policy applied at the bound comes from
	// Overload.Policy (Fail unless configured otherwise).
	MaxOperatorState int64
	// Overload configures bounded-state execution (internal/overload):
	// per-operator and per-job state budgets, the policy applied when a
	// budget is reached (Fail / Shed / Pause), and the heap admission
	// controller. The zero value disables all of it; the un-budgeted hot
	// path keeps its single atomic add per state change.
	Overload overload.Spec
	// Checkpoint enables the aligned-barrier checkpointing and recovery
	// subsystem (internal/checkpoint); nil disables it.
	Checkpoint *CheckpointSpec
	// Metrics attaches the per-operator observability registry
	// (internal/obs): records in/out, late arrivals, per-record processing
	// time, watermarks and lag, per-edge queue depth and blocked-send time.
	// Nil disables instrumentation; the un-observed hot path costs one
	// pointer comparison per record.
	Metrics *obs.Registry
	// Chaos arms deterministic fault-injection points (internal/chaos) in
	// the source, operator and sink execution paths; nil (the default)
	// keeps the un-faulted hot path at one nil comparison per record.
	Chaos *chaos.Injector
	// Quarantine drops dead-lettered poison records before they reach an
	// operator; a supervisor populates it between restarts. Nil disables.
	Quarantine *Quarantine
	// ShutdownTimeout bounds teardown after the run is cancelled or fails:
	// if an operator instance is wedged and does not return within the
	// deadline, Execute abandons it and returns ErrShutdownTimeout listing
	// the stuck instances. Zero waits forever (the pre-supervision
	// behaviour).
	ShutdownTimeout time.Duration
	// Dist, when non-nil, runs this process as one worker of a distributed
	// execution: only locally-owned instances are spawned, and edges
	// crossing a process boundary are spliced through Dist.Transport.
	// Nil (the default) executes the whole graph in-process.
	Dist *DistSpec
	// Trace attaches the end-to-end tracing plane (internal/trace): a
	// deterministic sample of source events is followed through every
	// operator hop, network frame and match derivation, producing
	// queue/proc/network spans plus barrier spans for every checkpoint.
	// Nil disables tracing; the untraced hot path costs one pointer
	// comparison per record.
	Trace *trace.Tracer
	// Log receives structured lifecycle events (execution start/finish,
	// checkpoint completion, shutdown timeouts) with node/instance attrs.
	// Nil disables logging entirely.
	Log *slog.Logger
}

// CheckpointSpec configures checkpointing for one execution.
type CheckpointSpec struct {
	// Store receives completed snapshots and serves restores. Required.
	Store checkpoint.Store
	// Interval auto-triggers a checkpoint this often while the dataflow
	// runs; zero leaves triggering to explicit TriggerCheckpoint calls.
	// Only one checkpoint is in flight at a time, so an interval shorter
	// than the end-to-end barrier round trip degrades to back-to-back
	// checkpoints rather than piling up.
	Interval time.Duration
	// Restore loads a complete snapshot before running: operator state is
	// handed to each instance's RestoreState and sources resume from the
	// recorded offsets. The graph must be built identically to the run
	// that produced the snapshot (same nodes, names and parallelism).
	Restore bool
	// RestoreID selects the snapshot to restore; zero means the latest.
	RestoreID int64

	// The three fields below configure the *remote* half of distributed
	// checkpointing and are mutually exclusive with Store/Interval/Restore:
	// a worker process acknowledges snapshots into Ack (a network forwarder
	// to the coordinator process) instead of a local
	// checkpoint.Coordinator, and restores directly from Snapshot shipped
	// in the job spec instead of reading a store.

	// Ack, when non-nil, receives this process's task acknowledgements;
	// checkpoint completion is decided elsewhere (the coordinator process).
	Ack checkpoint.AckSink
	// Snapshot, when non-nil with Ack set, is restored before running.
	Snapshot *checkpoint.Snapshot
	// OnTrigger, when set on the coordinating process, observes every
	// locally triggered checkpoint ID so it can be broadcast to remote
	// workers (which inject the same barrier via InjectBarrier).
	OnTrigger func(id int64)
}

func (c Config) withDefaults() Config {
	if c.DefaultParallelism <= 0 {
		c.DefaultParallelism = 1
	}
	if c.ChannelCapacity <= 0 {
		c.ChannelCapacity = 1024
	}
	if c.WatermarkInterval <= 0 {
		c.WatermarkInterval = DefaultWatermarkInterval
	}
	if c.BatchSize <= 0 {
		c.BatchSize = DefaultBatchSize
	}
	if c.FlushTimeout == 0 {
		c.FlushTimeout = 5 * time.Millisecond
	}
	if c.MaxOperatorState > 0 && !c.Overload.Budget.Enabled() {
		// The coarse job-wide budget is the per-job bound of the overload
		// layer; with no policy configured it keeps its historical Fail
		// semantics.
		c.Overload.Budget.PerJob = c.MaxOperatorState
	}
	return c
}

// DefaultBatchSize is the edge batch size used when Config.BatchSize is
// unset: large enough to amortize channel synchronization, small enough to
// keep per-edge buffering far below the default channel capacity.
const DefaultBatchSize = 64

// DefaultWatermarkInterval is the per-source record count between
// watermarks when Config.WatermarkInterval is unset. Exported so replay
// computations (internal/optimizer) can reproduce the watermark a source
// had emitted at a checkpointed offset.
const DefaultWatermarkInterval = 64

// Environment assembles a dataflow graph and executes it. It is not safe
// for concurrent construction; Execute may be called once.
type Environment struct {
	cfg      Config
	nodes    []*node
	executed bool
	// buildErr records the first graph-construction misuse (e.g. Throttle
	// on a non-source stream); Execute surfaces it instead of running a
	// silently misconfigured graph.
	buildErr error

	totalState atomic.Int64
	// shedRecords and peakState quantify bounded-state degradation: total
	// accounting units evicted under the Shed policy, and the largest
	// job-wide state observed on budgeted runs (0 otherwise — peak
	// tracking is gated so the un-budgeted AddState stays one atomic add).
	shedRecords atomic.Int64
	peakState   atomic.Int64
	// matchesEmitted counts matches delivered to terminal (sink) nodes;
	// lostBound (float64 bits) accumulates the upper bound on matches
	// evicted state could still have produced. Together they yield the
	// run's recall estimate — a guaranteed lower bound on achieved recall.
	matchesEmitted atomic.Int64
	lostBound      atomic.Uint64
	// shedStrategy is the live shed-victim selection strategy
	// (overload.ShedStrategy); a quality controller may switch it while
	// the job runs, and operator instances observe the change at their
	// next overload check.
	shedStrategy atomic.Int32
	// gate suspends source intake under the Pause policy and the heap
	// admission controller; nil when neither is configured (one pointer
	// comparison per source event).
	gate   *overload.Gate
	memCtl *overload.Controller
	abort  func(error)
	// failMu guards the externally-visible failure path (Fail): external
	// subsystems — the network transport's receive side, the distributed
	// worker runtime — may report failures before Execute has wired the
	// run's cancellation; such failures are buffered in pendingFail and
	// applied the moment Execute starts.
	failMu      sync.Mutex
	extAbort    func(error)
	pendingFail error
	// ckpt is published by Execute before the dataflow starts; tests may
	// call TriggerCheckpoint concurrently, hence the atomic pointer.
	ckpt atomic.Pointer[ckptRuntime]
}

// ckptRuntime is the per-execution checkpoint machinery.
type ckptRuntime struct {
	// coord decides checkpoint completion; nil on distributed worker
	// processes, where completion is decided by the coordinator process and
	// ack is a network forwarder.
	coord *checkpoint.Coordinator
	// ack receives task acknowledgements — coord locally, a remote
	// forwarder on workers. Never nil while checkpointing is enabled.
	ack       checkpoint.AckSink
	onTrigger func(id int64)
	restored  *checkpoint.Snapshot
	base      int64
	// requested is the latest checkpoint ID sources should inject a
	// barrier for; sources poll it between events.
	requested atomic.Int64
	// Barrier observability (nil without a metrics registry): propHist
	// records per-edge barrier propagation latency (send to receipt),
	// alignHist the per-instance alignment stall, durHist the wall-clock
	// duration of each completed checkpoint. All in nanoseconds.
	propHist  *obs.Histogram
	alignHist *obs.Histogram
	durHist   *obs.Histogram
}

// fingerprint describes the graph shape; snapshots record it so a restore
// into a structurally different graph fails instead of silently
// misassigning state.
func (env *Environment) fingerprint() string {
	var b strings.Builder
	for _, n := range env.nodes {
		fmt.Fprintf(&b, "%d:%s/%d;", n.id, n.name, n.parallelism)
	}
	return b.String()
}

// taskID identifies one operator or source instance across runs of an
// identically built graph.
func taskID(n *node, inst int) string {
	return fmt.Sprintf("%d:%s/%d", n.id, n.name, inst)
}

// TriggerCheckpoint requests a checkpoint and returns its ID. It returns 0
// when checkpointing is not configured, the dataflow is not executing, or
// another checkpoint is still in flight. Safe to call concurrently with
// Execute.
func (env *Environment) TriggerCheckpoint() int64 {
	ck := env.ckpt.Load()
	if ck == nil || ck.coord == nil {
		return 0
	}
	id, ok := ck.coord.Begin()
	if !ok {
		return 0
	}
	ck.requested.Store(id)
	if ck.onTrigger != nil {
		ck.onTrigger(id)
	}
	return id
}

// InjectBarrier asks this process's sources to emit the barrier for an
// externally assigned checkpoint ID — the worker-side counterpart of
// TriggerCheckpoint in a distributed run, where the coordinator process
// assigns IDs and broadcasts them. Monotonic: stale IDs are ignored.
func (env *Environment) InjectBarrier(id int64) {
	ck := env.ckpt.Load()
	if ck == nil {
		return
	}
	for {
		cur := ck.requested.Load()
		if id <= cur {
			return
		}
		if ck.requested.CompareAndSwap(cur, id) {
			return
		}
	}
}

// CheckpointStats returns completion statistics for every checkpoint
// finished so far (empty without checkpointing).
func (env *Environment) CheckpointStats() []checkpoint.Stat {
	ck := env.ckpt.Load()
	if ck == nil || ck.coord == nil {
		return nil
	}
	return ck.coord.Stats()
}

// CompletedCheckpoints returns the number of checkpoints completed so far.
func (env *Environment) CompletedCheckpoints() int64 {
	ck := env.ckpt.Load()
	if ck == nil || ck.coord == nil {
		return 0
	}
	return ck.coord.Completed() - ck.base
}

// AckSink returns the sink receiving this execution's checkpoint
// acknowledgements, or nil without checkpointing. The distributed
// coordinator forwards remote workers' acks into it.
func (env *Environment) AckSink() checkpoint.AckSink {
	ck := env.ckpt.Load()
	if ck == nil {
		return nil
	}
	return ck.ack
}

// NewEnvironment creates an empty environment with the given configuration.
func NewEnvironment(cfg Config) *Environment {
	env := &Environment{cfg: cfg.withDefaults()}
	env.shedStrategy.Store(int32(env.cfg.Overload.Shedding))
	if ov := env.cfg.Overload; ov.Budget.Enabled() || ov.Memory.SoftLimitBytes > 0 {
		// The admission gate is allocated here, not in Execute, so a
		// quality controller built before the run starts can pause intake
		// without racing the gate pointer.
		env.gate = new(overload.Gate)
	}
	return env
}

// NodeMetrics exposes per-node record counters, readable while running. In
// and Out are settled once per batch by each instance (Collector.settle):
// exact once Execute has returned, at most a batch per instance behind
// before. The Ckpt* counters accumulate checkpoint overhead across this node's
// instances: snapshots taken, serialized bytes, and time spent capturing
// state.
type NodeMetrics struct {
	Name      string
	In        atomic.Int64
	Out       atomic.Int64
	Ckpts     atomic.Int64
	CkptBytes atomic.Int64
	CkptNanos atomic.Int64
	// Shed counts accounting units this node's instances evicted under
	// the Shed overload policy: the quantified quality loss of a
	// degraded-but-surviving run.
	Shed atomic.Int64
}

type node struct {
	id          int
	name        string
	parallelism int
	newOp       func(instance int) Operator
	inEdges     []*edge
	outEdges    []*edge
	source      *sourceSpec
	metrics     *NodeMetrics
}

type edge struct {
	from, to  *node
	port      uint8
	partition PartitionFn
	// filter, when set, drops single-event records failing the predicate
	// before they cross the channel — operator chaining in the style of
	// Flink's chained tasks: the selection executes inside the upstream
	// instance, saving one channel hop per event. It reads the event as a
	// one-constituent view of the record being emitted.
	filter func([]event.Event) bool
	// Filled at execution time:
	chans   []chan []Record
	srcBase int
	// queued counts the records currently buffered in the receiving node's
	// input channels (all in-edges of a node share them). Only maintained
	// when a metrics registry is attached; len(chan) cannot serve as the
	// queue-depth probe anymore because channels carry batches.
	queued *atomic.Int64
	// obs instruments the edge when a metrics registry is attached. All
	// in-edges of a node share the receiver channels, so the queue-depth
	// gauge reports the receiving node's shared input queue.
	obs *obs.EdgeMetrics
}

// PartitionFn routes a data record to one of n downstream instances. The
// record is borrowed for the call.
type PartitionFn func(r *Record, n int) int

// HashPartition routes by key — the shuffle enabling optimization O3.
func HashPartition(key KeyFn) PartitionFn {
	return func(r *Record, n int) int {
		k := key(r)
		// Fibonacci hashing spreads small integer keys.
		h := uint64(k) * 0x9E3779B97F4A7C15
		return int(h % uint64(n))
	}
}

// SinglePartition sends everything to instance 0 — the global-window case
// of non-partitionable patterns (§5.1.2).
func SinglePartition() PartitionFn { return func(*Record, int) int { return 0 } }

// Stream is a handle to the output of a node, used to chain operators.
type Stream struct {
	env  *Environment
	node *node
	// edgeFilter is applied on the edges this stream handle creates
	// (FilterFused); nil passes everything.
	edgeFilter func([]event.Event) bool
}

// Metrics returns the record counters of the stream's producing node.
func (s *Stream) Metrics() *NodeMetrics { return s.node.metrics }

type sourceSpec struct {
	events [][]event.Event // one slice per instance
	// stampIngest, when set, assigns wall-clock ingest times on emission.
	stampIngest bool
	// lateness bounds how far behind the maximum seen event time an
	// arriving event may be; watermarks trail by this much. Zero means
	// the stream is time-ordered.
	lateness event.Time
	// ratePerSec throttles emission to the given wall-clock rate; zero
	// emits at full speed. Throttled sources measure detection latency at
	// a controlled ingestion rate rather than under full backpressure —
	// the sustainable-throughput methodology of the paper's benchmarking
	// reference (Karimov et al., its [53]).
	ratePerSec float64
}

func (env *Environment) addNode(name string, parallelism int, newOp func(int) Operator) *node {
	n := &node{
		id:          len(env.nodes),
		name:        name,
		parallelism: parallelism,
		newOp:       newOp,
		metrics:     &NodeMetrics{Name: name},
	}
	env.nodes = append(env.nodes, n)
	return n
}

func (env *Environment) connect(from, to *node, port uint8, part PartitionFn) *edge {
	e := &edge{from: from, to: to, port: port, partition: part}
	from.outEdges = append(from.outEdges, e)
	to.inEdges = append(to.inEdges, e)
	return e
}

// connectFrom wires a stream handle, carrying its fused edge filter.
func (env *Environment) connectFrom(s *Stream, to *node, port uint8, part PartitionFn) {
	e := env.connect(s.node, to, port, part)
	e.filter = s.edgeFilter
}

// FilterFused attaches a selection to the stream's future edges instead of
// creating a filter node: the predicate runs inside the upstream operator
// instance (operator chaining), eliminating one channel hop per event.
// Semantically identical to FilterMatch over single events; composes with an
// existing fused filter. pred is shared by every sending instance, so it
// must keep no state of its own.
func (s *Stream) FilterFused(pred func([]event.Event) bool) *Stream {
	prev := s.edgeFilter
	combined := pred
	if prev != nil {
		combined = func(es []event.Event) bool { return prev(es) && pred(es) }
	}
	return &Stream{env: s.env, node: s.node, edgeFilter: combined}
}

// Source adds a single-instance source emitting the given pre-generated,
// per-source time-ordered events. stampIngest assigns wall-clock creation
// times used for detection latency (§5.1.3).
func (env *Environment) Source(name string, events []event.Event, stampIngest bool) *Stream {
	n := env.addNode(name, 1, nil)
	n.source = &sourceSpec{events: [][]event.Event{events}, stampIngest: stampIngest}
	return &Stream{env: env, node: n}
}

// Throttle limits the stream's source to the given wall-clock emission
// rate in events per second. Only valid on source streams with a positive
// rate; misuse is recorded and surfaces as an error from Execute.
func (s *Stream) Throttle(ratePerSec float64) *Stream {
	if s.node.source == nil {
		s.env.recordBuildErr(fmt.Errorf("asp: Throttle on %q: only source streams can be throttled", s.node.name))
		return s
	}
	if !(ratePerSec > 0) { // rejects zero, negatives and NaN
		s.env.recordBuildErr(fmt.Errorf("asp: Throttle on %q: rate must be positive, got %v events/s", s.node.name, ratePerSec))
		return s
	}
	s.node.source.ratePerSec = ratePerSec
	return s
}

// recordBuildErr retains the first graph-construction error for validate.
func (env *Environment) recordBuildErr(err error) {
	if env.buildErr == nil {
		env.buildErr = err
	}
}

// SourceOutOfOrder adds a source whose events may arrive out of event-time
// order by at most lateness: watermarks trail the maximum seen event time
// by that bound, so downstream windows wait for stragglers. Events more
// disordered than the bound arrive late: window operators (LateDropper)
// drop them before processing and count them in the per-operator Late
// metric — a non-zero counter means the declared bound is too tight.
func (env *Environment) SourceOutOfOrder(name string, events []event.Event, stampIngest bool, lateness event.Time) *Stream {
	if lateness < 0 {
		env.recordBuildErr(fmt.Errorf("asp: source %q: negative lateness %d; a disorder bound cannot be negative", name, lateness))
		lateness = 0
	}
	n := env.addNode(name, 1, nil)
	n.source = &sourceSpec{events: [][]event.Event{events}, stampIngest: stampIngest, lateness: lateness}
	return &Stream{env: env, node: n}
}

// ParallelSource adds a source with one instance per event slice; each
// slice must be time-ordered.
func (env *Environment) ParallelSource(name string, perInstance [][]event.Event, stampIngest bool) *Stream {
	n := env.addNode(name, len(perInstance), nil)
	n.source = &sourceSpec{events: perInstance, stampIngest: stampIngest}
	return &Stream{env: env, node: n}
}

// Filter appends a selection operator (stateless, same parallelism,
// forward-connected).
func (s *Stream) Filter(name string, pred func(event.Event) bool) *Stream {
	return s.FilterMatch(name, func(es []event.Event) bool { return pred(es[0]) })
}

// FilterMatch appends a predicate over a record's constituents: one for a
// single event, all of them for a composite. pred reads them where they lie
// and must not write them; it is shared by every instance and must keep no
// state.
func (s *Stream) FilterMatch(name string, pred func([]event.Event) bool) *Stream {
	return s.chainStateless(name, func(int) Operator {
		return &filterOperator{pred: pred}
	})
}

func (s *Stream) chainStateless(name string, newOp func(int) Operator) *Stream {
	n := s.env.addNode(name, s.node.parallelism, newOp)
	// Stateless stages preserve partitioning: instance i feeds instance i;
	// a nil partitioner marks forwarding, resolved per sender in exec.go.
	s.env.connectFrom(s, n, 0, nil)
	return &Stream{env: s.env, node: n}
}

// Union merges this stream with others into one logical stream (the ∪
// mapping of disjunction, §4.1). The result runs at parallelism 1 unless
// rekeyed afterwards; merging is performed by the engine's multi-sender
// channels through a pass-through node.
func (s *Stream) Union(name string, others ...*Stream) *Stream {
	n := s.env.addNode(name, 1, func(int) Operator { return passOperator{} })
	s.env.connectFrom(s, n, 0, SinglePartition())
	for _, o := range others {
		s.env.connectFrom(o, n, 0, SinglePartition())
	}
	return &Stream{env: s.env, node: n}
}

// Process appends a custom stateful operator at the given parallelism,
// hash-partitioned by key (or single-instance when key is nil).
func (s *Stream) Process(name string, parallelism int, key KeyFn, newOp func(int) Operator) *Stream {
	if parallelism <= 0 || key == nil {
		parallelism = 1
	}
	n := s.env.addNode(name, parallelism, newOp)
	part := SinglePartition()
	if key != nil {
		part = HashPartition(key)
	}
	s.env.connectFrom(s, n, 0, part)
	return &Stream{env: s.env, node: n}
}

// Connect2 appends a two-input stateful operator (a join) consuming s on
// port 0 and right on port 1, hash-partitioned by the respective keys (or
// single-instance when keys are nil — the global-window fallback of
// §5.1.2).
func (s *Stream) Connect2(name string, right *Stream, parallelism int, leftKey, rightKey KeyFn, newOp func(int) Operator) *Stream {
	if parallelism <= 0 || leftKey == nil || rightKey == nil {
		parallelism = 1
	}
	n := s.env.addNode(name, parallelism, newOp)
	lp, rp := SinglePartition(), SinglePartition()
	if leftKey != nil && rightKey != nil {
		lp, rp = HashPartition(leftKey), HashPartition(rightKey)
	}
	s.env.connectFrom(s, n, 0, lp)
	s.env.connectFrom(right, n, 1, rp)
	return &Stream{env: s.env, node: n}
}

// Sink terminates the stream in a single-instance consumer.
func (s *Stream) Sink(name string, newOp func(int) Operator) *Stream {
	n := s.env.addNode(name, 1, newOp)
	s.env.connectFrom(s, n, 0, SinglePartition())
	return &Stream{env: s.env, node: n}
}

// validate checks graph well-formedness before execution.
func (env *Environment) validate() error {
	if env.buildErr != nil {
		return env.buildErr
	}
	if err := env.cfg.Overload.Budget.Validate(); err != nil {
		return err
	}
	if len(env.nodes) == 0 {
		return fmt.Errorf("asp: empty dataflow graph")
	}
	for _, n := range env.nodes {
		if n.source == nil && len(n.inEdges) == 0 {
			return fmt.Errorf("asp: node %q has no inputs and is not a source", n.name)
		}
		if n.source != nil && len(n.inEdges) > 0 {
			return fmt.Errorf("asp: source %q cannot have inputs", n.name)
		}
		if n.parallelism <= 0 {
			return fmt.Errorf("asp: node %q has parallelism %d", n.name, n.parallelism)
		}
	}
	return nil
}
