package asp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"slices"
	"sync"
	"sync/atomic"
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/trace"
)

// ErrStateBudget reports that a state budget (Config.Overload.Budget) was
// exceeded under the Fail policy.
// It models the failure mode the paper observes for FlinkCEP under high
// ingestion rates: unbounded operator state exhausting memory (§5.2.3,
// §5.2.4).
var ErrStateBudget = errors.New("asp: operator state exceeded the configured budget")

// Collector is the emission context handed to operator instances. All
// methods must be called from the instance's own goroutine.
type Collector struct {
	env     *Environment
	metrics *NodeMetrics
	senders []edgeSender
	// sels are the selections on this instance's out-edges, each before
	// the selections applied after it.
	sels    []*selTest
	done    <-chan struct{}
	aborted bool
	lastWM  event.Time
	// obsOp instruments this instance when a metrics registry is attached
	// (asp.Config.Metrics); nil otherwise — every instrumentation site
	// nil-checks it, keeping the un-observed path at a pointer comparison.
	obsOp *obs.OperatorMetrics
	// cur/curSet track the data record currently inside OnRecord (or being
	// emitted by a source), so the instance's panic-recovery wrapper can
	// attribute a failure to the offending record. cur points into the
	// batch, the stash or the source's own record — valid whenever curSet
	// is true, and only read by guard on the same goroutine after a panic.
	cur    *Record
	curSet bool
	// in/out/late/matches count this instance's data records (late ones,
	// matches delivered to a sink) since the last settle, so the shared
	// atomics of NodeMetrics, the registry and the environment are paid per
	// batch, not per record. reached counts the records handed to OnRecord
	// under a registry since the batch timer last read it. handoffs counts
	// batch transfers: a full-speed source re-reads its ingest clock after
	// each, since a hand-off may have blocked.
	in, out, late, matches int64
	reached                int64
	handoffs               int
	// batch is the edge batch size (Config.BatchSize); pool recycles the
	// batch buffers carrying records across channels.
	batch int
	pool  *batchPool
	// Bounded-state execution (Config.Overload). budgeted gates every
	// extra AddState step so the un-budgeted hot path keeps its single
	// atomic add; instState mirrors this instance's share of totalState
	// (same-goroutine, non-atomic); failPolicy enables the historical
	// abort-on-overrun checks inside AddState; node/instance attribute
	// budget errors.
	budgeted      bool
	failPolicy    bool
	perOp, perJob int64
	instState     int64
	node          string
	instance      int
	// tracer is the end-to-end tracing plane (Config.Trace); nil disables
	// tracing and keeps every trace site at a pointer comparison.
	tracer *trace.Tracer
	// built is the record EmitEvent and EmitMatch assemble: a local would
	// escape to the heap through every partitioner and selection call.
	built Record
}

// selTest is one producer instance's run of a selection: the verdict on the
// record being emitted and the counts since the last settle.
type selTest struct {
	*selection
	parent  *selTest
	obsOp   *obs.OperatorMetrics
	in, out int64
	pass    bool
	// Every record writes in, out and pass, and two producers on two cores
	// allocate their selTests one after the other: the pad keeps them off
	// one cache line, which cost seq_filter up to 2.5x its CPU per event.
	_ [64]byte
}

// test offers r to the selection unless its parent rejected it.
func (t *selTest) test(r *Record) {
	t.pass = false
	if t.parent == nil || t.parent.pass {
		t.in++
		t.pass = t.pred(r.Events())
	}
	if t.pass {
		t.out++
	}
}

type edgeSender struct {
	e     *edge
	srcID uint16
	// sel is the selection the edge's records pass, nil for none.
	sel *selTest
	// obsEdge mirrors e.obs, cached to avoid the pointer chase per send.
	obsEdge *obs.EdgeMetrics
	// pending accumulates one partial batch per target channel; a batch is
	// transferred whole when it reaches Config.BatchSize, when a barrier or
	// EOS marker is appended, and on idle/timer flushes.
	pending [][]Record
}

// Emit sends a data record downstream, copying it into the pending batch of
// each edge whose selection it passes. *r is never written, so an operator
// may forward the record OnRecord lent it.
func (c *Collector) Emit(r *Record) {
	if c.aborted {
		return
	}
	c.out++
	for _, t := range c.sels {
		t.test(r)
	}
	stamp := r.TraceNs
	if c.tracer != nil {
		stamp = c.traceStamp(r)
	}
	for i := range c.senders {
		s := &c.senders[i]
		if s.sel != nil && !s.sel.pass {
			continue
		}
		if !c.push(s, s.e.partition(r, len(s.e.chans)), r, stamp) {
			return
		}
	}
}

// settle adds the instance-local record counts to the shared counters — the
// node's and its selections', the registry's when one is attached, the
// environment's match count: at every batch hand-off, after every consumed
// batch and when the instance exits, however it exits. It is the only writer
// of In, Out and Late on either side, so NodeMetrics and the registry cannot
// disagree.
func (c *Collector) settle() {
	settleCounts(c.metrics, c.obsOp, &c.in, &c.out)
	for _, t := range c.sels {
		settleCounts(t.metrics, t.obsOp, &t.in, &t.out)
	}
	if c.late != 0 {
		c.obsOp.Late.Add(c.late) // only tallied under a registry
		c.late = 0
	}
	if c.matches != 0 {
		c.env.matchesEmitted.Add(c.matches)
		c.matches = 0
	}
}

// settleCounts moves the local in and out counts to m and, when attached, om.
func settleCounts(m *NodeMetrics, om *obs.OperatorMetrics, in, out *int64) {
	if *in == 0 && *out == 0 {
		return
	}
	m.In.Add(*in)
	m.Out.Add(*out)
	if om != nil {
		om.In.Add(*in)
		om.Out.Add(*out)
	}
	*in, *out = 0, 0
}

// traceStamp returns the TraceNs of an outgoing record's copies: the hand-off
// time, which starts the next hop's queue clock, or 0 when unsampled. An
// output inherits sampling from the record under processing (c.cur), which r
// may be: r is not written, since the instance loop reads c.cur's own stamp
// for its queue wait. A sampled match additionally emits an attribution span
// whose Links name the traces of its sampled constituents.
func (c *Collector) traceStamp(r *Record) int64 {
	sampled := r.TraceNs != 0 || (c.curSet && c.cur != nil && c.cur.TraceNs != 0)
	if r.Kind == KindMatch && r.Match != nil {
		// Matches fired from window/watermark handling have no traced input
		// record under processing; their sampling is recomputed from the
		// constituents' deterministic identities instead, so a match is
		// traced exactly when at least one of its constituents is.
		var links []uint64
		for _, e := range r.Match.Events {
			if id, ok := c.tracer.Sample(e); ok {
				links = append(links, id)
			}
		}
		if len(links) > 0 {
			sampled = true
		}
		if !sampled {
			return 0
		}
		now := time.Now().UnixNano()
		c.tracer.Add(trace.Span{
			Trace: trace.MatchID(r.Match.Events), Kind: trace.KindMatch,
			Name: c.node, Instance: c.instance, StartNs: now, Links: links,
		})
		return now
	}
	if !sampled {
		return 0
	}
	return time.Now().UnixNano()
}

// traceIDOf recomputes a record's deterministic trace identity from its
// payload — the property that lets Record carry only a timestamp.
func traceIDOf(r *Record) uint64 {
	if r.Kind == KindMatch && r.Match != nil {
		return trace.MatchID(r.Match.Events)
	}
	return trace.ID(r.Event)
}

// push appends a copy of r — its one copy per hop — with the edge's Port and
// Src and the given TraceNs to the sender's pending batch for the target
// channel, transferring the batch when it fills. Adjacent watermarks within
// a batch coalesce to the newer (= maximum, per-sender watermarks are
// monotonic) one: no record sits between them, so the collapsed watermark
// carries exactly the same information downstream.
func (c *Collector) push(s *edgeSender, target int, r *Record, traceNs int64) bool {
	b := s.pending[target]
	if r.Kind == KindWatermark && len(b) > 0 && b[len(b)-1].Kind == KindWatermark {
		b[len(b)-1].TS = r.TS
		return true
	}
	if b == nil {
		b = c.pool.get()
	}
	b = append(b, *r)
	last := &b[len(b)-1]
	last.Port, last.Src, last.TraceNs = s.e.port, s.srcID, traceNs
	s.pending[target] = b
	if len(b) >= c.batch {
		return c.flushTarget(s, target)
	}
	return true
}

// flushTarget transfers the pending batch for one target channel, if any.
func (c *Collector) flushTarget(s *edgeSender, target int) bool {
	b := s.pending[target]
	if len(b) == 0 {
		return true
	}
	s.pending[target] = nil
	return c.send(s.e.chans[target], b, s)
}

// flush transfers every pending partial batch. Instances call it before
// blocking on drained input (the idle flush), on the flush timer, and as
// part of barrier/EOS forwarding, so batching delays records only while
// both sides are demonstrably busy.
func (c *Collector) flush() bool {
	if c.aborted {
		return false
	}
	for i := range c.senders {
		s := &c.senders[i]
		for t := range s.pending {
			if !c.flushTarget(s, t) {
				return false
			}
		}
	}
	return true
}

// wait flushes every pending partial batch, then waits for a batch on in or
// for d to pass, whichever comes first; a nil in or a zero d never comes. It
// reports false when the run is cancelled meanwhile.
func (c *Collector) wait(in chan []Record, d time.Duration) ([]Record, bool) {
	if !c.flush() {
		return nil, false
	}
	var timeout <-chan time.Time
	if d > 0 {
		timeout = time.After(d)
	}
	select {
	case b := <-in:
		return b, true
	case <-timeout:
		return nil, true
	case <-c.done:
		c.aborted = true
		return nil, false
	}
}

// EmitEvent sends a single event timestamped with its event time.
func (c *Collector) EmitEvent(e event.Event) {
	c.built = EventRecord(e)
	c.Emit(&c.built)
}

// EmitMatch sends a composite with the given assigned event time.
func (c *Collector) EmitMatch(ts event.Time, m *event.Match) {
	c.built = MatchRecord(ts, m)
	c.Emit(&c.built)
}

// forwardWatermark broadcasts a watermark to every downstream instance.
// Watermarks are monotonic per sender; regressions are dropped.
func (c *Collector) forwardWatermark(wm event.Time) {
	if c.aborted || wm <= c.lastWM {
		return
	}
	c.lastWM = wm
	if c.obsOp != nil {
		c.obsOp.Watermark.Store(int64(wm))
	}
	c.broadcast(Record{Kind: KindWatermark, TS: wm}, 0, false)
}

// forwardBarrier broadcasts a checkpoint barrier to every downstream
// instance. Like watermarks and EOS markers, barriers bypass selections
// and partitioners: every downstream instance must see the barrier from
// every sender to align. Barriers flush immediately: alignment downstream
// must not wait for a batch to fill.
func (c *Collector) forwardBarrier(id int64) {
	if c.aborted {
		return
	}
	// Barriers are rare, so they always carry their send timestamp: the
	// receiving instance turns it into barrier-propagation latency (and a
	// barrier span when tracing is on).
	c.broadcast(Record{Kind: KindBarrier, TS: id}, time.Now().UnixNano(), true)
}

// eos broadcasts end-of-stream to every downstream instance. EOS flushes:
// any pending records and watermarks precede the marker in the batch,
// preserving per-sender order.
func (c *Collector) eos() {
	if c.aborted {
		return
	}
	c.broadcast(Record{Kind: KindEOS}, 0, true)
}

// broadcast pushes a control record to every downstream instance, flushing
// each target's batch behind it when flush is set.
func (c *Collector) broadcast(r Record, traceNs int64, flush bool) {
	for i := range c.senders {
		s := &c.senders[i]
		for t := range s.e.chans {
			if !c.push(s, t, &r, traceNs) || (flush && !c.flushTarget(s, t)) {
				return
			}
		}
	}
}

// send transfers one batch over a channel. Sent counts records (not
// transfers) so throughput accounting is batching-independent; the Batch
// histogram records the transfer size; queued tracks the receiving node's
// buffered record count for the queue-depth gauge.
func (c *Collector) send(ch chan []Record, b []Record, s *edgeSender) bool {
	em := s.obsEdge
	n := int64(len(b))
	select {
	case ch <- b:
	default:
		// Slow path: the channel is full, so the sender blocks — the engine's
		// backpressure signal. The stall is accounted on the edge when a
		// metrics registry is attached.
		var t0 time.Time
		if em != nil {
			t0 = time.Now()
		}
		select {
		case ch <- b:
		case <-c.done:
			c.aborted = true
		}
		if em != nil {
			em.BlockedNanos.Add(time.Since(t0).Nanoseconds())
		}
		if c.aborted {
			return false
		}
	}
	c.handoffs++
	c.settle()
	if em != nil {
		em.Sent.Add(n)
		em.Batch.Record(n)
		s.e.queued.Add(n)
	}
	return true
}

// AddState accounts a change in the number of buffered elements held by the
// calling operator instance. Stateful operators report additions and
// evictions; under the Fail policy, exceeding a budget aborts the run with
// an error wrapping ErrStateBudget. On budgeted runs the instance's own
// share and the job-wide peak are tracked as well; un-budgeted runs pay
// one atomic add and one branch.
func (c *Collector) AddState(delta int64) {
	total := c.env.totalState.Add(delta)
	if !c.budgeted {
		return
	}
	c.instState += delta
	for {
		peak := c.env.peakState.Load()
		if total <= peak || c.env.peakState.CompareAndSwap(peak, total) {
			break
		}
	}
	if !c.failPolicy {
		return
	}
	if c.perOp > 0 && c.instState > c.perOp {
		c.env.fail(&BudgetExceededError{
			Node: c.node, Instance: c.instance,
			Records: c.instState, Budget: c.perOp,
		})
	}
	if c.perJob > 0 && total > c.perJob {
		c.env.fail(&BudgetExceededError{
			Node: c.node, Instance: c.instance,
			Records: total, Budget: c.perJob, PerJob: true,
		})
	}
}

// recordShed accounts n units evicted by this instance under the Shed
// policy: node counter, job-wide total, and the per-operator obs counter.
func (c *Collector) recordShed(n int64) {
	if n <= 0 {
		return
	}
	c.metrics.Shed.Add(n)
	c.env.shedRecords.Add(n)
	if c.obsOp != nil {
		c.obsOp.Shed.Add(n)
	}
}

// AddLostMatches accounts an increase in the upper bound on matches the
// calling instance's evicted state could still have produced — the loss
// side of the job's recall estimate. Shedding paths call it with the
// bound computed at eviction time; d <= 0 is ignored.
func (c *Collector) AddLostMatches(d float64) {
	if d <= 0 || math.IsNaN(d) {
		return
	}
	for {
		old := c.env.lostBound.Load()
		nv := math.Float64bits(math.Float64frombits(old) + d)
		if c.env.lostBound.CompareAndSwap(old, nv) {
			return
		}
	}
}

// StateSize returns the environment-wide buffered element count.
func (env *Environment) StateSize() int64 { return env.totalState.Load() }

// LostMatchBound returns the accumulated upper bound on matches evicted
// state could still have produced (0 on unshed runs).
func (env *Environment) LostMatchBound() float64 {
	return math.Float64frombits(env.lostBound.Load())
}

// MatchesEmitted counts matches delivered to terminal (sink) nodes so
// far. Readable while running; the quality controller polls it.
func (env *Environment) MatchesEmitted() int64 { return env.matchesEmitted.Load() }

// RecallEstimate returns the live guaranteed lower bound on achieved
// recall: emitted matches over emitted plus the lost-match bound (1 when
// nothing was lost). Final per-run estimates should instead be computed
// from the sink's deduplicated match count, which is never larger.
func (env *Environment) RecallEstimate() float64 {
	return overload.RecallEstimate(env.matchesEmitted.Load(), env.LostMatchBound())
}

// ShedStrategy returns the live shed-victim selection strategy.
func (env *Environment) ShedStrategy() overload.ShedStrategy {
	return overload.ShedStrategy(env.shedStrategy.Load())
}

// SetShedStrategy switches the shed-victim selection strategy while the
// job runs. Operator instances observe the change at their next overload
// check; safe to call from any goroutine.
func (env *Environment) SetShedStrategy(s overload.ShedStrategy) {
	env.shedStrategy.Store(int32(s))
}

// ShedRecords returns the total accounting units evicted under the Shed
// overload policy (0 on unshed runs).
func (env *Environment) ShedRecords() int64 { return env.shedRecords.Load() }

// PeakStateRecords returns the largest job-wide buffered element count
// observed. Only maintained on budgeted runs; 0 otherwise.
func (env *Environment) PeakStateRecords() int64 { return env.peakState.Load() }

// PeakHeapBytes returns the largest live heap the admission controller
// sampled during Execute (0 when overload is not configured).
func (env *Environment) PeakHeapBytes() int64 {
	if env.memCtl == nil {
		return 0
	}
	return env.memCtl.PeakHeapBytes()
}

// LiveHeapBytes returns the heap admission controller's most recent
// heap sample (0 when overload is not configured or before the first
// sample lands).
func (env *Environment) LiveHeapBytes() int64 {
	if env.memCtl == nil {
		return 0
	}
	return env.memCtl.LiveHeapBytes()
}

// NodeStats returns the metrics of every node and selection, in
// construction order.
func (env *Environment) NodeStats() []*NodeMetrics { return slices.Clone(env.stats) }

func (env *Environment) fail(err error) {
	if env.abort != nil {
		env.abort(err)
	}
}

// Fail aborts a running execution with err, exactly as if an operator had
// failed with it: Execute returns err (subject to the usual first-cause
// rule) and the supervisor classifies it through errors.As. External
// subsystems that detect failures outside the graph — the network
// transport's receive side, the distributed worker runtime — use it to
// route their faults into the run. Safe to call from any goroutine at any
// time; a failure reported before Execute starts is buffered and aborts
// the run at startup. A nil err is ignored.
func (env *Environment) Fail(err error) {
	if env == nil || err == nil {
		return
	}
	env.failMu.Lock()
	abort := env.extAbort
	if abort == nil && env.pendingFail == nil {
		env.pendingFail = err
	}
	env.failMu.Unlock()
	if abort != nil {
		abort(err)
	}
}

// Execute runs the dataflow graph to completion: until all sources are
// exhausted and every record has been fully processed, or until the context
// is cancelled or the state budget is exceeded. It may be called once.
func (env *Environment) Execute(ctx context.Context) error {
	if env.executed {
		return errors.New("asp: environment already executed")
	}
	env.executed = true
	if err := env.validate(); err != nil {
		return err
	}

	ctx, cancel := context.WithCancelCause(ctx)
	defer cancel(nil)
	env.abort = func(err error) { cancel(err) }
	env.failMu.Lock()
	env.extAbort = env.abort
	pending := env.pendingFail
	env.pendingFail = nil
	env.failMu.Unlock()
	if pending != nil {
		cancel(pending)
	}

	if err := env.setupCheckpointing(); err != nil {
		return err
	}
	// Bounded-state execution: the admission gate (see NewEnvironment) and
	// heap controller exist only when overload is configured, keeping
	// ordinary runs at nil comparisons.
	if env.gate != nil {
		env.memCtl = overload.NewController(env.cfg.Overload.Memory, env.gate)
		env.memCtl.Start()
		defer env.memCtl.Stop()
	}
	if l := env.cfg.Log; l != nil {
		l.Debug("asp: executing graph",
			"nodes", len(env.nodes), "batch", env.cfg.BatchSize,
			"distributed", env.cfg.Dist != nil)
	}

	x := &execution{env: env, done: ctx.Done()}
	x.channels()
	x.registry()
	// The environment-wide batch buffer pool publishes its hit/miss counters
	// through the registry, once registry has reset it.
	x.pool = newBatchPool(env.cfg.BatchSize, env.cfg.Metrics.Pool("batch"))
	if err := x.splice(); err != nil {
		return err
	}
	x.spawn()
	return x.wait(ctx)
}

// execution is one Execute call's wiring: the channel capacity, the batch
// pool and the goroutines to wait for.
type execution struct {
	env     *Environment
	done    <-chan struct{}
	chanCap int
	pool    *batchPool
	wg      sync.WaitGroup
	live    []*liveInstance
}

// liveInstance tracks one goroutine's liveness for the shutdown deadline's
// stuck-instance report.
type liveInstance struct {
	task string
	done atomic.Bool
}

// channels allocates the input channels and sender ID ranges. Channels
// carry whole batches; their capacity is kept at ~ChannelCapacity records
// by sizing them in batches.
func (x *execution) channels() {
	env := x.env
	x.chanCap = max(1, env.cfg.ChannelCapacity/env.cfg.BatchSize)
	for _, n := range env.nodes {
		if len(n.inEdges) > 0 {
			n.in = make([]chan []Record, n.parallelism)
			for j := range n.in {
				n.in[j] = make(chan []Record, x.chanCap)
			}
		}
		for _, e := range n.inEdges {
			e.srcBase = n.nSrc
			n.nSrc += e.from.parallelism
			e.chans = n.in
		}
	}
}

// registry attaches the observability registry: one handle per operator
// instance, one per edge with a live queue-depth probe over the receiver
// channels, and the barrier and checkpoint histograms. The registry is
// reset first so a long-lived registry (live HTTP endpoint across runs)
// always describes the executing graph.
func (x *execution) registry() {
	env, reg := x.env, x.env.cfg.Metrics
	if reg == nil {
		return
	}
	reg.ResetGraph()
	// Job-level overload counters are pulled from the environment at
	// snapshot time, so /metrics and /cluster/metrics expose shed totals,
	// peak state and the live recall estimate while running.
	reg.SetOverloadSource(func() obs.OverloadStats {
		return obs.OverloadStats{
			Armed:          env.gate != nil,
			ShedRecords:    env.shedRecords.Load(),
			PeakState:      env.peakState.Load(),
			Matches:        env.matchesEmitted.Load(),
			LostBound:      env.LostMatchBound(),
			RecallEstimate: env.RecallEstimate(),
		}
	})
	for _, n := range env.nodes {
		n.obs = make([]*obs.OperatorMetrics, n.parallelism)
		for inst := range n.obs {
			n.obs[inst] = reg.Operator(n.name, inst)
		}
		if len(n.inEdges) > 0 {
			n.queued = new(atomic.Int64)
		}
		for _, e := range n.inEdges {
			// Channels hold batches, so len(chan) does not measure records;
			// senders and receivers maintain a shared record counter instead.
			// Both updates trail their channel operation, so it may
			// transiently dip below zero (a batch drained before its sender's
			// increment lands) or pass the capacity (a batch sent before the
			// receiver's decrement for the previous one lands), hence the
			// clamps.
			q := n.queued
			e.queued = q
			capacity := x.chanCap * env.cfg.BatchSize * len(e.chans)
			e.obs = reg.Edge(e.from.name, n.name, capacity, func() int {
				return min(max(int(q.Load()), 0), capacity)
			})
		}
	}
	// Barrier/checkpoint observability: named histograms for barrier
	// propagation, alignment stall and checkpoint duration.
	if ckr := env.ckpt.Load(); ckr != nil {
		ckr.propHist, ckr.alignHist, ckr.durHist = new(obs.Histogram), new(obs.Histogram), new(obs.Histogram)
		reg.RegisterHistogram("barrier_propagation", ckr.propHist)
		reg.RegisterHistogram("barrier_alignment", ckr.alignHist)
		reg.RegisterHistogram("checkpoint_duration", ckr.durHist)
	}
}

// local reports whether this process runs instance inst of n: always,
// unless a distributed placement assigns it to another worker.
func (x *execution) local(n *node, inst int) bool {
	d := x.env.cfg.Dist
	return d == nil || d.Owner(n.name, inst) == d.Worker
}

// spawn starts every local instance, source or operator alike.
func (x *execution) spawn() {
	env := x.env
	for _, n := range env.nodes {
		for inst := 0; inst < n.parallelism; inst++ {
			if !x.local(n, inst) {
				continue
			}
			i := &instance{
				Collector: x.collector(n, inst), n: n, task: taskID(n, inst), ck: env.ckpt.Load(),
				pt: env.cfg.Chaos.Point(n.name, inst), qkeys: env.cfg.Quarantine.keysFor(n.name),
			}
			if n.in != nil {
				i.input, i.box = n.in[inst], newInbox(n.nSrc)
			}
			x.start(i.task, i.run)
		}
	}
}

// start runs body on a goroutine of its own, which wait waits for and the
// shutdown deadline names by task should it refuse to drain.
func (x *execution) start(task string, body func()) {
	ir := &liveInstance{task: task}
	x.live = append(x.live, ir)
	x.wg.Add(1)
	go func() {
		defer x.wg.Done()
		defer ir.done.Store(true)
		body()
	}()
}

// collector builds the emission context of instance inst of n.
func (x *execution) collector(n *node, inst int) Collector {
	env := x.env
	c := Collector{
		env: env, metrics: n.metrics, done: x.done,
		lastWM: event.MinWatermark,
		batch:  env.cfg.BatchSize, pool: x.pool,
		node: n.name, instance: inst,
		tracer: env.cfg.Trace,
	}
	if n.obs != nil {
		c.obsOp = n.obs[inst]
	}
	if ov := env.cfg.Overload; ov.Budget.Enabled() {
		c.budgeted = true
		c.failPolicy = ov.Policy == overload.Fail
		c.perOp = ov.Budget.PerOperator
		c.perJob = ov.Budget.PerJob
	}
	for _, e := range n.outEdges {
		c.senders = append(c.senders, edgeSender{
			e:       e,
			srcID:   uint16(e.srcBase + inst),
			sel:     c.selTest(e.sel, inst),
			obsEdge: e.obs,
			pending: make([][]Record, len(e.chans)),
		})
	}
	return c
}

// selTest returns the collector's run of sel, appending it after its parents
// on first use. A selection has no instance of its own: under a registry, it
// has a handle per producer instance, under its own name.
func (c *Collector) selTest(sel *selection, inst int) *selTest {
	if sel == nil {
		return nil
	}
	for _, t := range c.sels {
		if t.selection == sel {
			return t
		}
	}
	t := &selTest{
		selection: sel, parent: c.selTest(sel.parent, inst),
		obsOp: c.env.cfg.Metrics.Operator(sel.metrics.Name, inst),
	}
	c.sels = append(c.sels, t)
	return t
}

// wait waits for the dataflow while triggering periodic checkpoints, one in
// flight at a time: the ticker simply retries while the previous one
// completes. Teardown is bounded by the shutdown deadline: once the run is
// cancelled or fails, a wedged instance (stuck in user code, a chaos stall)
// must not hang Execute forever, so after the deadline the stuck
// goroutines are abandoned and named in the error.
func (x *execution) wait(ctx context.Context) error {
	waitDone := make(chan struct{})
	go func() { x.wg.Wait(); close(waitDone) }()
	var tick <-chan time.Time
	if spec := x.env.cfg.Checkpoint; spec != nil && spec.Interval > 0 {
		ticker := time.NewTicker(spec.Interval)
		defer ticker.Stop()
		tick = ticker.C
	}
	for {
		select {
		case <-waitDone:
			// A non-nil cause is either a failure raised through env.fail
			// (state budget, isolated panic, snapshot error) or the parent
			// context's cancellation; normal completion never cancels
			// before this point.
			return context.Cause(ctx)
		case <-tick:
			x.env.TriggerCheckpoint()
		case <-x.done:
			if to := x.env.cfg.ShutdownTimeout; to > 0 {
				return x.drain(ctx, waitDone, to)
			}
			<-waitDone
			return context.Cause(ctx)
		}
	}
}

// drain waits for the goroutines of a cancelled run for at most the
// shutdown deadline to.
func (x *execution) drain(ctx context.Context, waitDone <-chan struct{}, to time.Duration) error {
	timer := time.NewTimer(to)
	defer timer.Stop()
	select {
	case <-waitDone:
		return context.Cause(ctx)
	case <-timer.C:
	}
	var names []string
	for _, ir := range x.live {
		if !ir.done.Load() {
			names = append(names, ir.task)
		}
	}
	if l := x.env.cfg.Log; l != nil {
		l.Warn("asp: shutdown deadline exceeded, abandoning stuck instances", "timeout", to, "stuck", names)
	}
	return &ErrShutdownTimeout{Timeout: to, Stuck: names, Cause: context.Cause(ctx)}
}

// setupCheckpointing loads the snapshot to restore, when requested, and
// then installs where acknowledgements go: a local checkpoint.Coordinator,
// or the remote Ack forwarder of a distributed worker. Called by Execute
// before the dataflow starts.
func (env *Environment) setupCheckpointing() error {
	spec := env.cfg.Checkpoint
	if spec == nil {
		return nil
	}
	if spec.Store == nil {
		return errors.New("asp: checkpoint spec has no store")
	}
	fp := env.fingerprint()
	ck := &ckptRuntime{onTrigger: spec.OnTrigger}
	if spec.Restore {
		var err error
		if spec.RestoreID > 0 {
			ck.restored, err = spec.Store.Load(spec.RestoreID)
		} else {
			ck.restored, err = spec.Store.Latest()
		}
		if err != nil {
			return fmt.Errorf("asp: loading snapshot: %w", err)
		}
		if ck.restored != nil {
			if ck.restored.Fingerprint != fp {
				return fmt.Errorf("asp: snapshot %d was taken on a different graph", ck.restored.ID)
			}
			ck.base = ck.restored.ID
		}
	}
	if spec.Ack != nil {
		ck.ack = spec.Ack
	} else {
		// The task list always spans the FULL graph, even when this process
		// is a distributed coordinator running only a slice of it: remote
		// workers' acknowledgements are forwarded into this coordinator, and
		// a checkpoint completes only once every instance everywhere has
		// acked.
		var tasks []string
		for _, n := range env.nodes {
			for inst := 0; inst < n.parallelism; inst++ {
				tasks = append(tasks, taskID(n, inst))
			}
		}
		ck.coord = checkpoint.NewCoordinator(spec.Store, fp, tasks, ck.base)
		ck.coord.OnError = env.fail
		ck.coord.OnComplete = env.onCheckpointComplete
		ck.ack = ck.coord
	}
	ck.requested.Store(ck.base)
	env.ckpt.Store(ck)
	return nil
}

// onCheckpointComplete publishes every completed checkpoint to the tracing
// and metrics planes and logs it. Invoked by the coordinator with its lock
// held — it must not call back into the coordinator.
func (env *Environment) onCheckpointComplete(st checkpoint.Stat) {
	if ckr := env.ckpt.Load(); ckr != nil && ckr.durHist != nil {
		ckr.durHist.Record(st.Duration.Nanoseconds())
	}
	if tr := env.cfg.Trace; tr != nil {
		end := st.CompletedAt.UnixNano()
		tr.Add(trace.Span{
			Trace: uint64(st.ID), Kind: trace.KindBarrier,
			Name:    fmt.Sprintf("checkpoint-%d", st.ID),
			StartNs: end - st.Duration.Nanoseconds(), DurNs: st.Duration.Nanoseconds(),
		})
	}
	if l := env.cfg.Log; l != nil {
		l.Debug("asp: checkpoint complete",
			"id", st.ID, "duration", st.Duration,
			"align_pause", st.AlignPause, "bytes", st.Bytes, "tasks", st.Tasks)
	}
}
