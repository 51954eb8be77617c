package asp

import (
	"context"
	"errors"
	"fmt"
	"math"
	"runtime/debug"
	"sync"
	"sync/atomic"
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/trace"
)

// ErrStateBudget reports that the configured MaxOperatorState was exceeded.
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
	done    <-chan struct{}
	aborted bool
	lastWM  event.Time
	// obsOp instruments this instance when a metrics registry is attached
	// (asp.Config.Metrics); nil otherwise — every instrumentation site
	// nil-checks it, keeping the un-observed path at a pointer comparison.
	obsOp *obs.OperatorMetrics
	// cur/curSet track the data record currently inside OnRecord (or being
	// emitted by a source), so the instance's panic-recovery wrapper can
	// attribute a failure to the offending record. cur points at the
	// instance loop's record variable — valid whenever curSet is true, and
	// only read by guard on the same goroutine after a panic.
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
	// escape to the heap through every partitioner and edge filter call.
	built Record
}

type edgeSender struct {
	e     *edge
	srcID uint16
	// forwardTo pins the downstream instance for nil-partitioner edges
	// (stateless forwarding preserves the upstream partitioning).
	forwardTo int
	// obsEdge mirrors e.obs, cached to avoid the pointer chase per send.
	obsEdge *obs.EdgeMetrics
	// pending accumulates one partial batch per target channel; a batch is
	// transferred whole when it reaches Config.BatchSize, when a barrier or
	// EOS marker is appended, and on idle/timer flushes.
	pending [][]Record
}

// Emit sends a data record downstream, copying it into each edge's pending
// batch. *r is never written, so an operator may forward the record OnRecord
// lent it.
func (c *Collector) Emit(r *Record) {
	if c.aborted {
		return
	}
	c.out++
	stamp := r.TraceNs
	if c.tracer != nil {
		stamp = c.traceStamp(r)
	}
	for i := range c.senders {
		s := &c.senders[i]
		if s.e.filter != nil && r.Kind == KindEvent && !s.e.filter(r.Events()) {
			continue // chained selection: dropped before the channel hop
		}
		target := s.forwardTo
		if s.e.partition != nil {
			target = s.e.partition(r, len(s.e.chans))
		}
		if !c.push(s, target, r, stamp) {
			return
		}
	}
}

// settle adds the instance-local record counts to the shared counters — the
// node's, the registry's when one is attached, the environment's match
// count: at every batch hand-off, after every consumed batch and when the
// instance exits, however it exits. It is the only writer of In, Out and
// Late on either side, so NodeMetrics and the registry cannot disagree.
func (c *Collector) settle() {
	om := c.obsOp
	if c.in != 0 {
		c.metrics.In.Add(c.in)
		if om != nil {
			om.In.Add(c.in)
		}
		c.in = 0
	}
	if c.out != 0 {
		c.metrics.Out.Add(c.out)
		if om != nil {
			om.Out.Add(c.out)
		}
		c.out = 0
	}
	if c.late != 0 {
		om.Late.Add(c.late) // only tallied under a registry
		c.late = 0
	}
	if c.matches != 0 {
		c.env.matchesEmitted.Add(c.matches)
		c.matches = 0
	}
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
// instance. Like watermarks and EOS markers, barriers bypass edge filters
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

// NodeStats returns the metrics of every node, in construction order.
func (env *Environment) NodeStats() []*NodeMetrics {
	out := make([]*NodeMetrics, len(env.nodes))
	for i, n := range env.nodes {
		out[i] = n.metrics
	}
	return out
}

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
	done := ctx.Done()

	if err := env.setupCheckpointing(); err != nil {
		return err
	}

	// Bounded-state execution: the admission gate and heap controller
	// exist only when overload is configured, keeping ordinary runs at
	// nil comparisons.
	ov := env.cfg.Overload
	if ov.Budget.Enabled() || ov.Memory.SoftLimitBytes > 0 {
		if env.gate == nil {
			env.gate = new(overload.Gate)
		}
		env.memCtl = overload.NewController(ov.Memory, env.gate)
		env.memCtl.Start()
		defer env.memCtl.Stop()
	}

	// Allocate input channels and sender ID ranges. Channels carry whole
	// batches; their capacity is kept at ~ChannelCapacity records by sizing
	// them in batches.
	chanCap := maxIntExec(1, env.cfg.ChannelCapacity/env.cfg.BatchSize)
	type nodeRuntime struct {
		in   []chan []Record
		nSrc int
		// queued counts records buffered across this node's input channels
		// (allocated only when a metrics registry is attached).
		queued *atomic.Int64
	}
	rts := make([]nodeRuntime, len(env.nodes))
	for i, n := range env.nodes {
		rt := &rts[i]
		if len(n.inEdges) > 0 {
			rt.in = make([]chan []Record, n.parallelism)
			for j := range rt.in {
				rt.in[j] = make(chan []Record, chanCap)
			}
		}
		for _, e := range n.inEdges {
			e.srcBase = rt.nSrc
			rt.nSrc += e.from.parallelism
			e.chans = rt.in
		}
	}

	// Attach the observability registry: one handle per operator instance,
	// one per edge with a live queue-depth probe over the receiver channels.
	// The registry is reset first so a long-lived registry (live HTTP
	// endpoint across runs) always describes the executing graph.
	reg := env.cfg.Metrics
	var obsOps [][]*obs.OperatorMetrics
	if reg != nil {
		reg.ResetGraph()
		// Job-level overload counters are pulled from the environment at
		// snapshot time, so /metrics and /cluster/metrics expose shed
		// totals, peak state and the live recall estimate while running.
		armed := ov.Budget.Enabled() || ov.Memory.SoftLimitBytes > 0
		reg.SetOverloadSource(func() obs.OverloadStats {
			return obs.OverloadStats{
				Armed:          armed,
				ShedRecords:    env.shedRecords.Load(),
				PeakState:      env.peakState.Load(),
				Matches:        env.matchesEmitted.Load(),
				LostBound:      env.LostMatchBound(),
				RecallEstimate: env.RecallEstimate(),
			}
		})
		obsOps = make([][]*obs.OperatorMetrics, len(env.nodes))
		for i, n := range env.nodes {
			obsOps[i] = make([]*obs.OperatorMetrics, n.parallelism)
			for inst := 0; inst < n.parallelism; inst++ {
				obsOps[i][inst] = reg.Operator(n.name, inst)
			}
		}
		for i, n := range env.nodes {
			to := n.name
			if len(n.inEdges) > 0 {
				rts[i].queued = new(atomic.Int64)
			}
			for _, e := range n.inEdges {
				// Channels hold batches, so len(chan) no longer measures
				// records; senders and receivers maintain a shared record
				// counter instead. Both updates trail their channel operation,
				// so it may transiently dip below zero (a batch drained before
				// its sender's increment lands) or pass the capacity (a batch
				// sent before the receiver's decrement for the previous one
				// lands), hence the clamps.
				e.queued = rts[i].queued
				q := rts[i].queued
				capacity := chanCap * env.cfg.BatchSize * len(e.chans)
				e.obs = reg.Edge(e.from.name, to, capacity, func() int {
					return min(max(int(q.Load()), 0), capacity)
				})
			}
		}
	}

	// Barrier/checkpoint observability: named histograms for barrier
	// propagation, alignment stall and checkpoint duration, exported through
	// the registry alongside the operator metrics.
	if ckr := env.ckpt.Load(); ckr != nil && reg != nil {
		ckr.propHist = new(obs.Histogram)
		ckr.alignHist = new(obs.Histogram)
		ckr.durHist = new(obs.Histogram)
		reg.RegisterHistogram("barrier_propagation", ckr.propHist)
		reg.RegisterHistogram("barrier_alignment", ckr.alignHist)
		reg.RegisterHistogram("checkpoint_duration", ckr.durHist)
	}

	if l := env.cfg.Log; l != nil {
		l.Debug("asp: executing graph",
			"nodes", len(env.nodes), "batch", env.cfg.BatchSize,
			"distributed", env.cfg.Dist != nil)
	}

	// The environment-wide batch buffer pool; hit/miss counters are
	// published through the registry when one is attached.
	pool := newBatchPool(env.cfg.BatchSize, reg.Pool("batch"))

	newCollector := func(n *node) func(instance int) *Collector {
		return func(instance int) *Collector {
			c := &Collector{
				env: env, metrics: n.metrics, done: done,
				lastWM: event.MinWatermark,
				batch:  env.cfg.BatchSize, pool: pool,
				node: n.name, instance: instance,
				tracer: env.cfg.Trace,
			}
			if obsOps != nil {
				c.obsOp = obsOps[n.id][instance]
			}
			if ov.Budget.Enabled() {
				c.budgeted = true
				c.failPolicy = ov.Policy == overload.Fail
				c.perOp = ov.Budget.PerOperator
				c.perJob = ov.Budget.PerJob
			}
			for _, e := range n.outEdges {
				c.senders = append(c.senders, edgeSender{
					e:         e,
					srcID:     uint16(e.srcBase + instance),
					forwardTo: instance % maxIntExec(1, e.to.parallelism),
					obsEdge:   e.obs,
					pending:   make([][]Record, len(e.chans)),
				})
			}
			return c
		}
	}

	// Distributed splicing. Every worker builds the identical graph; the
	// placement function decides which instances run here. Remote-owned
	// instances fed by at least one local sender get their input channel
	// replaced by a proxy channel (visible to senders through the aliased
	// e.chans slices) drained by an egress pump that hands batches to the
	// transport; locally-owned instances register their input channel as a
	// network ingress so remote senders' frames are delivered into it.
	// Watermarks, barriers and EOS markers ride along unchanged.
	dist := env.cfg.Dist
	localInst := func(n *node, inst int) bool {
		return dist == nil || dist.Owner(n.name, inst) == dist.Worker
	}
	var wg sync.WaitGroup
	var live []*liveInstance
	if dist != nil {
		for i, n := range env.nodes {
			rt := &rts[i]
			if len(n.inEdges) == 0 {
				continue
			}
			// Local sender instances feeding this node, counted per edge:
			// each one delivers exactly one EOS marker per target instance,
			// which is how an egress pump knows its local upstreams are done.
			localSenders := 0
			for _, e := range n.inEdges {
				for s := 0; s < e.from.parallelism; s++ {
					if localInst(e.from, s) {
						localSenders++
					}
				}
			}
			for t := 0; t < n.parallelism; t++ {
				owner := dist.Owner(n.name, t)
				if owner == dist.Worker {
					dist.Transport.Ingress(n.name, n.id, t, rt.in[t], rt.queued)
					continue
				}
				if localSenders == 0 {
					continue // nothing local ever writes to this input
				}
				send, err := dist.Transport.Egress(owner, n.name, n.id, t)
				if err != nil {
					return fmt.Errorf("asp: no egress to worker %d for %s/%d: %w", owner, n.name, t, err)
				}
				proxy := make(chan []Record, chanCap)
				rt.in[t] = proxy
				wg.Add(1)
				ir := &liveInstance{task: fmt.Sprintf("net:%s/%d>w%d", n.name, t, owner)}
				live = append(live, ir)
				nq := rt.queued
				go func(n *node, t, expect int, ir *liveInstance) {
					defer wg.Done()
					defer ir.done.Store(true)
					eos := 0
					for eos < expect {
						select {
						case batch := <-proxy:
							for _, r := range batch {
								if r.Kind == KindEOS {
									eos++
								}
							}
							err := send(batch)
							if nq != nil {
								nq.Add(int64(-len(batch)))
							}
							pool.put(batch)
							if err != nil {
								env.fail(&NetworkFailure{Node: n.name, Target: t, Worker: owner, Err: err})
								return
							}
						case <-done:
							return
						}
					}
				}(n, t, localSenders, ir)
			}
		}
	}

	// Every instance goroutine runs under a panic-recovery guard that
	// converts a panic in operator or user code into a structured
	// OperatorFailure and cancels the run, draining the rest of the graph
	// through the shared done channel instead of crashing the process. The
	// liveness flags let a shutdown deadline name instances that refuse to
	// drain.
	for i, n := range env.nodes {
		rt := &rts[i]
		mkCol := newCollector(n)
		for inst := 0; inst < n.parallelism; inst++ {
			if !localInst(n, inst) {
				continue
			}
			wg.Add(1)
			ir := &liveInstance{task: taskID(n, inst)}
			live = append(live, ir)
			if n.source != nil {
				go func(n *node, inst int, ir *liveInstance) {
					defer wg.Done()
					defer ir.done.Store(true)
					col := mkCol(inst)
					defer guard(env, n, inst, true, col)
					defer col.settle()
					runSource(env, n, inst, col)
				}(n, inst, ir)
			} else {
				go func(n *node, inst int, in chan []Record, nSrc int, nq *atomic.Int64, ir *liveInstance) {
					defer wg.Done()
					defer ir.done.Store(true)
					col := mkCol(inst)
					defer guard(env, n, inst, false, col)
					defer col.settle()
					runInstance(env, n, inst, in, nSrc, nq, col, done)
				}(n, inst, rt.in[inst], rt.nSrc, rt.queued, ir)
			}
		}
	}

	// Periodic checkpoint triggering: one checkpoint in flight at a time;
	// the ticker simply retries while the previous one completes.
	var tickerDone, tickerStop chan struct{}
	if spec := env.cfg.Checkpoint; spec != nil && spec.Interval > 0 {
		tickerDone = make(chan struct{})
		tickerStop = make(chan struct{})
		go func() {
			defer close(tickerDone)
			ticker := time.NewTicker(spec.Interval)
			defer ticker.Stop()
			for {
				select {
				case <-ticker.C:
					env.TriggerCheckpoint()
				case <-done:
					return
				case <-tickerStop:
					return
				}
			}
		}()
	}
	// Wait for the dataflow, bounding teardown by the shutdown deadline:
	// once the run is cancelled or fails, a wedged instance (stuck in user
	// code, a chaos stall) must not hang Execute forever — after the
	// deadline the stuck goroutines are abandoned and named in the error.
	waitDone := make(chan struct{})
	go func() { wg.Wait(); close(waitDone) }()
	var stuck *ErrShutdownTimeout
	select {
	case <-waitDone:
	case <-done:
		if to := env.cfg.ShutdownTimeout; to > 0 {
			timer := time.NewTimer(to)
			select {
			case <-waitDone:
				timer.Stop()
			case <-timer.C:
				var names []string
				for _, ir := range live {
					if !ir.done.Load() {
						names = append(names, ir.task)
					}
				}
				stuck = &ErrShutdownTimeout{Timeout: to, Stuck: names, Cause: context.Cause(ctx)}
				if l := env.cfg.Log; l != nil {
					l.Warn("asp: shutdown deadline exceeded, abandoning stuck instances",
						"timeout", to, "stuck", names)
				}
			}
		} else {
			<-waitDone
		}
	}
	if tickerDone != nil {
		close(tickerStop)
		<-tickerDone
	}
	if stuck != nil {
		return stuck
	}

	// A non-nil cause is either a failure raised through env.fail (state
	// budget, isolated panic, snapshot error) or the parent context's
	// cancellation; normal completion never cancels before this point.
	if cause := context.Cause(ctx); cause != nil {
		return cause
	}
	return nil
}

// liveInstance tracks one instance goroutine's liveness for the shutdown
// deadline's stuck-instance report.
type liveInstance struct {
	task string
	done atomic.Bool
}

// guard is deferred around every instance goroutine: it converts a panic
// into a structured OperatorFailure — attributed to the record under
// processing when one is — and fails the run, which drains the remaining
// instances cleanly via cancellation.
func guard(env *Environment, n *node, inst int, source bool, col *Collector) {
	p := recover()
	if p == nil {
		return
	}
	f := &OperatorFailure{
		Node:     n.name,
		Instance: inst,
		Task:     taskID(n, inst),
		Source:   source,
		Panic:    p,
		Stack:    debug.Stack(),
	}
	if col.curSet && col.cur != nil {
		f.RecordSummary = summarize(col.cur)
		f.RecordKey = poisonKey(col.cur)
	}
	env.fail(f)
}

func maxIntExec(a, b int) int {
	if a > b {
		return a
	}
	return b
}

// setupCheckpointing builds the coordinator and, when requested, loads the
// snapshot to restore. Called by Execute before the dataflow starts.
func (env *Environment) setupCheckpointing() error {
	spec := env.cfg.Checkpoint
	if spec == nil {
		return nil
	}
	fp := env.fingerprint()
	if spec.Ack != nil {
		// Remote (distributed-worker) mode: acknowledgements are forwarded
		// to the coordinator process; completion is decided there. Restores
		// come from the snapshot shipped in the job spec, not a store.
		ck := &ckptRuntime{ack: spec.Ack}
		if spec.Snapshot != nil {
			if spec.Snapshot.Fingerprint != fp {
				return fmt.Errorf("asp: shipped snapshot %d was taken on a different graph", spec.Snapshot.ID)
			}
			ck.restored = spec.Snapshot
			ck.base = spec.Snapshot.ID
		}
		ck.requested.Store(ck.base)
		env.ckpt.Store(ck)
		return nil
	}
	if spec.Store == nil {
		return errors.New("asp: checkpoint spec has no store")
	}
	// The task list always spans the FULL graph, even when this process is
	// a distributed coordinator running only a slice of it: remote workers'
	// acknowledgements are forwarded into this coordinator, and a
	// checkpoint completes only once every instance everywhere has acked.
	var tasks []string
	for _, n := range env.nodes {
		for inst := 0; inst < n.parallelism; inst++ {
			tasks = append(tasks, taskID(n, inst))
		}
	}
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
	ck.coord = checkpoint.NewCoordinator(spec.Store, fp, tasks, ck.base)
	ck.coord.OnError = env.fail
	ck.coord.OnComplete = env.onCheckpointComplete
	ck.ack = ck.coord
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

// sourceState is the serialized state of a source instance: the offset of
// the next event to emit and the maximum event time seen, so replayed
// watermarks keep the same disorder bound.
type sourceState struct {
	Offset int
	MaxTS  event.Time
}

func runSource(env *Environment, n *node, inst int, col *Collector) {
	events := n.source.events[inst]
	interval := env.cfg.WatermarkInterval
	maxTS := event.MinWatermark
	start := 0
	ck := env.ckpt.Load()
	var task string
	var lastBarrier int64
	if ck != nil {
		task = taskID(n, inst)
		lastBarrier = ck.base
		if ck.restored != nil {
			if data := ck.restored.Tasks[task]; len(data) > 0 {
				var st sourceState
				if err := gobDecode(data, &st); err != nil {
					env.fail(fmt.Errorf("asp: restoring source %s: %w", task, err))
					return
				}
				start, maxTS = st.Offset, st.MaxTS
				if start > len(events) {
					start = len(events)
				}
			}
		}
	}
	// snapshotAt serializes the source position with offset events emitted.
	snapshotAt := func(offset int) []byte {
		data, err := gobEncode(sourceState{Offset: offset, MaxTS: maxTS})
		if err != nil {
			env.fail(fmt.Errorf("asp: snapshotting source %s: %w", task, err))
		}
		return data
	}
	// Fault-injection point and quarantined key set for this instance; both
	// are nil in ordinary runs, keeping the per-event overhead at two
	// pointer comparisons.
	pt := env.cfg.Chaos.Point(n.name, inst)
	qkeys := env.cfg.Quarantine.keysFor(n.name)
	// stamp is the ingest time given to emitted events, from the source's
	// last clock reading. A paced source reads the clock for every event
	// anyway (and again after it slept); a full-speed source reads it after
	// every batch hand-off — which may have blocked on backpressure — and at
	// least every BatchSize events.
	var stamp int64
	var pace func(i int)
	if rate := n.source.ratePerSec; rate > 0 {
		startAt := time.Now()
		perEvent := float64(time.Second) / rate
		pace = func(i int) {
			due := startAt.Add(time.Duration(float64(i) * perEvent))
			now := time.Now()
			if d := due.Sub(now); d > 0 {
				// Idle flush: a paced source must not sit on a partial
				// batch while downstream waits for it.
				if !col.flush() {
					return
				}
				select {
				case <-time.After(d):
					now = time.Now()
				case <-col.done:
					col.aborted = true
				}
			}
			stamp = now.UnixNano()
		}
	}
	// gate is the overload admission switch (Pause policy / heap
	// controller); nil on ordinary runs — one pointer comparison per event.
	gate := env.gate
	emitted := 0
	// readHandoffs/readAt are col.handoffs and emitted at the last clock
	// reading of a full-speed source; -1 forces a reading.
	readHandoffs, readAt := -1, 0
	// rec is hoisted so panic attribution can point at it without copying
	// the record on every emit.
	var rec Record
	col.cur = &rec
	for i := start; i < len(events); i++ {
		if gate != nil && gate.Paused() {
			// Intake is suspended: trickle instead of halting outright —
			// watermarks must keep advancing or downstream state would
			// never drain and the pause would deadlock. One short sleep
			// per event throttles the source by ~3 orders of magnitude.
			if !col.flush() {
				return
			}
			select {
			case <-time.After(time.Millisecond):
				readHandoffs = -1
			case <-col.done:
				col.aborted = true
				return
			}
		}
		if ck != nil {
			// Barrier injection: snapshot the replay position, ack the
			// coordinator and emit the barrier before the next event, so
			// everything before the barrier is pre-checkpoint.
			if id := ck.requested.Load(); id > lastBarrier {
				lastBarrier = id
				ck.ack.Ack(id, task, snapshotAt(i), 0)
				col.forwardBarrier(id)
				if col.aborted {
					return
				}
			}
		}
		// Filled field by field: a whole-Record assignment goes through a
		// temporary, one more copy per event.
		rec.Event = events[i]
		e := &rec.Event
		rec.TS, rec.TraceNs = e.TS, 0
		if pace != nil {
			pace(emitted)
			if col.aborted {
				return
			}
		} else if n.source.stampIngest && (col.handoffs != readHandoffs || emitted-readAt >= col.batch) {
			stamp, readHandoffs, readAt = time.Now().UnixNano(), col.handoffs, emitted
		}
		emitted++
		if n.source.stampIngest {
			e.Ingest = stamp
		}
		if qkeys != nil {
			// Quarantined records leave the stream here, before they can
			// advance the watermark — the replayed run behaves as if the
			// poison event never existed.
			if k := poisonKey(&rec); hasQuarantined(qkeys, k) {
				if cb := env.cfg.Quarantine.OnDrop; cb != nil {
					cb(n.name, inst, k, summarize(&rec))
				}
				continue
			}
		}
		if e.TS > maxTS {
			maxTS = e.TS
			// Publish the stream-wide max event time: the reference point
			// for every operator's watermark lag (nil-safe, no-op when no
			// metrics registry is attached).
			col.obsOp.ObserveEventTime(int64(e.TS))
		}
		if tr := col.tracer; tr != nil {
			// Deterministic sampling decision: the same event is sampled in
			// every run and on every worker, so traces stay reproducible.
			if id, ok := tr.Sample(*e); ok {
				rec.TraceNs = time.Now().UnixNano()
				tr.Add(trace.Span{
					Trace: id, Kind: trace.KindSource,
					Name: n.name, Instance: inst, StartNs: rec.TraceNs,
				})
			}
		}
		col.curSet = true
		if pt != nil {
			var k string
			if pt.NeedKey {
				k = poisonKey(&rec)
			}
			pt.Hit(k)
		}
		col.Emit(&rec)
		col.curSet = false
		if col.aborted {
			return
		}
		if (i+1)%interval == 0 {
			// The watermark trails the maximum seen event time by the
			// source's disorder bound (zero for time-ordered streams).
			col.forwardWatermark(sourceWatermark(maxTS, n.source.lateness))
			if col.aborted {
				return
			}
		}
	}
	if ck != nil {
		if id := ck.requested.Load(); id > lastBarrier {
			ck.ack.Ack(id, task, snapshotAt(len(events)), 0)
			col.forwardBarrier(id)
			if col.aborted {
				return
			}
		}
		ck.ack.FinishTask(task, snapshotAt(len(events)))
	}
	col.eos()
}

// sourceWatermark computes the watermark a source may emit after seeing a
// maximum event time of maxTS under the given disorder bound: maxTS -
// lateness - 1, saturating at MinWatermark instead of wrapping around when
// no event has been seen yet (maxTS == event.MinWatermark, e.g. a source
// restored from a pre-first-event checkpoint) or when maxTS sits near the
// bottom of the time domain. A wrapped watermark would jump ahead of every
// event time and fire all downstream windows prematurely.
func sourceWatermark(maxTS, lateness event.Time) event.Time {
	wm := maxTS - lateness - 1
	if wm > maxTS { // int64 underflow wrapped around
		return event.MinWatermark
	}
	return wm
}

func runInstance(env *Environment, n *node, inst int, in chan []Record, nSrc int, nq *atomic.Int64, col *Collector, done <-chan struct{}) {
	op := n.newOp(inst)
	// Fault-injection point and quarantined key set for this instance; both
	// are nil in ordinary runs (two pointer comparisons per data record).
	pt := env.cfg.Chaos.Point(n.name, inst)
	qkeys := env.cfg.Quarantine.keysFor(n.name)
	// acct feeds the per-operator state gauges (Partials, StateBytes)
	// after every watermark; checkState enforces the Shed/Pause overload
	// policies after every record and watermark. Both are nil on ordinary
	// runs — one nil comparison each on the hot path.
	acct, _ := op.(StateAccountant)
	var checkState func()
	if ov := env.cfg.Overload; ov.Budget.Enabled() && ov.Policy != overload.Fail {
		perOp, perJob := ov.Budget.PerOperator, ov.Budget.PerJob
		lw := ov.Budget.EffectiveLowWater()
		switch ov.Policy {
		case overload.Shed:
			shedder, canShed := op.(Shedder)
			valueShedder, canValue := op.(ValueShedder)
			stratSetter, canArm := op.(ShedStrategySetter)
			if ss, ok := op.(SelfShedder); ok {
				// Operators whose state can multiply within a single call
				// (the NFA under skip-till-any-match) cap themselves at
				// insertion time; post-call checks cannot bound that growth.
				eff := perOp
				if eff <= 0 || (perJob > 0 && perJob < eff) {
					eff = perJob
				}
				if eff > 0 {
					ss.SetStateBudget(eff, int64(lw*float64(eff)), col.recordShed)
				}
			}
			// The live strategy may be switched mid-run by a quality
			// controller; syncStrategy observes the change on this
			// instance's own goroutine, arming or disarming the operator's
			// scoring structures exactly once per flip.
			armed := false
			syncStrategy := func() bool {
				aware := env.ShedStrategy() == overload.PatternAware
				if canArm && aware != armed {
					stratSetter.SetShedStrategy(aware)
					armed = aware
				}
				return aware
			}
			syncStrategy()
			shed := func(target int64, aware bool) int64 {
				if aware && canValue {
					return valueShedder.ShedLowestValue(target, col)
				}
				return shedder.ShedOldest(target, col)
			}
			failOver := func(records, budget int64, perJobScope bool) {
				env.fail(&BudgetExceededError{
					Node: n.name, Instance: inst,
					Records: records, Budget: budget, PerJob: perJobScope,
				})
				col.aborted = true
			}
			checkState = func() {
				aware := syncStrategy()
				if perOp > 0 && col.instState >= perOp {
					if !canShed {
						failOver(col.instState, perOp, false)
						return
					}
					col.recordShed(shed(int64(lw*float64(perOp)), aware))
				}
				if perJob <= 0 || col.instState == 0 {
					return
				}
				if total := env.totalState.Load(); total >= perJob {
					if !canShed {
						failOver(total, perJob, true)
						return
					}
					// The noticing instance sheds the job-wide excess from
					// its own state (it cannot reach the others'); every
					// stateful instance runs this check, so pressure lands
					// where state actually sits.
					target := col.instState - (total - int64(lw*float64(perJob)))
					if target < 0 {
						target = 0
					}
					col.recordShed(shed(target, aware))
				}
			}
		case overload.Pause:
			gate := env.gate
			lowOp := int64(lw * float64(perOp))
			lowJob := int64(lw * float64(perJob))
			raised := false
			checkState = func() {
				if !raised {
					if (perOp > 0 && col.instState >= perOp) ||
						(perJob > 0 && env.totalState.Load() >= perJob) {
						raised = true
						gate.Raise()
					}
					return
				}
				if (perOp <= 0 || col.instState <= lowOp) &&
					(perJob <= 0 || env.totalState.Load() <= lowJob) {
					raised = false
					gate.Lower()
				}
			}
			defer func() {
				if raised {
					gate.Lower()
				}
			}()
		}
	}
	// Stateful window operators cannot tolerate data records at or below
	// their merged watermark (they would re-open fired windows); the engine
	// drops such over-disordered records at the operator's input.
	_, dropLate := op.(LateDropper)
	ck := env.ckpt.Load()
	var task string
	if ck != nil {
		task = taskID(n, inst)
		if ck.restored != nil {
			if data := ck.restored.Tasks[task]; len(data) > 0 {
				s, ok := op.(Snapshotter)
				if !ok {
					env.fail(fmt.Errorf("asp: snapshot carries state for non-snapshottable %s", task))
					return
				}
				if err := s.RestoreState(data); err != nil {
					env.fail(fmt.Errorf("asp: restoring %s: %w", task, err))
					return
				}
				if sc, ok := op.(StateCounter); ok {
					col.AddState(sc.BufferedState())
				}
			}
		}
	}
	holder, _ := op.(WatermarkHolder)
	wms := make([]event.Time, maxIntExec(nSrc, 1))
	for i := range wms {
		wms[i] = event.MinWatermark
	}
	finished := make([]bool, maxIntExec(nSrc, 1))
	remaining := nSrc
	curWM := event.MinWatermark
	// om is nil without a metrics registry. With one, the instance reads the
	// clock around each consumed batch and around each OnWatermark call —
	// never around a record: wmNs is the OnWatermark time inside the batch
	// under way, which the batch's data time excludes.
	om := col.obsOp
	var wmNs int64

	advance := func(src uint16, wm event.Time) {
		if wm <= wms[src] {
			return
		}
		wms[src] = wm
		min := wms[0]
		for _, w := range wms[1:] {
			if w < min {
				min = w
			}
		}
		if min > curWM {
			curWM = min
			if om != nil {
				t0 := time.Now()
				op.OnWatermark(curWM, col)
				wmNs += time.Since(t0).Nanoseconds()
			} else {
				op.OnWatermark(curWM, col)
			}
			if checkState != nil {
				checkState()
			}
			if acct != nil && om != nil {
				// Publish the state gauges on watermark cadence: often
				// enough for /debug/topology to show hotspots, cheap
				// enough to stay off the per-record path.
				st := acct.StateStats()
				om.Partials.Store(st.Records)
				om.StateBytes.Store(st.Bytes)
			}
			fw := curWM
			if holder != nil {
				if h := holder.Hold(); h < fw {
					fw = h
				}
			}
			col.forwardWatermark(fw)
		}
	}

	// Aligned-barrier checkpointing state. While a checkpoint is aligning,
	// records from senders whose barrier already arrived are stashed and
	// replayed after the snapshot, so the captured state reflects exactly
	// the pre-barrier prefix of every input. A sender's EOS counts as its
	// barrier for the current and all future checkpoints.
	var (
		alignID    int64 // checkpoint being aligned; 0 = none
		alignGot   []bool
		alignStart time.Time
		stash      []Record
	)
	if ck != nil {
		alignGot = make([]bool, maxIntExec(nSrc, 1))
	}
	aligned := func() bool {
		for s := 0; s < nSrc; s++ {
			if !alignGot[s] && !finished[s] {
				return false
			}
		}
		return true
	}
	completeAlignment := func() {
		var data []byte
		if s, ok := op.(Snapshotter); ok {
			t0 := time.Now()
			var err error
			data, err = s.SnapshotState()
			if err != nil {
				env.fail(fmt.Errorf("asp: snapshotting %s: %w", task, err))
				col.aborted = true
				return
			}
			n.metrics.Ckpts.Add(1)
			n.metrics.CkptBytes.Add(int64(len(data)))
			n.metrics.CkptNanos.Add(time.Since(t0).Nanoseconds())
		}
		pause := time.Since(alignStart)
		ck.ack.Ack(alignID, task, data, pause)
		if ck.alignHist != nil {
			ck.alignHist.Record(pause.Nanoseconds())
		}
		if col.tracer != nil {
			col.tracer.Add(trace.Span{
				Trace: uint64(alignID), Kind: trace.KindBarrier,
				Name: "align:" + n.name, Instance: inst,
				StartNs: alignStart.UnixNano(), DurNs: pause.Nanoseconds(),
			})
		}
		col.forwardBarrier(alignID)
		alignID = 0
	}
	maybeAlign := func() {
		if alignID != 0 && aligned() {
			completeAlignment()
		}
	}

	// process handles one in-order record; it returns false when the
	// instance is done (all inputs exhausted or the run aborted). It takes a
	// pointer so panic attribution and the fault/quarantine checks avoid
	// copying the record on the hot path.
	process := func(r *Record) bool {
		switch r.Kind {
		case KindEOS:
			remaining--
			finished[r.Src] = true
			advance(r.Src, event.MaxWatermark)
			if ck != nil {
				maybeAlign()
			}
			if remaining == 0 {
				// No stashed record can remain here: a sender's EOS is
				// stashed, not processed, while that sender is aligned.
				op.OnClose(col)
				col.forwardWatermark(event.MaxWatermark)
				if ck != nil {
					// Post-flush state is the task's implicit ack for all
					// future checkpoints (nil for stateless operators).
					var final []byte
					if s, ok := op.(Snapshotter); ok {
						var err error
						if final, err = s.SnapshotState(); err != nil {
							env.fail(fmt.Errorf("asp: snapshotting finished %s: %w", task, err))
							col.aborted = true
							return false
						}
					}
					ck.ack.FinishTask(task, final)
				}
				col.eos()
				return false
			}
		case KindWatermark:
			advance(r.Src, r.TS)
		case KindBarrier:
			if ck == nil {
				return true
			}
			if r.TraceNs != 0 {
				// Barrier propagation latency: sender's forwardBarrier stamp
				// to receipt here, covering queue wait (and the network hop
				// on spliced edges).
				if d := time.Now().UnixNano() - r.TraceNs; d >= 0 {
					if ck.propHist != nil {
						ck.propHist.Record(d)
					}
					if col.tracer != nil {
						col.tracer.Add(trace.Span{
							Trace: uint64(r.TS), Kind: trace.KindBarrier,
							Name: "barrier:" + n.name, Instance: inst,
							StartNs: r.TraceNs, DurNs: d,
						})
					}
				}
			}
			if alignID == 0 {
				alignID = r.TS
				alignStart = time.Now()
				for i := range alignGot {
					alignGot[i] = false
				}
			}
			if r.TS == alignID {
				alignGot[r.Src] = true
				maybeAlign()
			}
		default:
			if qkeys != nil {
				if k := poisonKey(r); hasQuarantined(qkeys, k) {
					if cb := env.cfg.Quarantine.OnDrop; cb != nil {
						cb(n.name, inst, k, summarize(r))
					}
					return true
				}
			}
			// Track the record under processing so a panic inside OnRecord
			// (or an injected fault) is attributed to it.
			col.cur, col.curSet = r, true
			if pt != nil {
				var k string
				if pt.NeedKey {
					k = poisonKey(r)
				}
				pt.Hit(k)
			}
			col.in++
			late := r.TS <= curWM
			if late && col.obsOp != nil {
				// Arrived at or below the merged watermark: over-disordered
				// input (or a restore/replay race).
				col.late++
			}
			if late && dropLate {
				// A late data record would move the operator's window
				// bookkeeping (nextFire) below windows that already fired,
				// duplicating or losing firings. The Late counter above is
				// the drop count.
				col.curSet = false
				return true
			}
			if r.Kind == KindMatch && len(col.senders) == 0 {
				// A match reaching a terminal node is a detected match;
				// the count feeds the live recall estimate.
				col.matches++
			}
			if col.obsOp != nil {
				col.reached++
			}
			if col.tracer != nil && r.TraceNs != 0 {
				// A sampled record keeps a clock pair of its own for its span;
				// its time is part of the batch's like any other record's.
				t0 := time.Now()
				op.OnRecord(int(r.Port), r, col)
				d := time.Since(t0).Nanoseconds()
				start := t0.UnixNano()
				q := start - r.TraceNs
				if q < 0 {
					q = 0
				}
				col.tracer.Add(trace.Span{
					Trace: traceIDOf(r), Kind: trace.KindOp,
					Name: n.name, Instance: inst,
					StartNs: start, DurNs: d, QueueNs: q,
				})
			} else {
				op.OnRecord(int(r.Port), r, col)
			}
			if checkState != nil {
				checkState()
			}
			col.curSet = false
		}
		return !col.aborted
	}

	// Records are processed in place in the batch buffer: stashing copies
	// them out and panic attribution (col.cur) reads its record before the
	// goroutine unwinds, so the buffer can be recycled right after the loop.
	// The flush timer bounds how long this instance's own partial output
	// batches can age while input keeps arriving.
	flushEvery := env.cfg.FlushTimeout
	var lastFlush time.Time
	if flushEvery > 0 {
		lastFlush = time.Now()
	}
	for {
		var batch []Record
		select {
		case batch = <-in:
		default:
			// Input drained: flush pending output (idle flush) so partial
			// batches and coalesced watermarks never wait on further
			// input, then block.
			if !col.flush() {
				return
			}
			select {
			case batch = <-in:
			case <-done:
				return
			}
		}
		if nq != nil {
			nq.Add(-int64(len(batch)))
		}
		var t0 time.Time
		if om != nil {
			t0 = time.Now()
		}
		more := true
	records:
		for bi := range batch {
			r := &batch[bi]
			if alignID != 0 && alignGot[r.Src] {
				stash = append(stash, *r)
				continue
			}
			if more = process(r); !more {
				break
			}
			// Replay stashed records once the alignment completed. A
			// stashed barrier may start the next alignment mid-replay, in
			// which case records from its already-aligned senders are
			// re-stashed in scan order, preserving per-sender FIFO.
			for alignID == 0 && len(stash) > 0 {
				replay := stash
				stash = nil
				for i := range replay {
					rr := &replay[i]
					if alignID != 0 && alignGot[rr.Src] {
						stash = append(stash, *rr)
						continue
					}
					if more = process(rr); !more {
						break records
					}
				}
			}
		}
		if om != nil {
			// The batch's data time — its wall time less its OnWatermark
			// calls — goes to the records that reached OnRecord in it, at
			// their mean.
			if k := col.reached; k > 0 {
				om.Proc.RecordN((time.Since(t0).Nanoseconds()-wmNs)/k, k)
				col.reached = 0
			}
			if wmNs != 0 {
				om.WatermarkNanos.Add(wmNs)
				wmNs = 0
			}
		}
		col.settle()
		col.pool.put(batch)
		if !more {
			return
		}
		if flushEvery > 0 && time.Since(lastFlush) >= flushEvery {
			if !col.flush() {
				return
			}
			lastFlush = time.Now()
		}
	}
}
