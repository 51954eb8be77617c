package asp

import (
	"fmt"
	"runtime/debug"
	"time"

	"cep2asp/internal/chaos"
	"cep2asp/internal/event"
	"cep2asp/internal/trace"
)

// instance is one running source or operator instance, embedding the
// Collector it emits through. Both kinds share restore, checkpoint, finish
// and record admission; a source is an instance with no inputs, so it is
// always aligned: it injects a barrier where an operator completes an
// alignment.
type instance struct {
	Collector
	n    *node
	task string
	ck   *ckptRuntime // nil without checkpointing
	// snap is what a checkpoint captures: the operator when it is a
	// Snapshotter, pos for a source, nil for a stateless operator.
	snap  Snapshotter
	pt    *chaos.Point        // nil on ordinary runs
	qkeys map[string]struct{} // nil on ordinary runs

	// Operator side. check is the Shed/Pause overload check, nil on ordinary
	// runs; wmNs is the OnWatermark time inside the batch under way, which
	// the batch's data time excludes (registry only).
	op     Operator
	st     State // nil for stateless operators
	holder WatermarkHolder
	check  func()
	input  chan []Record
	box    inbox
	wmNs   int64

	// Source side: the replay position, the last barrier injected, and the
	// record under emission, kept here so panic attribution can point at it.
	pos         sourceState
	lastBarrier int64
	rec         Record
}

// sourceState is the serialized state of a source instance: the offset of
// the next event to emit and the maximum event time seen, so replayed
// watermarks keep the same disorder bound.
type sourceState struct {
	Offset int
	MaxTS  event.Time
}

// SnapshotState and RestoreState make a source's position a Snapshotter.
func (s *sourceState) SnapshotState() ([]byte, error) { return gobEncode(s) }

// RestoreState decodes into a zero state: gob leaves the fields it does not
// carry, the zero ones, as they were.
func (s *sourceState) RestoreState(data []byte) error {
	*s = sourceState{}
	return gobDecode(data, s)
}

// run is the goroutine body of every instance.
func (i *instance) run() {
	defer i.guard()
	defer i.settle()
	if i.n.source != nil {
		i.pos.MaxTS, i.snap = event.MinWatermark, &i.pos
		if i.restore() {
			i.produce()
		}
		return
	}
	i.op = i.n.newOp(i.instance)
	i.st, _ = i.op.(State)
	i.snap, _ = i.op.(Snapshotter)
	i.holder, _ = i.op.(WatermarkHolder)
	var release func()
	if i.check, release = overloadCheck(i.op, i.st, &i.Collector); release != nil {
		defer release()
	}
	if i.restore() {
		i.consume()
	}
}

// guard converts a panic in operator or user code into an OperatorFailure,
// attributed to the record under processing when there is one, and fails
// the run, which drains the rest of the graph through cancellation.
func (i *instance) guard() {
	p := recover()
	if p == nil {
		return
	}
	f := &OperatorFailure{
		Node: i.node, Instance: i.instance, Task: i.task, Source: i.n.source != nil,
		Panic: p, Stack: debug.Stack(),
	}
	if i.curSet && i.cur != nil {
		f.RecordSummary, f.RecordKey = summarize(i.cur), poisonKey(i.cur)
	}
	i.env.fail(f)
}

// restore loads the instance's share of the snapshot being restored, if
// any. It reports false when the run failed.
func (i *instance) restore() bool {
	if i.ck == nil || i.ck.restored == nil {
		return true
	}
	data := i.ck.restored.Tasks[i.task]
	switch {
	case len(data) == 0:
		return true
	case i.snap == nil:
		i.env.fail(fmt.Errorf("asp: snapshot carries state for non-snapshottable %s", i.task))
		return false
	}
	if err := i.snap.RestoreState(data); err != nil {
		i.env.fail(fmt.Errorf("asp: restoring %s: %w", i.task, err))
		return false
	}
	if i.st != nil {
		// Restored units count against the budget as if this run had built
		// them up.
		i.AddState(i.st.StateStats().Records)
	}
	return true
}

// snapshot serializes the instance's state, nil when it has none. It
// reports false, having failed the run, when serializing failed.
func (i *instance) snapshot() ([]byte, bool) {
	if i.snap == nil {
		return nil, true
	}
	data, err := i.snap.SnapshotState()
	if err != nil {
		i.env.fail(fmt.Errorf("asp: snapshotting %s: %w", i.task, err))
		i.aborted = true
		return nil, false
	}
	return data, true
}

// checkpoint snapshots the instance for checkpoint id, acknowledges it and
// forwards the barrier. align is when the instance began aligning the
// barrier; a source, which has nothing to align, passes the zero time.
func (i *instance) checkpoint(id int64, align time.Time) {
	t0 := time.Now()
	data, ok := i.snapshot()
	if !ok {
		return
	}
	if i.snap != nil {
		i.metrics.Ckpts.Add(1)
		i.metrics.CkptBytes.Add(int64(len(data)))
		i.metrics.CkptNanos.Add(time.Since(t0).Nanoseconds())
	}
	var pause time.Duration
	if !align.IsZero() {
		pause = time.Since(align)
		if i.ck.alignHist != nil {
			i.ck.alignHist.Record(pause.Nanoseconds())
		}
		if i.tracer != nil {
			i.tracer.Add(trace.Span{
				Trace: uint64(id), Kind: trace.KindBarrier, Name: "align:" + i.node,
				Instance: i.instance, StartNs: align.UnixNano(), DurNs: pause.Nanoseconds(),
			})
		}
	}
	i.ck.ack.Ack(id, i.task, data, pause)
	i.forwardBarrier(id)
}

// finish ends the instance's output: its final state is the task's implicit
// ack for every later checkpoint, then EOS goes downstream.
func (i *instance) finish() {
	if i.ck != nil {
		final, ok := i.snapshot()
		if !ok {
			return
		}
		i.ck.ack.FinishTask(i.task, final)
	}
	i.eos()
}

// quarantined reports whether r is quarantined, handing it to OnDrop: such a
// record leaves the stream on sight. Callers skip it when qkeys is nil.
func (i *instance) quarantined(r *Record) bool {
	k := poisonKey(r)
	if !hasQuarantined(i.qkeys, k) {
		return false
	}
	if cb := i.env.cfg.Quarantine.OnDrop; cb != nil {
		cb(i.node, i.instance, k, summarize(r))
	}
	return true
}

// hit registers r at the chaos point, which may panic, sleep or stall.
// Callers skip it when pt is nil.
func (i *instance) hit(r *Record) {
	var k string
	if i.pt.NeedKey {
		k = poisonKey(r)
	}
	i.pt.Hit(k)
}

// produce is a source's loop: a barrier before the next event whenever a
// checkpoint was requested, then the event, a watermark every
// WatermarkInterval events, and the final state and EOS at the end.
func (i *instance) produce() {
	n, ck := i.n, i.ck
	events := n.source.events[i.instance]
	interval := i.env.cfg.WatermarkInterval
	start, maxTS := min(i.pos.Offset, len(events)), i.pos.MaxTS
	if ck != nil {
		i.lastBarrier = ck.base
	}
	var startAt time.Time
	var perEvent float64
	if rate := n.source.ratePerSec; rate > 0 {
		startAt, perEvent = time.Now(), float64(time.Second)/rate
	}
	// gate is the overload admission switch (Pause policy / heap
	// controller); nil on ordinary runs.
	gate := i.env.gate
	// stamp is the ingest time given to emitted events, from the source's
	// last clock reading. A paced source reads the clock for every event
	// anyway (and again after it waited); a full-speed source reads it after
	// every batch hand-off — which may have blocked on backpressure — and at
	// least every BatchSize events. readHandoffs/readAt are i.handoffs and
	// emitted at a full-speed source's last reading; -1 forces one.
	var stamp int64
	emitted, readHandoffs, readAt := 0, -1, 0
	rec := &i.rec
	i.cur = rec
	for k := start; k < len(events); k++ {
		if gate != nil && gate.Paused() {
			// Intake is suspended: trickle instead of halting outright —
			// watermarks must keep advancing or downstream state would
			// never drain and the pause would deadlock. One short wait per
			// event throttles the source by ~3 orders of magnitude.
			if _, ok := i.wait(nil, time.Millisecond); !ok {
				return
			}
			readHandoffs = -1
		}
		if ck != nil && ck.requested.Load() > i.lastBarrier && !i.inject(k, maxTS) {
			return
		}
		// Filled field by field: a whole-Record assignment goes through a
		// temporary, one more copy per event.
		rec.Event = events[k]
		e := &rec.Event
		rec.TS, rec.TraceNs = e.TS, 0
		if perEvent > 0 {
			now := time.Now()
			if d := startAt.Add(time.Duration(float64(emitted) * perEvent)).Sub(now); d > 0 {
				// Idle flush: a paced source must not sit on a partial
				// batch while downstream waits for it.
				if _, ok := i.wait(nil, d); !ok {
					return
				}
				now = time.Now()
			}
			stamp = now.UnixNano()
		} else if n.source.stampIngest && (i.handoffs != readHandoffs || emitted-readAt >= i.batch) {
			stamp, readHandoffs, readAt = time.Now().UnixNano(), i.handoffs, emitted
		}
		emitted++
		if n.source.stampIngest {
			e.Ingest = stamp
		}
		// Quarantined records leave the stream before they can advance the
		// watermark: the replayed run behaves as if the poison event never
		// existed.
		if i.qkeys != nil && i.quarantined(rec) {
			continue
		}
		maxTS = max(maxTS, e.TS)
		if i.tracer != nil {
			i.traceSource(rec)
		}
		i.curSet = true
		if i.pt != nil {
			i.hit(rec)
		}
		i.Emit(rec)
		i.curSet = false
		if i.aborted {
			return
		}
		if (k+1)%interval == 0 {
			// The watermark trails the maximum seen event time by the
			// source's disorder bound (zero for time-ordered streams). The
			// stream-wide max event time, every operator's reference for its
			// watermark lag, is published first, so the lag stays >= 0.
			i.obsOp.ObserveEventTime(int64(maxTS))
			if i.forwardWatermark(sourceWatermark(maxTS, n.source.lateness)); i.aborted {
				return
			}
		}
	}
	if ck != nil && ck.requested.Load() > i.lastBarrier && !i.inject(len(events), maxTS) {
		return
	}
	i.pos = sourceState{Offset: len(events), MaxTS: maxTS}
	i.obsOp.ObserveEventTime(int64(maxTS))
	i.finish()
}

// inject checkpoints a source at offset — the events before it are
// pre-checkpoint — for the latest requested checkpoint. It reports false
// when the run aborted.
func (i *instance) inject(offset int, maxTS event.Time) bool {
	i.lastBarrier = i.ck.requested.Load()
	i.pos = sourceState{Offset: offset, MaxTS: maxTS}
	i.checkpoint(i.lastBarrier, time.Time{})
	return !i.aborted
}

// traceSource starts the trace of a sampled source event. Sampling is
// deterministic: the same event is sampled in every run and on every
// worker, so traces stay reproducible.
func (i *instance) traceSource(rec *Record) {
	if id, ok := i.tracer.Sample(rec.Event); ok {
		rec.TraceNs = time.Now().UnixNano()
		i.tracer.Add(trace.Span{
			Trace: id, Kind: trace.KindSource, Name: i.node, Instance: i.instance, StartNs: rec.TraceNs,
		})
	}
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

// consume is an operator instance's loop: receive a batch, step through it
// and recycle it, until the inputs end or the run is cancelled. Once the
// input is drained, the wait flushes pending output first (the idle flush),
// so partial batches and coalesced watermarks never wait on further input;
// the flush timer bounds how long they age while input keeps arriving.
func (i *instance) consume() {
	lastFlush := time.Now()
	for {
		var batch []Record
		select {
		case batch = <-i.input:
		default:
			var ok bool
			if batch, ok = i.wait(i.input, 0); !ok {
				return
			}
		}
		if q := i.n.queued; q != nil {
			q.Add(-int64(len(batch)))
		}
		more := i.step(batch)
		i.pool.put(batch)
		if !more {
			return
		}
		if time.Since(lastFlush) >= flushTimeout {
			if !i.flush() {
				return
			}
			lastFlush = time.Now()
		}
	}
}

// step takes one batch in place: a record the alignment under way holds is
// stashed, any other is taken, followed by the stashed records that taking
// it released. It reports false when the instance is done. The batch's data
// time goes to the registry and the counts settle.
func (i *instance) step(batch []Record) bool {
	om := i.obsOp
	var t0 time.Time
	if om != nil {
		t0 = time.Now()
	}
	more := true
	for k := 0; more && k < len(batch); k++ {
		if i.box.hold(&batch[k]) {
			continue
		}
		more = i.take(&batch[k])
		for more && len(i.box.stash) > 0 {
			r := i.box.next()
			if r == nil {
				break
			}
			more = i.take(r)
		}
	}
	if om != nil {
		// The batch's data time — its wall time less its OnWatermark calls —
		// goes to the records that reached OnRecord in it, at their mean.
		if k := i.reached; k > 0 {
			om.Proc.RecordN((time.Since(t0).Nanoseconds()-i.wmNs)/k, k)
			i.reached = 0
		}
		if i.wmNs != 0 {
			om.WatermarkNanos.Add(i.wmNs)
			i.wmNs = 0
		}
	}
	i.settle()
	return more
}

// take handles one in-order record. It reports false when the instance is
// done: its inputs ended or the run aborted.
func (i *instance) take(r *Record) bool {
	switch r.Kind {
	case KindEOS:
		if i.box.eos(r.Src) {
			i.onWatermark()
		}
		i.align()
		if i.box.open == 0 {
			// No stashed record can remain here: a sender's EOS is stashed,
			// not taken, while that sender is held.
			i.op.OnClose(&i.Collector)
			i.forwardWatermark(event.MaxWatermark)
			i.finish()
			return false
		}
	case KindWatermark:
		if i.box.watermark(r.Src, r.TS) {
			i.onWatermark()
		}
	case KindBarrier:
		if i.ck == nil {
			return true
		}
		// Barrier propagation latency: the sender's forwardBarrier stamp to
		// receipt here, covering queue wait (and the network hop on spliced
		// edges).
		if d := time.Now().UnixNano() - r.TraceNs; r.TraceNs != 0 && d >= 0 {
			if i.ck.propHist != nil {
				i.ck.propHist.Record(d)
			}
			if i.tracer != nil {
				i.tracer.Add(trace.Span{
					Trace: uint64(r.TS), Kind: trace.KindBarrier, Name: "barrier:" + i.node,
					Instance: i.instance, StartNs: r.TraceNs, DurNs: d,
				})
			}
		}
		i.box.barrier(r.Src, r.TS)
		i.align()
	default:
		if i.qkeys != nil && i.quarantined(r) {
			return true
		}
		// Track the record under processing so a panic inside OnRecord (or
		// an injected fault) is attributed to it.
		i.cur, i.curSet = r, true
		if i.pt != nil {
			i.hit(r)
		}
		i.in++
		late := r.TS <= i.box.wm
		if late && i.obsOp != nil {
			// Arrived at or below the merged watermark: over-disordered
			// input (or a restore/replay race).
			i.late++
		}
		if late && i.st != nil {
			// A State's event-time bookkeeping takes no record at or below
			// its merged watermark (see State). The Late counter above is
			// the drop count.
			i.curSet = false
			return true
		}
		if r.Kind == KindMatch && len(i.senders) == 0 {
			// A match reaching a terminal node is a detected match; the
			// count feeds the live recall estimate.
			i.matches++
		}
		if i.obsOp != nil {
			i.reached++
		}
		if i.tracer != nil && r.TraceNs != 0 {
			i.traceRecord(r)
		} else {
			i.op.OnRecord(int(r.Port), r, &i.Collector)
		}
		if i.check != nil {
			i.check()
		}
		i.curSet = false
	}
	return !i.aborted
}

// traceRecord hands a sampled record to OnRecord under a clock pair of its
// own for its span; its time is part of the batch's like any other's.
func (i *instance) traceRecord(r *Record) {
	t0 := time.Now()
	i.op.OnRecord(int(r.Port), r, &i.Collector)
	start := t0.UnixNano()
	i.tracer.Add(trace.Span{
		Trace: traceIDOf(r), Kind: trace.KindOp, Name: i.node, Instance: i.instance,
		StartNs: start, DurNs: time.Since(t0).Nanoseconds(), QueueNs: max(start-r.TraceNs, 0),
	})
}

// align checkpoints once every live sender has delivered the barrier being
// aligned.
func (i *instance) align() {
	if id, start := i.box.aligned(); id != 0 {
		i.checkpoint(id, start)
	}
}

// onWatermark hands the advanced merged watermark to the operator, runs the
// overload check, publishes the state gauges and forwards the watermark,
// held back to a WatermarkHolder's Hold.
func (i *instance) onWatermark() {
	om, wm := i.obsOp, i.box.wm
	if om != nil {
		t0 := time.Now()
		i.op.OnWatermark(wm, &i.Collector)
		i.wmNs += time.Since(t0).Nanoseconds()
	} else {
		i.op.OnWatermark(wm, &i.Collector)
	}
	if i.check != nil {
		i.check()
	}
	if i.st != nil && om != nil {
		// Publish the state gauges on watermark cadence: often enough for
		// /debug/topology to show hotspots, cheap enough to stay off the
		// per-record path.
		stats := i.st.StateStats()
		om.Partials.Store(stats.Records)
		om.StateBytes.Store(stats.Bytes)
	}
	if i.holder != nil {
		wm = min(wm, i.holder.Hold())
	}
	i.forwardWatermark(wm)
}

// inbox is an operator instance's receive-side control state: the
// per-sender watermark merge, end-of-stream counting and barrier alignment.
// While a checkpoint aligns, the records of senders whose barrier already
// arrived are stashed and replayed once it completes, so the snapshot
// reflects exactly the pre-barrier prefix of every input. A sender's EOS
// counts as its MaxWatermark and as its barrier for the current and every
// later checkpoint. The inbox decides; it never calls the operator.
type inbox struct {
	wms  []event.Time // per sender
	wm   event.Time   // merged: the minimum over wms
	done []bool       // per sender: EOS arrived
	open int          // senders before their EOS
	// alignID is the checkpoint being aligned (0: none), got the senders
	// whose barrier for it arrived, alignStart when the first one did.
	alignID    int64
	got        []bool
	alignStart time.Time
	// stash holds records in arrival order. A replay scans it from pos and
	// compacts the records it must go on holding into its first kept slots.
	stash     []Record
	kept, pos int
}

func newInbox(senders int) inbox {
	b := inbox{wms: make([]event.Time, senders), wm: event.MinWatermark, open: senders,
		done: make([]bool, senders), got: make([]bool, senders)}
	for s := range b.wms {
		b.wms[s] = event.MinWatermark
	}
	return b
}

// watermark merges sender src's watermark; it reports whether the merged
// watermark advanced.
func (b *inbox) watermark(src uint16, wm event.Time) bool {
	if wm <= b.wms[src] {
		return false
	}
	b.wms[src] = wm
	merged := b.wms[0]
	for _, w := range b.wms[1:] {
		merged = min(merged, w)
	}
	if merged <= b.wm {
		return false
	}
	b.wm = merged
	return true
}

// eos records sender src's end of stream; it reports whether the merged
// watermark advanced.
func (b *inbox) eos(src uint16) bool {
	b.open--
	b.done[src] = true
	return b.watermark(src, event.MaxWatermark)
}

// barrier records sender src's barrier for checkpoint id, which starts an
// alignment when none is under way.
func (b *inbox) barrier(src uint16, id int64) {
	if b.alignID == 0 {
		b.alignID, b.alignStart = id, time.Now()
		clear(b.got)
	}
	if id == b.alignID {
		b.got[src] = true
	}
}

// aligned ends the alignment under way once every sender has delivered its
// barrier or ended, returning its checkpoint and start; else it returns 0.
func (b *inbox) aligned() (int64, time.Time) {
	if b.alignID == 0 {
		return 0, time.Time{}
	}
	for s, got := range b.got {
		if !got && !b.done[s] {
			return 0, time.Time{}
		}
	}
	id := b.alignID
	b.alignID = 0
	return id, b.alignStart
}

// hold stashes r, reporting true, when the alignment under way holds its
// sender.
func (b *inbox) hold(r *Record) bool {
	if b.alignID == 0 || !b.got[r.Src] {
		return false
	}
	b.stash = append(b.stash, *r)
	return true
}

// next returns the stashed record to take next, nil when none may be taken
// yet. A replay starts only when no alignment is under way. A stashed
// barrier may start the next one mid-replay, and the records of the senders
// it holds are kept in order; should it complete within the same replay,
// the scan restarts from the first kept record, so each sender's records
// are taken in the order they arrived.
func (b *inbox) next() *Record {
	if b.pos == 0 && b.alignID != 0 {
		return nil
	}
	if b.alignID == 0 && b.kept > 0 {
		b.stash = append(b.stash[:b.kept], b.stash[b.pos:]...)
		b.kept, b.pos = 0, 0
	}
	for b.pos < len(b.stash) {
		r := &b.stash[b.pos]
		if b.pos++; b.alignID == 0 || !b.got[r.Src] {
			return r
		}
		b.stash[b.kept] = *r
		b.kept++
	}
	// The slots past the kept records let go of their matches.
	clear(b.stash[b.kept:])
	b.stash, b.kept, b.pos = b.stash[:b.kept], 0, 0
	return nil
}
