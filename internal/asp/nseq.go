package asp

import (
	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// NextOccurrenceSpec configures the negated-sequence UDF of §4.1: it
// consumes the union of streams T1 and T2 and annotates every T1 event e1
// with an additional timestamp attribute ats — the timestamp of the next T2
// occurrence within (e1.TS, e1.TS+Window) that satisfies the blocker
// predicate, or e1.TS+Window when none occurred. The subsequent
// SEQ(T1', T3) join then applies the selection ats >= e3.ts, which encodes
// "no e2 in the open interval (e1.ts, e3.ts)" of Eq. 14.
//
// Because an e1 can only be released once its next-occurrence is decided,
// the operator may emit events older than its input watermark; it therefore
// implements WatermarkHolder, and the engine delays the downstream
// watermark accordingly.
type NextOccurrenceSpec struct {
	T1, T2 event.Type
	Window event.Time
	// Key groups T1/T2 per partition key (nil: one global group). Blockers
	// only void T1 events of the same group — the equi-correlated negation
	// of keyed patterns.
	Key KeyFn
	// Blocker decides whether a T2 candidate voids e1 (per-event
	// thresholds on e2 plus equi correlations with e1), given the pair
	// [e1, e2] in a slice the evaluating instance owns; nil accepts all. It
	// is shared by every parallel instance and must keep no state.
	Blocker func(pair []event.Event) bool
}

// NewNextOccurrence returns the operator factory for Stream.Process.
//
// The operator keeps its events in an interval join's key groups: pending
// T1 events on side 0, T2 events on side 1. The join's bounds (-1, Window)
// give a T1 its deadline TS+Window-1 and a T2 its death once the watermark
// reaches it, so the join's earliest-death check, eviction, snapshot, state
// accounting and shed loop are this operator's too; it never probes.
func NewNextOccurrence(spec NextOccurrenceSpec) func(int) Operator {
	newJoin := NewIntervalJoin(IntervalJoinSpec{Lower: -1, Upper: spec.Window, LeftKey: spec.Key, RightKey: spec.Key})
	return func(i int) Operator {
		return &nextOccurrence{intervalJoin: newJoin(i).(*intervalJoin), spec: spec, hold: event.MaxWatermark}
	}
}

type nextOccurrence struct {
	*intervalJoin
	spec NextOccurrenceSpec
	// inRate is the overall input rate: the downstream SEQ(T1', T3) partner
	// rate is invisible here, so it is the documented proxy in loss bounds
	// (LossSafety pads it).
	inRate arrivalRate
	hold   event.Time
	pair   [2]event.Event // the slice Blocker is evaluated on
}

// Hold implements WatermarkHolder: the earliest pending T1 event time - 1,
// or MaxWatermark while none is pending.
func (n *nextOccurrence) Hold() event.Time { return n.hold }

// holdFor lowers the hold to the earliest pending T1 of group g.
func (n *nextOccurrence) holdFor(g *ijGroup) {
	if pending := g[0].live(); len(pending) > 0 {
		n.hold = min(n.hold, pending[0].TS-1)
	}
}

func (n *nextOccurrence) recomputeHold() {
	n.hold = event.MaxWatermark
	for _, g := range n.state {
		n.holdFor(g)
	}
}

// OnRecord buffers a T1 event on side 0 and a T2 event on side 1 of its key
// group; nothing is decided before the watermark passes.
func (n *nextOccurrence) OnRecord(_ int, r *Record, out *Collector) {
	port := 0
	switch {
	case r.Kind != KindEvent:
		return
	case r.Event.Type == n.spec.T2:
		port = 1
	case r.Event.Type != n.spec.T1:
		return
	}
	n.state.group(groupKey(n.spec.Key, n.spec.Key, port, r), &n.freeRecs)[port].insert(r)
	n.nextDeath = min(n.nextDeath, n.deathTime(r.TS, port))
	n.inRate.observe(r.TS)
	n.maxTS = max(n.maxTS, r.TS)
	n.elems++
	out.AddState(1)
	if port == 0 {
		n.hold = min(n.hold, r.TS-1)
	}
}

// OnWatermark resolves the pending T1 events whose next occurrence is known,
// then evicts the T2 events at or below wm: after resolution no pending T1
// can still need one (it would have been a blocker at or below wm), and a
// future T1 lies above wm. A watermark below every T1 deadline and every T2
// resolves nothing and returns at once.
func (n *nextOccurrence) OnWatermark(wm event.Time, out *Collector) {
	if wm < n.nextDeath {
		return
	}
	var gone int64
	n.nextDeath, n.hold = event.MaxWatermark, event.MaxWatermark
	for key, g := range n.state {
		gone += n.resolve(g, wm, out)
		gone += int64(n.evictDead(&g[1], 1, wm))
		n.holdFor(g)
		n.closeGroup(key, g)
	}
	n.elems -= gone
	out.AddState(-gone)
}

// resolve emits the pending T1 events of g whose next occurrence is decided
// — a blocker at or below wm (no earlier T2 can still arrive), or the whole
// interval (e1.TS, e1.TS+W) at or below wm — and returns their number. The
// undecided ones are compacted in place; none moves while nothing resolves.
func (n *nextOccurrence) resolve(g *ijGroup, wm event.Time, out *Collector) int64 {
	s, t2 := &g[0], g[1].live()
	kept := s.head
	for i := s.head; i < len(s.recs); i++ {
		e1 := &s.recs[i]
		if ats := n.nextBlocker(t2, e1.Event); ats <= wm || n.deathTime(e1.TS, 0) <= wm {
			e1.Event.AuxTS = ats
			out.EmitEvent(e1.Event)
			continue
		}
		if kept != i {
			s.recs[kept] = *e1
		}
		kept++
	}
	gone := len(s.recs) - kept
	if s.recs = s.recs[:kept]; kept == s.head {
		s.recs, s.head = s.recs[:0], 0
	}
	return int64(gone)
}

// nextBlocker returns the timestamp of the first T2 event of the TS-sorted
// buffer t2 within (e1.TS, e1.TS+W) that voids e1, or e1.TS+W when none does.
func (n *nextOccurrence) nextBlocker(t2 []Record, e1 event.Event) event.Time {
	end := e1.TS + n.spec.Window
	for i := firstAfter(t2, e1.TS); i < len(t2) && t2[i].TS < end; i++ {
		if n.spec.Blocker == nil {
			return t2[i].TS
		}
		n.pair[0], n.pair[1] = e1, t2[i].Event
		if n.spec.Blocker(n.pair[:]) {
			return t2[i].TS
		}
	}
	return end
}

// RestoreState implements Snapshotter.
func (n *nextOccurrence) RestoreState(data []byte) error {
	if err := n.intervalJoin.RestoreState(data); err != nil {
		return err
	}
	n.recomputeHold()
	return nil
}

// pendingLoss bounds the matches a dropped pending T1 could still have
// fed: had it resolved, its T1' event would join T3 partners arriving
// within (e1.TS, e1.TS+Window) downstream. The T3 rate is unknown at
// this operator, so the overall input rate stands in for it —
// over-counting (the input mixes T1 and T2 too) is safe, and the
// LossSafety padding plus floor-at-1 inside ExpectedArrivals covers the
// already-buffered downstream partners this operator cannot see.
func (n *nextOccurrence) pendingLoss(e1 Record, _, _ int) float64 {
	return overload.ExpectedArrivals(n.inRate.perTimeUnit(), n.recordLife(e1, 0))
}

// Shed implements State. Only pending T1 events are shed: an undecided T1
// that disappears simply never feeds the downstream sequence join (matches
// lost, none gained). T2 blocker events are never shed — losing a blocker
// would resolve a negation as "no occurrence" and emit matches the unshed
// run suppresses — so target may be unreachable when T2 events dominate.
// Oldest-first drops the oldest pending T1 events. Pattern-aware drops the
// newest: an old pending T1 is the most valuable state this operator holds
// — its negation interval is nearly closed, so it is about to resolve and
// feed the downstream join, and it is what the watermark hold waits on —
// while a fresh T1 must survive a full window of blocker candidates before
// producing anything. Every dropped T1 charges its lost-match bound.
func (n *nextOccurrence) Shed(target int64, by overload.ShedStrategy, out *Collector) int64 {
	rank := func(r Record, _ int) event.Time { return r.TS }
	if by == overload.PatternAware {
		rank = func(r Record, _ int) event.Time { return -r.TS }
	}
	dropped := shedByRank(n.intervalJoin, target, 1, rank, n.pendingLoss, out)
	n.recomputeHold()
	return dropped
}
