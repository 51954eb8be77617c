package asp

import (
	"sort"
	"unsafe"

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
func NewNextOccurrence(spec NextOccurrenceSpec) func(int) Operator {
	return func(int) Operator {
		return &nextOccurrence{spec: spec, groups: make(map[int64]*noGroup)}
	}
}

type noGroup struct {
	pending []event.Event // T1 events awaiting resolution, sorted by TS
	t2      []event.Event // T2 events, sorted by TS
}

type nextOccurrence struct {
	spec   NextOccurrenceSpec
	groups map[int64]*noGroup
	elems  int64 // pending + t2 events buffered (mirrors AddState)
	// Shedding statistics: overall input rate and max event time seen. The
	// downstream SEQ(T1', T3) partner rate is invisible here, so the input
	// rate is the documented proxy in loss bounds (LossSafety pads it).
	inRate  arrivalRate
	maxTS   event.Time
	hold    event.Time
	freeEvs [][]event.Event // recycled group buffers
	pair    [2]event.Event  // the slice Blocker is evaluated on
}

// DropsLateRecords implements LateDropper: a late T1 would move the
// watermark hold backwards (regressing the downstream watermark) and a late
// T2 could contradict absence decisions already emitted, so the engine drops
// late records at this operator's input.
func (n *nextOccurrence) DropsLateRecords() {}

// Hold implements WatermarkHolder: the earliest pending T1 event time - 1.
func (n *nextOccurrence) Hold() event.Time { return n.hold }

func (n *nextOccurrence) recomputeHold() {
	h := event.MaxWatermark
	for _, g := range n.groups {
		if len(g.pending) > 0 && g.pending[0].TS-1 < h {
			h = g.pending[0].TS - 1
		}
	}
	n.hold = h
}

func (n *nextOccurrence) OnRecord(_ int, r *Record, out *Collector) {
	if r.Kind != KindEvent {
		return
	}
	var key int64
	if n.spec.Key != nil {
		key = n.spec.Key(r)
	}
	g := n.groups[key]
	if g == nil {
		g = &noGroup{pending: takeSlice(&n.freeEvs), t2: takeSlice(&n.freeEvs)}
		n.groups[key] = g
	}
	n.inRate.observe(r.Event.TS)
	if r.Event.TS > n.maxTS {
		n.maxTS = r.Event.TS
	}
	switch r.Event.Type {
	case n.spec.T1:
		g.pending = insertEventByTS(g.pending, r.Event)
		n.elems++
		out.AddState(1)
		if r.Event.TS-1 < n.hold {
			n.hold = r.Event.TS - 1
		}
	case n.spec.T2:
		g.t2 = insertEventByTS(g.t2, r.Event)
		n.elems++
		out.AddState(1)
	}
}

func insertEventByTS(buf []event.Event, e event.Event) []event.Event {
	i := len(buf)
	for i > 0 && buf[i-1].TS > e.TS {
		i--
	}
	buf = append(buf, event.Event{})
	copy(buf[i+1:], buf[i:])
	buf[i] = e
	return buf
}

func (n *nextOccurrence) OnWatermark(wm event.Time, out *Collector) {
	for key, g := range n.groups {
		n.resolve(g, wm, out)
		n.evictT2(g, wm, out)
		if len(g.pending) == 0 && len(g.t2) == 0 {
			stashSlice(&n.freeEvs, g.pending)
			stashSlice(&n.freeEvs, g.t2)
			delete(n.groups, key)
		}
	}
	n.recomputeHold()
}

// resolve decides pending T1 events whose next-occurrence is known:
// either a blocker with TS <= wm was found (no earlier T2 can still
// arrive), or the whole interval (e1.TS, e1.TS+W) is below the watermark.
func (n *nextOccurrence) resolve(g *noGroup, wm event.Time, out *Collector) {
	keep := g.pending[:0]
	for _, e1 := range g.pending {
		blocker, found := n.earliestBlocker(g, e1)
		switch {
		case found && blocker.TS <= wm:
			e1.AuxTS = blocker.TS
		case !found && wm >= e1.TS+n.spec.Window-1:
			e1.AuxTS = e1.TS + n.spec.Window
		case found && wm >= e1.TS+n.spec.Window-1:
			// Blocker seen but beyond wm cannot happen here: the interval
			// is fully below wm, so any seen blocker has TS <= wm and was
			// handled by the first case. Defensive: resolve with it.
			e1.AuxTS = blocker.TS
		default:
			keep = append(keep, e1)
			continue
		}
		n.elems--
		out.AddState(-1)
		out.EmitEvent(e1)
	}
	g.pending = keep
}

func (n *nextOccurrence) earliestBlocker(g *noGroup, e1 event.Event) (event.Event, bool) {
	for _, e2 := range g.t2 {
		if e2.TS <= e1.TS {
			continue
		}
		if e2.TS >= e1.TS+n.spec.Window {
			break
		}
		if n.spec.Blocker == nil {
			return e2, true
		}
		n.pair[0], n.pair[1] = e1, e2
		if n.spec.Blocker(n.pair[:]) {
			return e2, true
		}
	}
	return event.Event{}, false
}

// evictT2 drops T2 events no pending or future T1 can need: future T1 have
// TS > wm, and a blocker must satisfy e2.TS > e1.TS.
func (n *nextOccurrence) evictT2(g *noGroup, wm event.Time, out *Collector) {
	minPending := event.MaxWatermark
	if len(g.pending) > 0 {
		minPending = g.pending[0].TS
	}
	cut := 0
	for _, e2 := range g.t2 {
		if e2.TS <= wm && e2.TS <= minPending {
			cut++
			continue
		}
		break
	}
	if cut > 0 {
		n.elems -= int64(cut)
		out.AddState(-int64(cut))
		m := copy(g.t2, g.t2[cut:])
		g.t2 = g.t2[:m]
	}
}

func (n *nextOccurrence) OnClose(*Collector) {}

// noState is the gob snapshot DTO of a nextOccurrence instance.
type noState struct {
	Groups map[int64]*noGroupState
}

type noGroupState struct {
	Pending, T2 []event.Event
}

// SnapshotState implements Snapshotter.
func (n *nextOccurrence) SnapshotState() ([]byte, error) {
	st := noState{Groups: make(map[int64]*noGroupState, len(n.groups))}
	for key, g := range n.groups {
		st.Groups[key] = &noGroupState{Pending: g.pending, T2: g.t2}
	}
	return gobEncode(st)
}

// RestoreState implements Snapshotter.
func (n *nextOccurrence) RestoreState(data []byte) error {
	var st noState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	n.groups = make(map[int64]*noGroup, len(st.Groups))
	n.elems = 0
	for key, g := range st.Groups {
		n.groups[key] = &noGroup{pending: g.Pending, t2: g.T2}
		n.elems += int64(len(g.Pending) + len(g.T2))
	}
	n.recomputeHold()
	return nil
}

// BufferedState implements StateCounter.
func (n *nextOccurrence) BufferedState() int64 {
	var c int64
	for _, g := range n.groups {
		c += int64(len(g.pending) + len(g.t2))
	}
	return c
}

// StateStats implements StateAccountant.
func (n *nextOccurrence) StateStats() StateStats {
	return StateStats{Records: n.elems, Bytes: n.elems * int64(unsafe.Sizeof(event.Event{}))}
}

// pendingLoss bounds the matches a dropped pending T1 could still have
// fed: had it resolved, its T1' event would join T3 partners arriving
// within (e1.TS, e1.TS+Window) downstream. The T3 rate is unknown at
// this operator, so the overall input rate stands in for it —
// over-counting (the input mixes T1 and T2 too) is safe, and the
// LossSafety padding plus floor-at-1 inside ExpectedArrivals covers the
// already-buffered downstream partners this operator cannot see.
func (n *nextOccurrence) pendingLoss(e1 event.Event) float64 {
	return overload.ExpectedArrivals(n.inRate.perTimeUnit(),
		clampTimeLeft(e1.TS+n.spec.Window-1-n.maxTS))
}

// ShedOldest implements Shedder. Only the oldest pending T1 events are
// shed: an undecided T1 that disappears simply never feeds the downstream
// sequence join (matches lost, none gained). T2 blocker events are NEVER
// shed — losing a blocker would resolve a negation as "no occurrence" and
// emit matches the unshed run suppresses, violating the subset property.
// target may therefore be unreachable when T2 events dominate. Every
// dropped pending T1 charges its lost-match bound.
func (n *nextOccurrence) ShedOldest(target int64, out *Collector) int64 {
	excess := n.elems - target
	if excess <= 0 {
		return 0
	}
	ts := make([]event.Time, 0, excess)
	for _, g := range n.groups {
		for _, e1 := range g.pending {
			ts = append(ts, e1.TS)
		}
	}
	if int64(len(ts)) < excess {
		excess = int64(len(ts))
	}
	if excess == 0 {
		return 0
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	cutoff := ts[excess-1]
	var dropped int64
	var lost float64
	for key, g := range n.groups {
		i := sort.Search(len(g.pending), func(k int) bool { return g.pending[k].TS > cutoff })
		if i > 0 {
			for k := 0; k < i; k++ {
				lost += n.pendingLoss(g.pending[k])
			}
			dropped += int64(i)
			m := copy(g.pending, g.pending[i:])
			g.pending = g.pending[:m]
		}
		if len(g.pending) == 0 && len(g.t2) == 0 {
			stashSlice(&n.freeEvs, g.pending)
			stashSlice(&n.freeEvs, g.t2)
			delete(n.groups, key)
		}
	}
	n.elems -= dropped
	out.AddState(-dropped)
	out.AddLostMatches(lost)
	n.recomputeHold()
	return dropped
}

// ShedLowestValue implements ValueShedder: the NEWEST pending T1 events
// are shed first. An old pending T1 is the most valuable state this
// operator holds — its negation interval is nearly closed, so it is
// about to resolve and feed the downstream join (and it is what the
// watermark hold is waiting on); a fresh T1 must survive a full window
// of blocker candidates before producing anything. T2 blockers are
// still never shed (see ShedOldest). Mirrors the cutoff idiom from the
// top: the excess-th largest pending timestamp becomes the cutoff and
// everything at or above it is dropped (ties shed together).
func (n *nextOccurrence) ShedLowestValue(target int64, out *Collector) int64 {
	excess := n.elems - target
	if excess <= 0 {
		return 0
	}
	ts := make([]event.Time, 0, excess)
	for _, g := range n.groups {
		for _, e1 := range g.pending {
			ts = append(ts, e1.TS)
		}
	}
	if int64(len(ts)) < excess {
		excess = int64(len(ts))
	}
	if excess == 0 {
		return 0
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] > ts[b] }) // descending
	cutoff := ts[excess-1]                                       // excess-th largest
	var dropped int64
	var lost float64
	for key, g := range n.groups {
		i := sort.Search(len(g.pending), func(k int) bool { return g.pending[k].TS >= cutoff })
		if i < len(g.pending) {
			for k := i; k < len(g.pending); k++ {
				lost += n.pendingLoss(g.pending[k])
			}
			dropped += int64(len(g.pending) - i)
			g.pending = g.pending[:i]
		}
		if len(g.pending) == 0 && len(g.t2) == 0 {
			stashSlice(&n.freeEvs, g.pending)
			stashSlice(&n.freeEvs, g.t2)
			delete(n.groups, key)
		}
	}
	n.elems -= dropped
	out.AddState(-dropped)
	out.AddLostMatches(lost)
	n.recomputeHold()
	return dropped
}
