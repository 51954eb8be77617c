package nfa

import (
	"math"
	"slices"
	"sort"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// Emit receives completed matches. The match's event time for downstream
// processing is its last constituent's timestamp.
type Emit func(m *event.Match)

// Machine executes a Program over a single (unioned) input stream. It is
// the paper's unary CEP operator: all state — partial matches per prefix
// state, pending full matches awaiting negation resolution, and blocker
// buffers — lives in this one operator (§5.1.2).
//
// Machine is not safe for concurrent use; the engine serializes calls per
// operator instance.
type Machine struct {
	prog   *Program
	groups map[int64]*group
	// OnState, when set, receives buffered-element deltas for the state
	// budget accounting (the FlinkCEP memory-exhaustion analogue).
	OnState func(delta int64)

	stateCount int64
	elems      int64 // constituent events across all buffered units

	// scratch holds the one candidate (prefix + event, or match + blocker)
	// under test; predicates read it and must not retain it, and only an
	// accepted candidate is copied out into the unit that owns it.
	scratch []event.Event
	// accepted[k] is stage k's verdict on the event under test (see accept).
	accepted []bool
	// nextDue is a lower bound on the watermark that expires a live partial
	// (min firstTS + Window - 1, kept per group in group.due): lowered when
	// a partial starts, recomputed by every sweep, so a watermark below it
	// has nothing to do. hold is the same for pendings (min lastTS - 1); a
	// shed pending may leave it low until the next sweep, which only holds
	// the watermark back longer.
	nextDue, hold event.Time

	// Insertion-time state cap (SetBudget). capFn/lowFn are consulted
	// before every partial/pending insert so the embedding operator can
	// share one budget between its own buffers and the machine.
	capFn, lowFn func() int64
	onShed       func(dropped int64)

	// Pattern-aware shedding state: the completion-score priority heap
	// over live partials and pendings (maintained only while armed, so
	// the oldest-first and unbudgeted paths pay nothing), live per-type
	// arrival rates, the event-time clock, and the accumulated upper
	// bound on matches lost to eviction.
	patternAware bool
	heap         *overload.ValueHeap
	rates        map[event.Type]*overload.Rate
	curTS        event.Time
	lost         float64
}

type partial struct {
	events  []event.Event
	firstTS event.Time
	// stage is the index of the last accepted stage; fixed at creation
	// (advancing copies into a new partial, it never mutates this one).
	stage int
	item  *overload.HeapItem
	// dead marks a unit that left the automaton: shed under state pressure,
	// consumed, broken or expired. Tombstoning instead of slice surgery
	// keeps ShedTo safe to call mid-OnEvent, while that call still iterates
	// the stage slices; a pass that meets a tombstone compacts its group
	// once it has stopped iterating.
	dead bool
}

type pendingMatch struct {
	events []event.Event
	lastTS event.Time
	item   *overload.HeapItem
	dead   bool
}

type group struct {
	// partials[k] holds partial matches whose accepted prefix is stages
	// 0..k.
	partials [][]*partial
	pending  []*pendingMatch
	// blockers per negation index, sorted by timestamp.
	blockers [][]event.Event
	// due is the group's share of Machine.nextDue.
	due event.Time
}

// NewMachine compiles the program into an executable machine.
func NewMachine(prog *Program) (*Machine, error) {
	if err := prog.Validate(); err != nil {
		return nil, err
	}
	rates := make(map[event.Type]*overload.Rate, len(prog.Stages))
	for _, st := range prog.Stages {
		if rates[st.Type] == nil {
			rates[st.Type] = overload.NewRate(0)
		}
	}
	return &Machine{
		prog: prog, groups: make(map[int64]*group), rates: rates,
		accepted: make([]bool, len(prog.Stages)),
		nextDue:  event.MaxWatermark, hold: event.MaxWatermark,
	}, nil
}

// SetPatternAware switches shed-victim selection between oldest-first and
// completion-score order. Enabling mid-run builds the score heap over the
// live state once; disabling drops it so the hot path pays nothing.
func (m *Machine) SetPatternAware(on bool) {
	if on == m.patternAware {
		return
	}
	m.patternAware = on
	if on {
		m.heap = &overload.ValueHeap{}
		for _, g := range m.groups {
			for k := range g.partials {
				for _, p := range g.partials[k] {
					if !p.dead {
						p.item = m.heap.Push(m.score(p.stage, p.firstTS), p)
					}
				}
			}
			for _, pm := range g.pending {
				if !pm.dead {
					pm.item = m.heap.Push(pendingScore, pm)
				}
			}
		}
		return
	}
	m.heap = nil
	for _, g := range m.groups {
		for k := range g.partials {
			for _, p := range g.partials[k] {
				p.item = nil
			}
		}
		for _, pm := range g.pending {
			pm.item = nil
		}
	}
}

// LostMatchBound returns the accumulated upper bound on matches that
// evicted state could still have produced — the numerator of the recall
// accounting. Monotone non-decreasing; only eviction raises it, normal
// expiry and consumption never do.
func (m *Machine) LostMatchBound() float64 { return m.lost }

// pendingScore is the heap rank of pending full matches: a detected
// match is certain value, shed only when no partial remains to evict.
const pendingScore = math.MaxFloat64

// score is the shedding rank of a unit whose last accepted stage is
// stage: advancement first (a unit one transition from completing emits
// matches without consuming budget, so it outranks every earlier-stage
// unit), freshness within a stage (expected qualifying arrivals left, at
// the live rate of the next required type). The rank, unlike the raw
// completion probability, keeps discriminating on dense streams where
// nearly every unit is near-certain to complete at least once.
func (m *Machine) score(stage int, firstTS event.Time) float64 {
	transLeft := len(m.prog.Stages) - 1 - stage
	timeLeft := int64(m.prog.Window) - int64(m.curTS-firstTS)
	var rate float64
	if transLeft > 0 {
		rate, _ = m.stageRate(stage + 1)
	}
	return overload.CompletionValue(transLeft, timeLeft, int64(m.prog.Window), rate)
}

// stageRate returns the live arrival rate of the type stage j accepts; ok
// is false while its estimator has not yet seen two arrivals.
func (m *Machine) stageRate(j int) (rate float64, ok bool) {
	if r := m.rates[m.prog.Stages[j].Type]; r != nil {
		rate = r.PerTimeUnit()
	}
	return rate, rate > 0
}

// lossBound bounds the matches a unit at the given stage could still have
// produced: the expected number of ordered completions — the product over
// the remaining stages of rate*timeLeft, divided by the factorial of the
// transitions left (each completion consumes one time-ordered choice per
// stage) — padded by the LossSafety factor and floored at 1. Over-counting
// is safe — it only lowers the recall estimate — but the expectation-based
// form stays finite on dense streams, where compounding per-stage safety
// pads would drown the estimate in noise. A remaining stage whose rate is
// still unobserved says nothing about how many of its events will come
// (a source that simply has not been read yet looks the same as a silent
// one), so it charges overload.UnknownLoss instead of a rate of zero.
func (m *Machine) lossBound(stage int, firstTS event.Time) float64 {
	timeLeft := int64(m.prog.Window) - int64(m.curTS-firstTS)
	if timeLeft < 0 {
		timeLeft = 0
	}
	bound := float64(overload.LossSafety)
	for j := stage + 1; j < len(m.prog.Stages); j++ {
		rate, ok := m.stageRate(j)
		if !ok {
			return overload.UnknownLoss
		}
		bound *= rate * float64(timeLeft) / float64(j-stage)
	}
	if bound < 1 {
		return 1
	}
	return bound
}

// LostEventBound bounds the matches a dropped raw input event could still
// have participated in: for every stage whose accept the event passes, the
// product over the other stages of the expected qualifying arrivals in a
// full window (overload.UnknownLoss while any of their rates is
// unobserved). An event no stage accepts is in no match and costs 0.
// Grossly conservative otherwise — safe, since over-counting only lowers
// the recall estimate.
func (m *Machine) LostEventBound(e event.Event) float64 {
	var bound float64
	w := int64(m.prog.Window)
	m.accept(e)
	for j := range m.prog.Stages {
		if !m.accepted[j] {
			continue
		}
		b := 1.0
		for i := range m.prog.Stages {
			if i == j {
				continue
			}
			rate, ok := m.stageRate(i)
			if !ok {
				return overload.UnknownLoss
			}
			b *= overload.ExpectedArrivals(rate, w)
		}
		bound += b
	}
	return bound
}

// shedPartial tombstones a partial under state pressure, charging its
// loss bound to the recall account.
func (m *Machine) shedPartial(p *partial) {
	m.lost += m.lossBound(p.stage, p.firstTS)
	m.dropPartial(p)
	p.events = nil
}

// shedPending tombstones a pending match under state pressure: at most
// one match lost.
func (m *Machine) shedPending(pm *pendingMatch) {
	m.lost++
	pm.dead = true
	m.elems -= int64(len(pm.events))
	pm.events = nil
	m.detachPending(pm)
	m.addState(-1)
}

// dropPartial tombstones a partial on its normal death paths (expiry,
// consumption, broken contiguity) — no loss is charged there.
func (m *Machine) dropPartial(p *partial) {
	if p.item != nil {
		m.heap.Remove(p.item)
		p.item = nil
	}
	p.dead = true
	m.elems -= int64(len(p.events))
	m.addState(-1)
}

// compact drops the tombstones from ps in place.
func compact(ps []*partial) []*partial {
	n := 0
	for _, p := range ps {
		if !p.dead {
			ps[n] = p
			n++
		}
	}
	clear(ps[n:])
	return ps[:n]
}

func (m *Machine) detachPending(pm *pendingMatch) {
	if pm.item != nil {
		m.heap.Remove(pm.item)
		pm.item = nil
	}
}

func (m *Machine) addState(delta int64) {
	m.stateCount += delta
	if m.OnState != nil {
		m.OnState(delta)
	}
}

// StateSize returns the current number of buffered elements (partials,
// pending matches and blockers).
func (m *Machine) StateSize() int64 { return m.stateCount }

// StateElems returns the total constituent events held across all buffered
// units — the O(1) basis for approximate byte accounting.
func (m *Machine) StateElems() int64 { return m.elems }

// SetBudget arms insertion-time state capping. Before any partial or
// pending match is stored the machine consults cap(); at or above it the
// oldest partials and pending matches are shed down to low() and reported
// through onShed. When shedding cannot free room (blockers dominate, or
// cap() <= 0 because the embedding operator's own buffers exhaust the
// budget) the incoming unit itself is dropped and counted as shed.
// Blockers are never capped or shed: losing one would resolve a negation
// as "no occurrence" and emit matches an unbudgeted run suppresses.
// Function-valued bounds let the cap track the embedder's buffer size
// dynamically. Pass nil functions to disarm.
func (m *Machine) SetBudget(capFn, lowFn func() int64, onShed func(dropped int64)) {
	m.capFn, m.lowFn, m.onShed = capFn, lowFn, onShed
}

// admit reports whether one more partial/pending unit may be stored,
// shedding oldest state first when the cap is reached. The un-budgeted
// fast path is a single nil check.
func (m *Machine) admit() bool {
	if m.capFn == nil {
		return true
	}
	limit := m.capFn()
	if limit > 0 && m.stateCount < limit {
		return true
	}
	var low int64
	if m.lowFn != nil {
		low = max(m.lowFn(), 0)
	}
	if d := m.ShedLowestValue(low); d > 0 && m.onShed != nil {
		m.onShed(d)
	}
	if limit > 0 && m.stateCount < limit {
		return true
	}
	if m.onShed != nil {
		m.onShed(1) // the incoming unit itself
	}
	return false
}

// Monotone reports whether an input event can only add matches: no
// negations (it may be a blocker), skip-till-any-match (else it may consume
// or break partials). Only then may an operator drop input events without
// fabricating matches, and an event no stage accepts be skipped outright.
func (m *Machine) Monotone() bool {
	return len(m.prog.Negations) == 0 && m.prog.Policy == SkipTillAnyMatch
}

// ShedTo tombstones the globally oldest partials (by firstTS) and pending
// matches (by first constituent TS) until at most target non-blocker units
// remain, returning the number dropped. Shedding only removes would-be
// matches, so a shed run's match set stays a subset of the unshed run's.
// Tombstones are compacted on the next OnEvent/OnWatermark pass over the
// affected slices. The count is not reported through the SetBudget onShed
// hook: the caller accounts it.
func (m *Machine) ShedTo(target int64) int64 {
	excess := m.stateCount - target
	if excess <= 0 {
		return 0
	}
	ts := make([]event.Time, 0, excess)
	for _, g := range m.groups {
		for k := range g.partials {
			for _, p := range g.partials[k] {
				if !p.dead {
					ts = append(ts, p.firstTS)
				}
			}
		}
		for _, pm := range g.pending {
			if !pm.dead {
				ts = append(ts, pm.events[0].TS)
			}
		}
	}
	if int64(len(ts)) < excess {
		excess = int64(len(ts))
	}
	if excess == 0 {
		return 0
	}
	sort.Slice(ts, func(a, b int) bool { return ts[a] < ts[b] })
	cutoff := ts[excess-1] // ties shed together; may slightly undershoot target
	var dropped int64
	for _, g := range m.groups {
		for k := range g.partials {
			for _, p := range g.partials[k] {
				if !p.dead && p.firstTS <= cutoff {
					m.shedPartial(p)
					dropped++
				}
			}
		}
		for _, pm := range g.pending {
			if !pm.dead && pm.events[0].TS <= cutoff {
				m.shedPending(pm)
				dropped++
			}
		}
	}
	return dropped
}

// ShedLowestValue sheds in completion-score order until at most target
// non-blocker units remain, returning the number dropped: hopeless state
// (few transitions left in little time, at low arrival rates) goes first,
// partial matches one transition from completing go last. Falls back to
// oldest-first when pattern-aware selection is not armed. Like ShedTo,
// the count is not reported through the SetBudget onShed hook.
func (m *Machine) ShedLowestValue(target int64) int64 {
	if !m.patternAware {
		return m.ShedTo(target)
	}
	excess := m.stateCount - target
	var dropped int64
	for dropped < excess && m.heap.Len() > 0 {
		it := m.heap.PopMin()
		switch u := it.Payload.(type) {
		case *partial:
			// Lazy rescore: stored scores are upper bounds frozen at
			// creation (completion probability only decays), so recompute
			// now and re-queue when the unit outranks the next candidate.
			// Scores are stable within one shed call, so a re-queued exact
			// score is final and the loop terminates.
			cur := m.score(u.stage, u.firstTS)
			if next := m.heap.PeekMin(); next != nil && cur > next.Score {
				u.item = m.heap.Push(cur, u)
				continue
			}
			u.item = nil
			m.shedPartial(u)
		case *pendingMatch:
			// Pendings carry the ceiling score: one popping here means
			// no partial remains to evict instead.
			u.item = nil
			m.shedPending(u)
		}
		dropped++
	}
	return dropped
}

// ensureGroup returns the key's group, creating it on first use: only an
// event the automaton keeps (a blocker, an admitted partial or pending) may
// create one, so a rejected event of a new key costs a map miss.
func (m *Machine) ensureGroup(key int64, g *group) *group {
	if g == nil {
		g = &group{
			partials: make([][]*partial, len(m.prog.Stages)),
			blockers: make([][]event.Event, len(m.prog.Negations)),
			due:      event.MaxWatermark,
		}
		m.groups[key] = g
	}
	return g
}

// accept fills m.accepted for e, calling each distinct Stage.Accept once on
// the one-event candidate it leaves in m.scratch; false if no stage accepts.
func (m *Machine) accept(e event.Event) bool {
	hit := false
	m.scratch = append(m.scratch[:0], e)
	for k := range m.prog.Stages {
		st := &m.prog.Stages[k]
		ok := st.Type == e.Type
		if ok && st.SharesAccept {
			ok = m.accepted[k-1]
		} else if ok && st.Accept != nil {
			ok = st.Accept(m.scratch)
		}
		m.accepted[k] = ok
		hit = hit || ok
	}
	return hit
}

// OnEvent feeds one event of the unioned input stream into the automaton.
func (m *Machine) OnEvent(e event.Event, emit Emit) {
	if e.TS > m.curTS {
		m.curTS = e.TS
	}
	if m.capFn != nil || m.patternAware {
		if r := m.rates[e.Type]; r != nil {
			r.Observe(int64(e.TS))
		}
	}
	// An event no stage accepts builds no candidate; in a Monotone program
	// (where it can neither block a match nor break a partial) it needs no
	// key group either.
	if !m.accept(e) && m.Monotone() {
		return
	}
	var key int64
	if m.prog.Key != nil {
		key = m.prog.Key(e)
	}
	g := m.groups[key]

	// Record potential blockers for retrospective negation evaluation.
	for i := range m.prog.Negations {
		if e.Type == m.prog.Negations[i].Type {
			g = m.ensureGroup(key, g)
			g.blockers[i] = insertSorted(g.blockers[i], e)
			m.addState(1)
			m.elems++
		}
	}

	// tombs: a tombstone was met or made. admit() may shed from inside the
	// loops below and walks every stage slice, so nothing is compacted
	// before they end.
	tombs := false
	lastStage := len(m.prog.Stages) - 1
	for k := range m.prog.Stages {
		if !m.accepted[k] {
			continue
		}
		stage := &m.prog.Stages[k]
		if k == 0 { // accept left the one-event candidate in m.scratch
			if stage.Pred != nil && !stage.Pred(m.scratch) {
				continue
			}
			if lastStage == 0 {
				g = m.complete(key, g, emit)
			} else if m.admit() {
				g = m.ensureGroup(key, g)
				p := &partial{events: []event.Event{e}, firstTS: e.TS}
				if m.patternAware {
					p.item = m.heap.Push(m.score(0, e.TS), p)
				}
				g.partials[0] = append(g.partials[0], p)
				due := e.TS + m.prog.Window - 1
				g.due, m.nextDue = min(g.due, due), min(m.nextDue, due)
				m.addState(1)
				m.elems++
			} else {
				m.lost += m.lossBound(0, e.TS)
			}
			continue
		}
		if g == nil {
			continue
		}
		for _, p := range g.partials[k-1] {
			if p.dead {
				tombs = true
				continue
			}
			if e.TS <= p.events[len(p.events)-1].TS || e.TS-p.firstTS >= m.prog.Window {
				continue
			}
			m.scratch = append(append(m.scratch[:0], p.events...), e)
			if stage.Pred != nil && !stage.Pred(m.scratch) {
				continue
			}
			if k == lastStage {
				m.complete(key, g, emit)
			} else if m.admit() {
				adv := &partial{events: slices.Clone(m.scratch), firstTS: p.firstTS, stage: k}
				if m.patternAware {
					adv.item = m.heap.Push(m.score(k, p.firstTS), adv)
				}
				g.partials[k] = append(g.partials[k], adv)
				m.addState(1)
				m.elems += int64(k + 1)
			} else {
				m.lost += m.lossBound(k, p.firstTS)
			}
			// Under SkipTillAnyMatch the original partial survives and may
			// combine with later events — the exponential behaviour. Under
			// SkipTillNextMatch / StrictContiguity its next relevant event
			// consumes it, unless admit/complete shed it just now.
			if m.prog.Policy != SkipTillAnyMatch && !p.dead {
				m.dropPartial(p)
			}
			tombs = tombs || p.dead
		}
	}
	if g == nil {
		return
	}

	// Strict contiguity: any event that did not advance a partial of the
	// same key kills it.
	if m.prog.Policy == StrictContiguity {
		for k := range g.partials {
			for _, p := range g.partials[k] {
				if !p.dead && p.events[len(p.events)-1].TS != e.TS {
					m.dropPartial(p)
				}
				tombs = tombs || p.dead
			}
		}
	}
	if tombs {
		for k := range g.partials {
			g.partials[k] = compact(g.partials[k])
		}
	}
}

// complete handles the fully matched candidate in m.scratch: with negations
// a copy is parked in the key's group until the watermark confirms all
// potential blockers were seen; otherwise a copy is emitted immediately.
// It returns the group, which parking may have created.
func (m *Machine) complete(key int64, g *group, emit Emit) *group {
	if len(m.prog.Negations) == 0 {
		emit(event.NewMatch(slices.Clone(m.scratch)...))
		return g
	}
	if !m.admit() {
		m.lost++ // shed: the would-be match is dropped, never fabricated
		return g
	}
	g = m.ensureGroup(key, g)
	events := slices.Clone(m.scratch)
	pm := &pendingMatch{
		events: events,
		lastTS: events[len(events)-1].TS,
	}
	if m.patternAware {
		pm.item = m.heap.Push(pendingScore, pm)
	}
	g.pending = append(g.pending, pm)
	m.hold = min(m.hold, pm.lastTS-1)
	m.addState(1)
	m.elems += int64(len(events))
	return g
}

// OnWatermark prunes expired partials, resolves pending negated matches,
// and evicts dead blockers. Without negations a watermark below nextDue
// returns at once; with them every watermark sweeps, because the bound at
// which a blocker becomes evictable is not as cheap to keep.
func (m *Machine) OnWatermark(wm event.Time, emit Emit) {
	if wm > m.curTS {
		m.curTS = wm
	}
	negated := len(m.prog.Negations) > 0
	if wm < m.nextDue && !negated {
		return
	}
	m.nextDue, m.hold = event.MaxWatermark, event.MaxWatermark
	for key, g := range m.groups {
		if wm < g.due && !negated {
			m.nextDue = min(m.nextDue, g.due)
			continue
		}
		g.due = event.MaxWatermark
		// Partials that can no longer complete within the window.
		for k, ps := range g.partials {
			n := 0
			for _, p := range ps {
				if p.dead {
					continue
				}
				due := p.firstTS + m.prog.Window - 1
				if due <= wm {
					m.dropPartial(p)
					continue
				}
				g.due = min(g.due, due)
				ps[n] = p
				n++
			}
			clear(ps[n:])
			g.partials[k] = ps[:n]
		}
		m.nextDue = min(m.nextDue, g.due)
		// Pending matches whose blocker intervals are fully observed.
		n := 0
		for _, pm := range g.pending {
			if pm.dead {
				continue
			}
			if pm.lastTS-1 > wm {
				m.hold = min(m.hold, pm.lastTS-1)
				g.pending[n] = pm
				n++
				continue
			}
			m.detachPending(pm)
			m.addState(-1)
			m.elems -= int64(len(pm.events))
			if m.survivesNegations(g, pm.events) {
				emit(event.NewMatch(pm.events...))
			}
		}
		clear(g.pending[n:])
		g.pending = g.pending[:n]
		m.evictBlockers(g, wm)
		if m.groupEmpty(g) {
			delete(m.groups, key)
		}
	}
}

func (m *Machine) survivesNegations(g *group, events []event.Event) bool {
	for i, neg := range m.prog.Negations {
		after := events[neg.After].TS
		before := events[neg.After+1].TS
		bs := g.blockers[i]
		from := sort.Search(len(bs), func(k int) bool { return bs[k].TS > after })
		for j := from; j < len(bs) && bs[j].TS < before; j++ {
			if neg.Pred == nil {
				return false
			}
			m.scratch = append(append(m.scratch[:0], events...), bs[j])
			if neg.Pred(m.scratch) {
				return false
			}
		}
	}
	return true
}

// evictBlockers drops blockers no live or future match can reference: a
// blocker matters only when some match's first constituent precedes it, and
// future partials start strictly after the watermark.
func (m *Machine) evictBlockers(g *group, wm event.Time) {
	minFirst := wm
	for k := range g.partials {
		for _, p := range g.partials[k] {
			if !p.dead && p.firstTS < minFirst {
				minFirst = p.firstTS
			}
		}
	}
	for _, pm := range g.pending {
		if !pm.dead && pm.events[0].TS < minFirst {
			minFirst = pm.events[0].TS
		}
	}
	for i := range g.blockers {
		bs := g.blockers[i]
		cut := 0
		for cut < len(bs) && bs[cut].TS <= minFirst {
			cut++
		}
		if cut > 0 {
			m.addState(-int64(cut))
			m.elems -= int64(cut)
			n := copy(bs, bs[cut:])
			g.blockers[i] = bs[:n]
		}
	}
}

func (m *Machine) groupEmpty(g *group) bool {
	for k := range g.partials {
		if len(g.partials[k]) > 0 {
			return false
		}
	}
	if len(g.pending) > 0 {
		return false
	}
	for i := range g.blockers {
		if len(g.blockers[i]) > 0 {
			return false
		}
	}
	return true
}

// Hold returns the watermark hold required by pending negated matches: they
// will be emitted with their last constituent's (past) timestamp.
func (m *Machine) Hold() event.Time { return m.hold }

func insertSorted(buf []event.Event, e event.Event) []event.Event {
	i := len(buf)
	for i > 0 && buf[i-1].TS > e.TS {
		i--
	}
	buf = append(buf, event.Event{})
	copy(buf[i+1:], buf[i:])
	buf[i] = e
	return buf
}
