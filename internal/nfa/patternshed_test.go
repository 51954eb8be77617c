package nfa

import (
	"encoding/json"
	"math"
	"sort"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
	"cep2asp/internal/workload"
)

// runSeq3 executes SEQ(A,B,C) under a 2-unit budget with the given
// victim-selection strategy and returns the matches plus the final
// lost-match bound.
func runSeq3(t *testing.T, patternAware bool, events []event.Event) ([]*event.Match, float64) {
	t.Helper()
	prog := &Program{
		Name: "seq3",
		Stages: []Stage{
			{Name: "a", Type: tA},
			{Name: "b", Type: tB},
			{Name: "c", Type: tC},
		},
		Window: 100 * event.Minute,
		Policy: SkipTillAnyMatch,
	}
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	m.SetPatternAware(patternAware)
	m.SetBudget(
		func() int64 { return 2 },
		func() int64 { return 1 },
		func(int64) {},
	)
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	for _, e := range events {
		m.OnEvent(e, emit)
	}
	m.OnWatermark(event.MaxWatermark, emit)
	return out, m.LostMatchBound()
}

// TestShedPatternAwareKeepsNearCompletePartial pins the scenario
// oldest-first gets wrong: a partial one transition from completing is
// older than a crowd of fresh first-stage partials, so age-order eviction
// kills it just before its closing event arrives. Pattern-aware selection
// ranks advancement above freshness and must retain a superset of the
// oldest-first matches here.
func TestShedPatternAwareKeepsNearCompletePartial(t *testing.T) {
	events := []event.Event{
		ev(tA, 0, 1), // seeds the stage-0 partial...
		ev(tB, 1, 1), // ...which advances: (A0,B1) is one C from a match
		ev(tA, 2, 1), // fresh stage-0 pressure; the 2-unit budget forces
		ev(tA, 3, 1), // eviction on every insert from here on
		ev(tC, 4, 1), // the closing event
	}

	oldest, _ := runSeq3(t, false, events)
	aware, lost := runSeq3(t, true, events)

	if len(oldest) != 0 {
		t.Fatalf("oldest-first unexpectedly completed %d matches; the scenario no longer discriminates", len(oldest))
	}
	if len(aware) != 1 {
		t.Fatalf("pattern-aware completed %d matches, want the 1 near-complete partial", len(aware))
	}
	got := matchKey(aware[0])
	want := matchKey(&event.Match{Events: []event.Event{ev(tA, 0, 1), ev(tB, 1, 1), ev(tC, 4, 1)}})
	if got != want {
		t.Fatalf("pattern-aware match %s, want %s", got, want)
	}

	// Superset property: every oldest-first match is a pattern-aware match.
	awareSet := make(map[string]bool, len(aware))
	for _, ma := range aware {
		awareSet[matchKey(ma)] = true
	}
	for _, ma := range oldest {
		if !awareSet[matchKey(ma)] {
			t.Fatalf("oldest-first match %s missing from pattern-aware run", matchKey(ma))
		}
	}

	// Eviction under pattern-aware selection still charges the recall
	// account: the shed stage-0 partials were worth at least one potential
	// match each.
	if lost < 1 {
		t.Fatalf("lost-match bound %g after shedding, want >= 1", lost)
	}
}

// TestShedPatternAwareSupersetOnDenseStream checks the same ordering on a
// seeded dense skip-till-any workload: at an equal budget the
// pattern-aware run must retain at least as many matches as oldest-first,
// every one of them drawn from the unbudgeted match set.
func TestShedPatternAwareSupersetOnDenseStream(t *testing.T) {
	// Repeating A-runs punctuated by B,C bursts: stage-1 partials formed in
	// one burst complete in the next only if eviction spares them.
	var events []event.Event
	ts := int64(0)
	for round := 0; round < 12; round++ {
		for i := 0; i < 6; i++ {
			events = append(events, ev(tA, ts, float64(i)))
			ts++
		}
		events = append(events, ev(tB, ts, 0))
		ts++
		events = append(events, ev(tC, ts, 0))
		ts++
	}

	prog := &Program{
		Name: "seq3dense",
		Stages: []Stage{
			{Name: "a", Type: tA},
			{Name: "b", Type: tB},
			{Name: "c", Type: tC},
		},
		Window: 100 * event.Minute,
		Policy: SkipTillAnyMatch,
	}
	full := collect(t, prog, events)
	fullSet := make(map[string]bool, len(full))
	for _, ma := range full {
		fullSet[matchKey(ma)] = true
	}

	oldest, _ := runSeq3(t, false, events)
	aware, _ := runSeq3(t, true, events)

	if len(aware) < len(oldest) {
		t.Fatalf("pattern-aware retained %d matches, oldest-first %d", len(aware), len(oldest))
	}
	if len(aware) == 0 {
		t.Fatal("pattern-aware run produced no matches")
	}
	for _, ma := range aware {
		if !fullSet[matchKey(ma)] {
			t.Fatalf("pattern-aware fabricated match %s absent unbudgeted", matchKey(ma))
		}
	}
}

// TestShedBeforeLaterStageObservedChargesUnknownLoss pins the recall
// account against the case that made it over-report: partials shed while a
// later stage's type has not arrived at all (its source is simply behind)
// used to be priced at rate zero, one lost match each, however many
// completions the unseen stream then delivered. An unobserved rate supports
// no bound, so the charge is the finite overload.UnknownLoss sentinel; once
// every remaining stage's rate is known the charge is rate-derived again.
func TestShedBeforeLaterStageObservedChargesUnknownLoss(t *testing.T) {
	var events []event.Event
	for ts := int64(0); ts < 8; ts++ {
		events = append(events, ev(tA, ts, 1)) // no B or C yet: every insert sheds
	}
	_, lost := runSeq3(t, false, events)
	if lost < overload.UnknownLoss || math.IsInf(lost, 0) {
		t.Fatalf("lost-match bound %g with B and C unobserved, want finite and >= %g", lost, overload.UnknownLoss)
	}
	if _, err := json.Marshal(lost); err != nil {
		t.Fatalf("bound is not exportable: %v", err)
	}

	// B and C each seen twice before the budget bites: rates are known.
	known := []event.Event{ev(tB, 0, 1), ev(tB, 1, 1), ev(tC, 2, 1), ev(tC, 3, 1)}
	for ts := int64(4); ts < 12; ts++ {
		known = append(known, ev(tA, ts, 1))
	}
	if _, lost := runSeq3(t, false, known); lost < 1 || lost >= overload.UnknownLoss {
		t.Fatalf("lost-match bound %g with every rate observed, want rate-derived (>= 1, < %g)", lost, overload.UnknownLoss)
	}
}

// TestLostEventBoundChargesAcceptedStagesOnly: an input event dropped
// before the automaton saw it is charged for the stages whose accept it
// passes. One that no stage accepts, of a foreign type or failing every
// accept, is in no match and costs nothing, even while a rate the charge
// would need is still unobserved.
func TestLostEventBoundChargesAcceptedStagesOnly(t *testing.T) {
	m, err := NewMachine(&Program{
		Name:   "seqAB",
		Stages: []Stage{{Type: tA, Accept: lastValue(10)}, {Type: tB}},
		Window: 10 * event.Minute,
	})
	if err != nil {
		t.Fatal(err)
	}
	m.SetPatternAware(true) // the machine observes arrival rates
	emit := func(*event.Match) {}
	m.OnEvent(ev(tA, 0, 50), emit)
	m.OnEvent(ev(tA, 1, 50), emit)
	for name, e := range map[string]event.Event{"failing the accept": ev(tA, 2, 50), "of a foreign type": ev(tC, 2, 1)} {
		if b := m.LostEventBound(e); b != 0 {
			t.Errorf("event %s: bound %g, want 0", name, b)
		}
	}
	if b := m.LostEventBound(ev(tA, 2, 1)); b != overload.UnknownLoss {
		t.Errorf("accepted a with b's rate unobserved: bound %g, want %g", b, overload.UnknownLoss)
	}
	// Rejected a events still count toward a's rate: b is charged by it.
	if b := m.LostEventBound(ev(tB, 2, 1)); b <= 0 || b >= overload.UnknownLoss {
		t.Errorf("accepted b with a's rate observed: bound %g, want rate-derived (> 0, < %g)", b, overload.UnknownLoss)
	}
}

// TestShedPatternAwareAtLeastOldestOnMergedFeed is the "pattern-aware
// retains at least what oldest-first does" inequality on the seeded QnV
// workload the facade tests shed, fed as one pre-merged, timestamp-ordered
// stream: the machine then sees the same interleaving on every run, which
// two independently scheduled two-source jobs do not. The budget is the
// handful of units the facade's 48-unit operator budget leaves the
// automaton once the reorder buffer has taken its share. The inequality is
// pinned there only: on this feed it is false from 12 units up (ROADMAP
// item 4).
func TestShedPatternAwareAtLeastOldestOnMergedFeed(t *testing.T) {
	q, v := workload.QnV(workload.QnVConfig{Sensors: 10, Minutes: 180, Seed: 11})
	feed := append(append([]event.Event{}, q...), v...)
	sort.SliceStable(feed, func(a, b int) bool { return feed[a].TS < feed[b].TS })
	prog := &Program{
		Name: "seqQV",
		Stages: []Stage{
			{Name: "q", Type: workload.TypeQuantity, Pred: func(es []event.Event) bool { return es[len(es)-1].Value >= 40 }},
			{Name: "v", Type: workload.TypeVelocity, Pred: func(es []event.Event) bool { return es[len(es)-1].Value <= 60 }},
		},
		Window: 30 * event.Minute,
		Policy: SkipTillAnyMatch,
	}
	run := func(patternAware bool) (matches int, shed int64) {
		m, err := NewMachine(prog)
		if err != nil {
			t.Fatal(err)
		}
		m.SetPatternAware(patternAware)
		m.SetBudget(
			func() int64 { return 8 },
			func() int64 { return 6 },
			func(dropped int64) { shed += dropped },
		)
		emit := func(*event.Match) { matches++ }
		for _, e := range feed {
			m.OnEvent(e, emit)
		}
		m.OnWatermark(event.MaxWatermark, emit)
		return matches, shed
	}
	oldest, oldestShed := run(false)
	aware, awareShed := run(true)
	if oldestShed == 0 || awareShed == 0 {
		t.Fatalf("budget never triggered shedding (oldest %d, aware %d)", oldestShed, awareShed)
	}
	if aware < oldest {
		t.Fatalf("pattern-aware retained %d matches, oldest-first %d", aware, oldest)
	}
}
