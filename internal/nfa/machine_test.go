package nfa

import (
	"sort"
	"testing"

	"cep2asp/internal/event"
)

var (
	tA = event.RegisterType("NfaA")
	tB = event.RegisterType("NfaB")
	tC = event.RegisterType("NfaC")
)

func ev(t event.Type, minute int64, value float64) event.Event {
	return event.Event{Type: t, ID: 1, TS: minute * event.Minute, Value: value}
}

func collect(t *testing.T, prog *Program, events []event.Event) []*event.Match {
	t.Helper()
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	for _, e := range events {
		m.OnEvent(e, emit)
	}
	m.OnWatermark(event.MaxWatermark, emit)
	return out
}

func seqAB(policy Policy) *Program {
	return &Program{
		Name:   "seq",
		Stages: []Stage{{Name: "a", Type: tA}, {Name: "b", Type: tB}},
		Window: 5 * event.Minute,
		Policy: policy,
	}
}

func TestSeqSkipTillAnyMatch(t *testing.T) {
	events := []event.Event{ev(tA, 0, 1), ev(tA, 1, 2), ev(tB, 2, 3), ev(tB, 3, 4)}
	got := collect(t, seqAB(SkipTillAnyMatch), events)
	// All in-window ordered pairs: (a0,b2),(a0,b3),(a1,b2),(a1,b3).
	if len(got) != 4 {
		t.Fatalf("stam: got %d matches, want 4", len(got))
	}
}

func TestSeqSkipTillNextMatch(t *testing.T) {
	events := []event.Event{ev(tA, 0, 1), ev(tA, 1, 2), ev(tB, 2, 3), ev(tB, 3, 4)}
	got := collect(t, seqAB(SkipTillNextMatch), events)
	// Each partial is consumed by its next relevant event: (a0,b2),(a1,b2).
	if len(got) != 2 {
		t.Fatalf("stnm: got %d matches, want 2: %v", len(got), got)
	}
	for _, m := range got {
		if m.Events[1].TS != 2*event.Minute {
			t.Fatalf("stnm must take the next match: %v", m)
		}
	}
}

func TestSeqStrictContiguity(t *testing.T) {
	// a, then an irrelevant C in between kills the partial.
	events := []event.Event{ev(tA, 0, 1), ev(tC, 1, 0), ev(tB, 2, 3)}
	got := collect(t, seqAB(StrictContiguity), events)
	if len(got) != 0 {
		t.Fatalf("sc: intervening event must kill the partial, got %d", len(got))
	}
	// Directly consecutive: matches.
	events = []event.Event{ev(tA, 0, 1), ev(tB, 1, 3)}
	got = collect(t, seqAB(StrictContiguity), events)
	if len(got) != 1 {
		t.Fatalf("sc: got %d matches, want 1", len(got))
	}
}

func TestWindowExpiry(t *testing.T) {
	events := []event.Event{ev(tA, 0, 1), ev(tB, 5, 2)} // exactly W apart
	got := collect(t, seqAB(SkipTillAnyMatch), events)
	if len(got) != 0 {
		t.Fatalf("pair exactly W apart must not match, got %d", len(got))
	}
}

func TestPartialPrunedOnWatermark(t *testing.T) {
	prog := seqAB(SkipTillAnyMatch)
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(*event.Match) {}
	m.OnEvent(ev(tA, 0, 1), emit)
	if m.StateSize() != 1 {
		t.Fatalf("state = %d, want 1", m.StateSize())
	}
	m.OnWatermark(10*event.Minute, emit)
	if m.StateSize() != 0 {
		t.Fatalf("expired partial not pruned: state = %d", m.StateSize())
	}
}

func TestStatePredicate(t *testing.T) {
	prog := seqAB(SkipTillAnyMatch)
	prog.Stages[0].Pred = func(es []event.Event) bool { return es[len(es)-1].Value > 10 }
	prog.Stages[1].Pred = func(es []event.Event) bool {
		return es[1].Value > es[0].Value
	}
	events := []event.Event{
		ev(tA, 0, 5),  // fails stage-0 pred
		ev(tA, 1, 20), // passes
		ev(tB, 2, 15), // fails cross pred (15 <= 20)
		ev(tB, 3, 25), // passes
	}
	got := collect(t, prog, events)
	if len(got) != 1 {
		t.Fatalf("got %d matches, want 1", len(got))
	}
	if got[0].Events[1].Value != 25 {
		t.Fatalf("wrong match: %v", got[0])
	}
}

func TestIterationAllowCombinations(t *testing.T) {
	prog := &Program{
		Name:   "iter3",
		Stages: []Stage{{Type: tA}, {Type: tA}, {Type: tA}},
		Window: 10 * event.Minute,
		Policy: SkipTillAnyMatch,
	}
	events := []event.Event{ev(tA, 0, 1), ev(tA, 1, 2), ev(tA, 2, 3), ev(tA, 3, 4)}
	got := collect(t, prog, events)
	if len(got) != 4 { // C(4,3)
		t.Fatalf("got %d combinations, want 4", len(got))
	}
}

func TestNegationBlocksRetrospectively(t *testing.T) {
	prog := &Program{
		Name:      "nseq",
		Stages:    []Stage{{Type: tA}, {Type: tC}},
		Negations: []Negation{{Type: tB, After: 0}},
		Window:    10 * event.Minute,
		Policy:    SkipTillAnyMatch,
	}
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	m.OnEvent(ev(tA, 0, 1), emit)
	m.OnEvent(ev(tB, 2, 0), emit) // blocker
	m.OnEvent(ev(tC, 4, 2), emit)
	m.OnEvent(ev(tA, 5, 3), emit)
	m.OnEvent(ev(tC, 7, 4), emit)
	// Nothing emitted before the watermark confirms the intervals.
	if len(out) != 0 {
		t.Fatalf("negated matches must be withheld until the watermark, got %d", len(out))
	}
	// The machine must hold the watermark for pending matches.
	if h := m.Hold(); h >= 4*event.Minute {
		t.Fatalf("hold = %d, want < first pending last-TS", h)
	}
	m.OnWatermark(event.MaxWatermark, emit)
	// (a0,c4) blocked by b2; (a0,c7) blocked; (a5,c7) clean.
	if len(out) != 1 {
		t.Fatalf("got %d matches, want 1: %v", len(out), out)
	}
	if out[0].Events[0].TS != 5*event.Minute {
		t.Fatalf("wrong surviving match: %v", out[0])
	}
}

func TestNegationPredicate(t *testing.T) {
	prog := &Program{
		Name:   "nseq-pred",
		Stages: []Stage{{Type: tA}, {Type: tC}},
		Negations: []Negation{{
			Type: tB, After: 0,
			Pred: func(es []event.Event) bool { return es[len(es)-1].Value > 10 },
		}},
		Window: 10 * event.Minute,
		Policy: SkipTillAnyMatch,
	}
	events := []event.Event{ev(tA, 0, 1), ev(tB, 2, 5), ev(tC, 4, 2)}
	got := collect(t, prog, events)
	// Blocker fails its predicate -> match survives.
	if len(got) != 1 {
		t.Fatalf("got %d matches, want 1", len(got))
	}
}

func TestKeyedPartitioning(t *testing.T) {
	prog := seqAB(SkipTillAnyMatch)
	prog.Key = func(e event.Event) int64 { return e.ID }
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	a1 := ev(tA, 0, 1)
	b2 := ev(tB, 1, 2)
	b2.ID = 2 // different key: no match
	m.OnEvent(a1, emit)
	m.OnEvent(b2, emit)
	if len(out) != 0 {
		t.Fatalf("cross-key match produced: %v", out)
	}
	b1 := ev(tB, 2, 3)
	m.OnEvent(b1, emit)
	if len(out) != 1 {
		t.Fatalf("same-key match missing, got %d", len(out))
	}
}

func TestStateGrowsWithSelectivity(t *testing.T) {
	// The paper's core observation: under skip-till-any-match, partial
	// match state grows with the number of relevant events in the window.
	prog := seqAB(SkipTillAnyMatch)
	prog.Window = 1000 * event.Minute
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	emit := func(*event.Match) {}
	for i := int64(0); i < 100; i++ {
		m.OnEvent(ev(tA, i, 1), emit)
	}
	if m.StateSize() != 100 {
		t.Fatalf("state = %d, want 100 (one partial per A)", m.StateSize())
	}
	// Each B matches all 100 partials but consumes none under stam.
	m.OnEvent(ev(tB, 100, 1), emit)
	if m.StateSize() != 100 {
		t.Fatalf("stam must keep partials after matching: %d", m.StateSize())
	}
}

func TestGroupsCleanedUp(t *testing.T) {
	prog := seqAB(SkipTillAnyMatch)
	prog.Key = func(e event.Event) int64 { return e.ID }
	m, _ := NewMachine(prog)
	emit := func(*event.Match) {}
	for id := int64(0); id < 50; id++ {
		e := ev(tA, 0, 1)
		e.ID = id
		m.OnEvent(e, emit)
	}
	m.OnWatermark(event.MaxWatermark, emit)
	if len(m.groups) != 0 {
		t.Fatalf("%d empty groups retained", len(m.groups))
	}
}

func TestValidateErrors(t *testing.T) {
	bad := []*Program{
		{Name: "no stages", Window: event.Minute},
		{Name: "no window", Stages: []Stage{{Type: tA}}},
		{Name: "neg out of range", Stages: []Stage{{Type: tA}, {Type: tB}},
			Window: event.Minute, Negations: []Negation{{Type: tC, After: 1}}},
		{Name: "first stage shares an accept", Stages: []Stage{{Type: tA, SharesAccept: true}}, Window: event.Minute},
		{Name: "accept shared across types", Stages: []Stage{{Type: tA}, {Type: tB, SharesAccept: true}},
			Window: event.Minute},
	}
	for _, p := range bad {
		if _, err := NewMachine(p); err == nil {
			t.Errorf("NewMachine(%s) succeeded, want error", p.Name)
		}
	}
}

func TestPolicyOrderingInvariant(t *testing.T) {
	// stnm and sc results are subsets of stam (§3.1.4).
	events := []event.Event{
		ev(tA, 0, 1), ev(tB, 1, 2), ev(tA, 2, 3), ev(tC, 3, 0), ev(tB, 4, 4),
	}
	keys := func(ms []*event.Match) map[string]bool {
		out := make(map[string]bool)
		for _, m := range ms {
			out[m.Key()] = true
		}
		return out
	}
	stam := keys(collect(t, seqAB(SkipTillAnyMatch), events))
	stnm := keys(collect(t, seqAB(SkipTillNextMatch), events))
	sc := keys(collect(t, seqAB(StrictContiguity), events))
	for k := range stnm {
		if !stam[k] {
			t.Fatalf("stnm match %q missing from stam", k)
		}
	}
	for k := range sc {
		if !stam[k] {
			t.Fatalf("sc match %q missing from stam", k)
		}
	}
	if len(sc) > len(stnm) || len(stnm) > len(stam) {
		t.Fatalf("policy sizes not nested: sc=%d stnm=%d stam=%d", len(sc), len(stnm), len(stam))
	}
}

func TestMatchesSortedConstituents(t *testing.T) {
	events := []event.Event{ev(tA, 3, 1), ev(tB, 4, 2)}
	got := collect(t, seqAB(SkipTillAnyMatch), events)
	if len(got) != 1 {
		t.Fatalf("got %d", len(got))
	}
	ts := []int64{got[0].Events[0].TS, got[0].Events[1].TS}
	if !sort.SliceIsSorted(ts, func(i, j int) bool { return ts[i] < ts[j] }) {
		t.Fatal("constituents out of order")
	}
}
