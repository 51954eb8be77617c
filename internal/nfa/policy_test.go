package nfa

import (
	"math/rand"
	"testing"

	"cep2asp/internal/event"
)

// Additional selection-policy and robustness tests for the NFA machine.

func TestSkipTillNextWithPredicates(t *testing.T) {
	prog := seqAB(SkipTillNextMatch)
	prog.Stages[1].Pred = func(es []event.Event) bool { return es[len(es)-1].Value > 10 }
	// The first B fails the predicate; stnm skips irrelevant events (an
	// event failing its predicate is irrelevant) until the next relevant
	// one.
	events := []event.Event{ev(tA, 0, 1), ev(tB, 1, 5), ev(tB, 2, 20)}
	got := collect(t, prog, events)
	if len(got) != 1 {
		t.Fatalf("got %d matches, want 1", len(got))
	}
	if got[0].Events[1].Value != 20 {
		t.Fatalf("stnm should take the next RELEVANT event: %v", got[0])
	}
}

func TestStrictContiguityRelevantBreaks(t *testing.T) {
	// Under strict contiguity even a same-type event that fails the
	// predicate breaks the partial.
	prog := seqAB(StrictContiguity)
	prog.Stages[1].Pred = func(es []event.Event) bool { return es[len(es)-1].Value > 10 }
	events := []event.Event{ev(tA, 0, 1), ev(tB, 1, 5), ev(tB, 2, 20)}
	got := collect(t, prog, events)
	if len(got) != 0 {
		t.Fatalf("sc: failing middle event must kill the partial, got %d", len(got))
	}
}

func TestStrictContiguityPerKey(t *testing.T) {
	// Contiguity is judged within the key's own sub-stream: another key's
	// event in between must not break the partial.
	prog := seqAB(StrictContiguity)
	prog.Key = func(e event.Event) int64 { return e.ID }
	other := ev(tC, 1, 0)
	other.ID = 99
	events := []event.Event{ev(tA, 0, 1), other, ev(tB, 2, 3)}
	got := collect(t, prog, events)
	if len(got) != 1 {
		t.Fatalf("cross-key event broke contiguity: got %d matches", len(got))
	}
}

func TestNegationWithIteration(t *testing.T) {
	// SEQ(A, !B, ITER-expanded C C): negation interval ends at the first
	// C constituent.
	prog := &Program{
		Name:      "neg-iter",
		Stages:    []Stage{{Type: tA}, {Type: tC}, {Type: tC}},
		Negations: []Negation{{Type: tB, After: 0}},
		Window:    10 * event.Minute,
		Policy:    SkipTillAnyMatch,
	}
	events := []event.Event{
		ev(tA, 0, 1),
		ev(tB, 1, 0), // blocks everything starting at a@0
		ev(tC, 2, 2),
		ev(tC, 3, 3),
	}
	got := collect(t, prog, events)
	if len(got) != 0 {
		t.Fatalf("blocker before first C must void, got %d", len(got))
	}
	// Blocker after the first C does not fall into (a.ts, c1.ts).
	events = []event.Event{
		ev(tA, 0, 1),
		ev(tC, 2, 2),
		ev(tB, 3, 0),
		ev(tC, 4, 3),
	}
	got = collect(t, prog, events)
	if len(got) != 1 {
		t.Fatalf("blocker outside the absence interval voided the match, got %d", len(got))
	}
}

func TestWatermarkIdempotent(t *testing.T) {
	m, err := NewMachine(seqAB(SkipTillAnyMatch))
	if err != nil {
		t.Fatal(err)
	}
	emit := func(*event.Match) {}
	m.OnEvent(ev(tA, 0, 1), emit)
	m.OnWatermark(2*event.Minute, emit)
	s1 := m.StateSize()
	m.OnWatermark(2*event.Minute, emit)
	if m.StateSize() != s1 {
		t.Fatal("repeated watermark changed state")
	}
}

func TestHoldWithoutNegations(t *testing.T) {
	m, _ := NewMachine(seqAB(SkipTillAnyMatch))
	if h := m.Hold(); h != event.MaxWatermark {
		t.Fatalf("hold without pendings = %d, want MaxWatermark", h)
	}
}

// Fuzz-ish robustness: random event soup must never panic and state must
// drain to zero after the final watermark.
func TestRandomSoupDrains(t *testing.T) {
	prog := &Program{
		Name:      "soup",
		Stages:    []Stage{{Type: tA}, {Type: tB}, {Type: tC}},
		Negations: []Negation{{Type: tB, After: 1}},
		Window:    7 * event.Minute,
		Policy:    SkipTillAnyMatch,
		Key:       func(e event.Event) int64 { return e.ID },
	}
	for trial := 0; trial < 20; trial++ {
		m, err := NewMachine(prog)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(trial)))
		emit := func(*event.Match) {}
		types := []event.Type{tA, tB, tC}
		ts := event.Time(0)
		for i := 0; i < 200; i++ {
			ts += event.Time(rng.Int63n(3)) * event.Minute
			e := event.Event{
				Type:  types[rng.Intn(3)],
				ID:    int64(rng.Intn(4)),
				TS:    ts,
				Value: float64(rng.Intn(100)),
			}
			m.OnEvent(e, emit)
			if rng.Intn(5) == 0 {
				m.OnWatermark(ts-event.Minute, emit)
			}
		}
		m.OnWatermark(event.MaxWatermark, emit)
		if m.StateSize() != 0 {
			t.Fatalf("trial %d: state %d after final watermark", trial, m.StateSize())
		}
	}
}
