package core

import (
	"context"
	"math/rand"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// Out-of-order ingestion: with a declared lateness bound, every execution
// path must still produce the oracle's match set — the event-time
// processing guarantee the paper attributes to ASP systems (§2, §6).

func runPlanLate(t *testing.T, pat *sea.Pattern, opts Options, fcep bool, data map[event.Type][]event.Event, lateness event.Time) *asp.Results {
	t.Helper()
	var plan *Plan
	var err error
	if fcep {
		plan, err = TranslateFCEP(pat, opts)
	} else {
		plan, err = Translate(pat, opts)
	}
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	env, res, err := Build(plan, BuildConfig{
		Engine:      asp.Config{WatermarkInterval: 1},
		Data:        data,
		Lateness:    lateness,
		KeepMatches: true,
	})
	if err != nil {
		t.Fatalf("build: %v", err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("execute: %v", err)
	}
	return res
}

func TestOutOfOrderEquivalence(t *testing.T) {
	patterns := []string{
		`PATTERN SEQ(OOA a, OOB b) WHERE a.value <= b.value WITHIN 5 MINUTES SLIDE 1 MINUTE`,
		`PATTERN AND(OOA a, OOB b) WITHIN 5 MINUTES SLIDE 1 MINUTE`,
		`PATTERN ITER(OOA e, 3) WHERE e[i].value < e[i+1].value WITHIN 8 MINUTES SLIDE 1 MINUTE`,
		`PATTERN SEQ(OOA a, !OOX x, OOB b) WITHIN 6 MINUTES SLIDE 1 MINUTE`,
	}
	lateness := 3 * event.Minute
	for _, src := range patterns {
		pat := mustPattern(t, src)
		for trial := 0; trial < 5; trial++ {
			rng := rand.New(rand.NewSource(int64(trial)*17 + 5))
			data := make(map[event.Type][]event.Event)
			var all []event.Event
			for _, l := range pat.Leaves() {
				if _, ok := data[l.Type]; ok {
					continue
				}
				s := genStream(rng, l.Type, 10, 30, 1)
				all = append(all, s...)
				shuffled := workload.Disorder(s, lateness, int64(trial))
				if got := workload.MaxDisorder(shuffled); got > lateness {
					t.Fatalf("Disorder exceeded its bound: %d > %d", got, lateness)
				}
				data[l.Type] = shuffled
			}
			oracle := sortedKeys(sea.Evaluate(pat, all))
			fasp := runPlanLate(t, pat, Options{}, false, data, lateness)
			equalSets(t, src+"/FASP-late", oracle, sortedKeys(fasp.Matches()))
			o1 := runPlanLate(t, pat, Options{UseIntervalJoin: true}, false, data, lateness)
			equalSets(t, src+"/O1-late", oracle, sortedKeys(o1.Matches()))
			// FCEP supports SEQ/ITER/NSEQ only (Table 2).
			if _, isAnd := pat.Root.(*sea.AndNode); !isAnd {
				fcep := runPlanLate(t, pat, Options{}, true, data, lateness)
				equalSets(t, src+"/FCEP-late", oracle, sortedKeys(fcep.Matches()))
			}
		}
	}
}

func TestDisorderBoundProperty(t *testing.T) {
	q, _ := workload.QnV(workload.QnVConfig{Sensors: 5, Minutes: 200, Seed: 3})
	for _, d := range []event.Time{event.Minute, 5 * event.Minute, 20 * event.Minute} {
		shuffled := workload.Disorder(q, d, 99)
		if len(shuffled) != len(q) {
			t.Fatal("Disorder changed stream length")
		}
		if got := workload.MaxDisorder(shuffled); got > d {
			t.Fatalf("disorder %d exceeds bound %d", got, d)
		}
		// Multiset preserved.
		count := func(s []event.Event) map[event.Event]int {
			m := make(map[event.Event]int, len(s))
			for _, e := range s {
				m[e]++
			}
			return m
		}
		orig, got := count(q), count(shuffled)
		if len(orig) != len(got) {
			t.Fatal("Disorder altered the event multiset")
		}
		for e, n := range orig {
			if got[e] != n {
				t.Fatalf("Disorder altered event %v", e)
			}
		}
	}
	// Some actual disorder must be present for non-trivial delays.
	shuffled := workload.Disorder(q, 10*event.Minute, 1)
	if workload.MaxDisorder(shuffled) == 0 {
		t.Fatal("Disorder produced a perfectly ordered stream")
	}
}

// TestFCEPDropsLateRecords: the NFA operator is a State, so the engine
// drops a record behind its merged watermark instead of feeding it to the
// automaton after events the reorder buffer already released. One source,
// so the merged watermark is that source's own: 20 min moves it to
// 19 min − 1, and 12 min, arriving next, is late. The matches are the
// oracle's over the other three events.
func TestFCEPDropsLateRecords(t *testing.T) {
	pat := mustPattern(t, `PATTERN ITER(OOA e, 2) WITHIN 15 MINUTES SLIDE 1 MINUTE`)
	typ := pat.Leaves()[0].Type
	at := func(minutes ...event.Time) []event.Event {
		var out []event.Event
		for _, m := range minutes {
			out = append(out, event.Event{Type: typ, ID: 1, TS: m * event.Minute})
		}
		return out
	}
	plan, err := TranslateFCEP(pat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	reg := obs.NewRegistry()
	env, res, err := Build(plan, BuildConfig{
		Engine:      asp.Config{WatermarkInterval: 1, Metrics: reg},
		Data:        map[event.Type][]event.Event{typ: at(10, 20, 12, 30)},
		Lateness:    event.Minute,
		KeepMatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(sea.Evaluate(pat, at(10, 20, 30)))
	if len(want) != 2 {
		t.Fatalf("the oracle has %d matches over 10, 20 and 30 min, want (10, 20) and (20, 30)", len(want))
	}
	equalSets(t, "FCEP-late", want, sortedKeys(res.Matches()))
	var late int64
	for _, op := range reg.Snapshot().Operators {
		if op.Node == "cep-nfa" {
			late += op.Late
		}
	}
	if late != 1 {
		t.Fatalf("cep-nfa Late counter = %d, want 1 (the 12 min event)", late)
	}
}
