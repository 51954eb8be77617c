package cep2asp

import (
	"context"
	"errors"
	"strings"
	"testing"
)

// shedJob builds a tightly budgeted Shed-policy job over the given
// streams, in FCEP or decomposed mode, with the chosen victim strategy.
func shedJob(t *testing.T, pattern string, streams map[string][]Event, fcep bool, budget int64, strat ShedStrategy) *RunStats {
	t.Helper()
	p, err := Parse(pattern)
	if err != nil {
		t.Fatal(err)
	}
	j := NewJob(p)
	for name, evs := range streams {
		j.AddStream(name, evs)
	}
	if fcep {
		j.UseFCEP()
	}
	if budget > 0 {
		j.WithStateBudget(budget, 0).
			WithOverloadPolicy(OverloadShed).
			WithShedStrategy(strat)
	}
	stats, err := j.Run(context.Background())
	if err != nil {
		t.Fatalf("Run(%s, budget=%d): %v", pattern, budget, err)
	}
	return stats
}

// TestRecallEstimateLowerBound checks the recall accounting contract on
// seeded workloads across the operator spectrum — SEQ, AND, ITER and
// NSEQ, in both engine modes and under both victim strategies: the
// reported RecallEstimate must never over-report the recall actually
// achieved against the unbudgeted reference run, and an unshed run must
// report estimate 1.
func TestRecallEstimateLowerBound(t *testing.T) {
	q, v := GenerateQnV(4, 120, 11)
	pm10, _, _, _ := GenerateAirQuality(4, 120, 13)
	qnv := map[string][]Event{"QnVQuantity": q, "QnVVelocity": v}
	nseqStreams := map[string][]Event{"QnVQuantity": q, "QnVVelocity": v, "PM10": pm10}

	cases := []struct {
		name    string
		pattern string
		streams map[string][]Event
		budget  int64
		noFCEP  bool // conjunction is decomposed-only (paper Table 2)
	}{
		{"SEQ", `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 WITHIN 30 MINUTES`, qnv, 48, false},
		{"AND", `PATTERN AND(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 30 AND v.value <= 70 WITHIN 15 MIN`, qnv, 32, true},
		{"ITER", `PATTERN ITER(QnVVelocity v, 3)
			WHERE v.value <= 40 WITHIN 15 MINUTES`, map[string][]Event{"QnVVelocity": v}, 32, false},
		{"NSEQ", `PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 60 WITHIN 15 MIN`, nseqStreams, 32, false},
	}

	for _, tc := range cases {
		for _, fcep := range []bool{true, false} {
			if fcep && tc.noFCEP {
				continue
			}
			mode := "decomposed"
			if fcep {
				mode = "fcep"
			}
			t.Run(tc.name+"/"+mode, func(t *testing.T) {
				full := shedJob(t, tc.pattern, tc.streams, fcep, 0, ShedOldestFirst)
				if full.RecallEstimate != 1 {
					t.Errorf("unbudgeted run: RecallEstimate %g, want 1", full.RecallEstimate)
				}
				if full.Unique == 0 {
					t.Skip("reference run produced no matches at this seed")
				}
				for _, strat := range []ShedStrategy{ShedOldestFirst, ShedPatternAware} {
					shed := shedJob(t, tc.pattern, tc.streams, fcep, tc.budget, strat)
					if shed.RecallEstimate < 0 || shed.RecallEstimate > 1 {
						t.Fatalf("%v: RecallEstimate %g outside [0, 1]", strat, shed.RecallEstimate)
					}
					achieved := float64(shed.Unique) / float64(full.Unique)
					if shed.RecallEstimate > achieved+1e-9 {
						t.Fatalf("%v: RecallEstimate %g over-reports achieved recall %g (unique %d of %d, lost bound %g)",
							strat, shed.RecallEstimate, achieved, shed.Unique, full.Unique, shed.RecallLostBound)
					}
					if shed.ShedRecords > 0 && shed.RecallEstimate >= 1 {
						t.Fatalf("%v: shed %d records but RecallEstimate stayed %g",
							strat, shed.ShedRecords, shed.RecallEstimate)
					}
				}
			})
		}
	}
}

// TestPatternAwareRetainsAtLeastOldestFacade checks, end to end on a seeded
// workload, what holds whatever order the two sources are scheduled in:
// both strategies shed at the budget, and every match either retains comes
// from the unbudgeted match set. How many each retains depends on the
// interleaving, so the "aware >= oldest" comparison lives in internal/nfa
// (TestShedPatternAwareAtLeastOldestOnMergedFeed) on one pre-merged feed.
func TestPatternAwareRetainsAtLeastOldestFacade(t *testing.T) {
	q, v := GenerateQnV(10, 180, 11)
	streams := map[string][]Event{"QnVQuantity": q, "QnVVelocity": v}
	pattern := `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 40 AND v.value <= 60 WITHIN 30 MINUTES`

	fullSet := matchSet(shedJob(t, pattern, streams, true, 0, ShedOldestFirst))
	for _, strat := range []ShedStrategy{ShedOldestFirst, ShedPatternAware} {
		shed := shedJob(t, pattern, streams, true, 48, strat)
		if shed.ShedRecords == 0 {
			t.Fatalf("%v: budget never triggered shedding", strat)
		}
		for k := range matchSet(shed) {
			if !fullSet[k] {
				t.Fatalf("%v fabricated match %s absent from unbudgeted run", strat, k)
			}
		}
	}
}

// TestWithQualityHoldsMinRecall runs a demanding MinRecall against a
// workload that must shed: the quality controller has to notice the
// recall estimate dipping and switch the victim strategy to
// pattern-aware at runtime, recording the decision in QualityActions.
func TestWithQualityHoldsMinRecall(t *testing.T) {
	// Throttled sources keep the run in flight across many controller
	// polls (10ms cadence), so the strategy switch lands mid-execution —
	// the sustained-overload shape the controller is built for.
	q, v := GenerateQnV(10, 150, 11)
	p, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 40 AND v.value <= 60 WITHIN 30 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	stats, err := NewJob(p).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		UseFCEP().
		WithSourceRate(15000).
		WithStateBudget(24, 0).
		WithOverloadPolicy(OverloadShed).
		WithQuality(QualitySpec{MinRecall: 0.99}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.ShedRecords == 0 {
		t.Fatal("workload never shed; the quality demand was never exercised")
	}
	var switched bool
	for _, a := range stats.QualityActions {
		if strings.HasPrefix(a, "shed-pattern-aware") {
			switched = true
		}
	}
	if !switched {
		t.Fatalf("controller never switched to pattern-aware shedding; actions: %v", stats.QualityActions)
	}
	if stats.RecallEstimate >= 1 {
		t.Fatalf("shed run reports RecallEstimate %g", stats.RecallEstimate)
	}
}

// TestWithQualityInfeasibleFailsFast pins the structured error contract:
// demands no controller decision could satisfy abort before execution.
func TestWithQualityInfeasibleFailsFast(t *testing.T) {
	q, v := GenerateQnV(2, 10, 1)
	p, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	if err != nil {
		t.Fatal(err)
	}
	// MinRecall under the Fail policy with a budget: nothing to trade.
	_, err = NewJob(p).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithStateBudget(16, 0).
		WithQuality(QualitySpec{MinRecall: 0.9}).
		Run(context.Background())
	var inf *QualityInfeasibleError
	if !errors.As(err, &inf) {
		t.Fatalf("err = %v, want *QualityInfeasibleError", err)
	}

	// Quality demands hold on supervised runs too.
	if _, err = NewJob(p).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithRestartPolicy(RestartPolicy{MaxRestarts: 1}).
		WithQuality(QualitySpec{MinRecall: 0.5}).
		Run(context.Background()); err != nil {
		t.Fatalf("WithQuality+WithRestartPolicy: %v", err)
	}

	// Malformed demand.
	_, err = NewJob(p).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithQuality(QualitySpec{MinRecall: 1.5}).
		Run(context.Background())
	if err == nil {
		t.Fatal("MinRecall above 1 did not error")
	}
}

// TestWithShedStrategyValidation pins the builder error path.
func TestWithShedStrategyValidation(t *testing.T) {
	q, v := GenerateQnV(2, 10, 1)
	p, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	if err != nil {
		t.Fatal(err)
	}
	_, err = NewJob(p).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithShedStrategy(ShedStrategy(42)).
		Run(context.Background())
	if err == nil {
		t.Fatal("unknown shed strategy did not error")
	}
	if s, perr := ParseShedStrategy("pattern"); perr != nil || s != ShedPatternAware {
		t.Fatalf("ParseShedStrategy(pattern) = %v, %v", s, perr)
	}
	if _, perr := ParseShedStrategy("bogus"); perr == nil {
		t.Fatal("ParseShedStrategy(bogus) did not error")
	}
}
