package optimizer

import (
	"context"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/core"
)

// core.Run under the optimizer's policy without re-planning is a plain
// optimized execution: the match set must equal the reference evaluator's.
func TestRunWithoutReplan(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(RPA a, RPB b) WHERE a.value < 70 WITHIN 6 MIN SLIDE 1 MIN`)
	data := patternData(t, p, 60, 7)
	o, err := New(Config{
		Stats:      map[string]core.StreamStats{"RPA": {Frequency: 1}, "RPB": {Frequency: 5}},
		MaxReplans: -1,
	})
	if err != nil {
		t.Fatal(err)
	}
	rep, err := core.Run(context.Background(), core.RunSpec{
		Build: core.BuildConfig{
			Engine:      asp.Config{WatermarkInterval: 1},
			Data:        data,
			KeepMatches: true,
		},
		Replanner: o.Replanner(p),
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Replans != 0 || len(rep.Explains) != 1 {
		t.Fatalf("unexpected re-plans: %d (%d plans)", rep.Replans, len(rep.Explains))
	}
	equalSets(t, "no-replan", oracleKeys(p, data), sortedKeys(rep.Sinks[0].Matches()))
}

// The online re-plan protocol must preserve the exact match set: core.Run
// stops plan A at a checkpoint barrier mid-stream, rebuilds with observed
// statistics and replays the tail into the shared dedup sink — no lost and
// no duplicated matches, across every operator family.
func TestReplanPreservesMatches(t *testing.T) {
	patterns := []string{
		`PATTERN SEQ(RPA a, RPB b, RPC c) WHERE a.value < 80 WITHIN 8 MIN SLIDE 1 MIN`,
		`PATTERN AND(RPA a, RPB b) WHERE a.id == b.id WITHIN 6 MIN SLIDE 1 MIN`,
		`PATTERN ITER(RPV v, 3) WITHIN 6 MIN SLIDE 1 MIN`,
		`PATTERN SEQ(RPA a, !RPB n, RPC c) WHERE n.value > 40 WITHIN 8 MIN SLIDE 1 MIN`,
	}
	for pi, src := range patterns {
		p := mustPattern(t, src)
		data := patternData(t, p, 220, int64(pi)*31)
		oracle := oracleKeys(p, data)

		o, err := New(Config{
			// Deliberately wrong estimates: the observed statistics the
			// re-plan switches to will disagree.
			Stats: map[string]core.StreamStats{
				"RPA": {Frequency: 1000}, "RPB": {Frequency: 1},
				"RPC": {Frequency: 500}, "RPV": {Frequency: 3},
			},
			ReplanAfterEvents: 120,
			CheckInterval:     3 * time.Millisecond,
			MaxReplans:        1,
		})
		if err != nil {
			t.Fatal(err)
		}
		rep, err := core.Run(context.Background(), core.RunSpec{
			Build: core.BuildConfig{
				Engine: asp.Config{WatermarkInterval: 8},
				Data:   data,
				// Throttle the sources so the run is still in flight when the
				// forced trigger fires and the barrier completes — also for
				// single-source patterns under the race detector.
				SourceRatePerSec: 500,
				KeepMatches:      true,
			},
			Replanner: o.Replanner(p),
		})
		if err != nil {
			t.Fatalf("%s: %v", src, err)
		}
		if rep.Replans != 1 {
			t.Fatalf("%s: expected exactly one re-plan, got %d", src, rep.Replans)
		}
		if len(rep.Explains) != 2 {
			t.Fatalf("%s: expected two plan generations, got %d", src, len(rep.Explains))
		}
		equalSets(t, src, oracle, sortedKeys(rep.Sinks[0].Matches()))
	}
}
