package core

import (
	"context"
	"errors"
	"math/rand"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

// Deterministic-replay property: for every operator class and both execution
// paths, killing a checkpointed run and restoring any complete snapshot into
// a freshly built graph reproduces exactly the uninterrupted run's match set.
// The oracle is the same translation mode run without interruption, so the
// property isolates recovery determinism from translation equivalence (which
// core_test.go already covers).

type translateFn func(*sea.Pattern, Options) (*Plan, error)

func buildReplay(t *testing.T, translate translateFn, pat *sea.Pattern, data map[event.Type][]event.Event, ck *asp.CheckpointSpec, ratePerSec float64) (*asp.Environment, *asp.Results) {
	t.Helper()
	plan, err := translate(pat, Options{})
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	env, res, err := Build(plan, BuildConfig{
		Engine:           asp.Config{WatermarkInterval: 1, Checkpoint: ck},
		Data:             data,
		KeepMatches:      true,
		SourceRatePerSec: ratePerSec,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	return env, res
}

func TestDeterministicReplayProperty(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		types   []string
		counts  []int
		fcep    bool
	}{
		{
			name: "SEQ",
			pattern: `PATTERN SEQ(RA a, RB b)
				WHERE a.value <= b.value
				WITHIN 6 MINUTES SLIDE 1 MINUTE`,
			types:  []string{"RA", "RB"},
			counts: []int{60, 60},
			fcep:   true,
		},
		{
			name: "AND",
			pattern: `PATTERN AND(RA a, RB b)
				WHERE a.value + b.value > 40
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			types:  []string{"RA", "RB"},
			counts: []int{60, 60},
			fcep:   false, // Table 2: FCEP has no conjunction operator.
		},
		{
			name: "ITER",
			pattern: `PATTERN ITER(RV v, 3)
				WHERE v[i].value < v[i+1].value
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			types:  []string{"RV"},
			counts: []int{90},
			fcep:   true,
		},
		{
			name: "NSEQ",
			pattern: `PATTERN SEQ(RA a, !RX x, RB b)
				WITHIN 8 MINUTES SLIDE 1 MINUTE`,
			types:  []string{"RA", "RX", "RB"},
			counts: []int{60, 30, 60},
			fcep:   true,
		},
	}
	modes := []struct {
		name      string
		translate translateFn
	}{
		{"ASP", Translate},
		{"FCEP", TranslateFCEP},
	}
	for _, tc := range cases {
		for _, mode := range modes {
			if mode.name == "FCEP" && !tc.fcep {
				continue
			}
			tc, mode := tc, mode
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				pat := mustPattern(t, tc.pattern)
				rng := rand.New(rand.NewSource(4242))
				data := make(map[event.Type][]event.Event)
				for i, tn := range tc.types {
					typ := event.RegisterType(tn)
					data[typ] = genStream(rng, typ, tc.counts[i], 200, 1)
				}

				// Oracle: the same mode, uninterrupted and unthrottled.
				oEnv, oRes := buildReplay(t, mode.translate, pat, data, nil, 0)
				if err := oEnv.Execute(context.Background()); err != nil {
					t.Fatal(err)
				}
				want := sortedKeys(oRes.Matches())
				if len(want) == 0 {
					t.Fatal("oracle produced no matches; test data is inert")
				}

				// Checkpointed run, throttled so barriers land mid-stream;
				// killed once at least one checkpoint completes.
				store := checkpoint.NewMemStore()
				cEnv, _ := buildReplay(t, mode.translate, pat, data,
					&asp.CheckpointSpec{Store: store, Interval: time.Millisecond}, 4000)
				ctx, cancel := context.WithCancel(context.Background())
				defer cancel()
				go func() {
					deadline := time.Now().Add(5 * time.Second)
					for time.Now().Before(deadline) {
						if ids, _ := store.IDs(); len(ids) > 0 {
							time.Sleep(2 * time.Millisecond)
							cancel()
							return
						}
						time.Sleep(200 * time.Microsecond)
					}
					cancel()
				}()
				if err := cEnv.Execute(ctx); err != nil && !errors.Is(err, context.Canceled) {
					t.Fatal(err)
				}
				ids, _ := store.IDs()
				if len(ids) == 0 {
					t.Fatal("no complete checkpoint before the kill")
				}

				// Restore a seeded-random snapshot — not necessarily the
				// latest — into a fresh graph. Any complete snapshot must
				// replay to the identical match set: pre-barrier results live
				// in the restored sink state, post-barrier results are
				// re-derived from the restored source offsets.
				pick := ids[rand.New(rand.NewSource(7)).Intn(len(ids))]
				rEnv, rRes := buildReplay(t, mode.translate, pat, data,
					&asp.CheckpointSpec{Store: store, Restore: true, RestoreID: pick}, 0)
				if err := rEnv.Execute(context.Background()); err != nil {
					t.Fatal(err)
				}
				equalSets(t, tc.name+"/"+mode.name, want, sortedKeys(rRes.Matches()))
			})
		}
	}
}
