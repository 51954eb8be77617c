package cep

import (
	"context"
	"math/rand"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/supervise"
)

// The NFA operator under supervision: killing the fcep instance mid-run via
// chaos, then rebuilding and restoring from the latest aligned checkpoint
// through a supervise.Supervisor, must reproduce an uninterrupted run's match
// set. This drives the supervisor directly against asp — the supervisor
// core.Run wires up for a restart policy — so the CEP machine snapshot is
// exercised under real panic/restart pressure, not only under a cooperative
// cancel.
func TestSupervisedCEPOperatorRecovery(t *testing.T) {
	rng := rand.New(rand.NewSource(23))
	ta := event.RegisterType("CA")
	tb := event.RegisterType("CB")
	tx := event.RegisterType("CX")
	streams := map[string][]event.Event{
		"sA": genStream(rng, ta, 120, 400),
		"sB": genStream(rng, tb, 120, 400),
		"sX": genStream(rng, tx, 30, 400),
	}
	prog, err := Compile(mustPattern(t, `PATTERN SEQ(CA a, !CX x, CB b) WITHIN 10 MIN`),
		nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}

	oracleEnv := asp.NewEnvironment(asp.Config{WatermarkInterval: 16})
	oracleRes := buildFCEP(t, oracleEnv, prog, streams)
	if err := oracleEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(oracleRes.Matches())
	if len(want) == 0 {
		t.Fatal("oracle produced no matches; test data is inert")
	}

	const kills = 2
	inj := chaos.NewInjector(chaos.Fault{
		Kind: chaos.Panic, Node: "fcep", Instance: -1,
		AtHit: 200, Times: kills,
	})
	store := checkpoint.NewMemStore()
	policy := supervise.DefaultPolicy()
	policy.InitialBackoff = time.Millisecond
	policy.MaxBackoff = 2 * time.Millisecond
	policy.Jitter = 0
	// The replayed record re-takes the fault after each restart; keep the
	// threshold above the kill count so nothing is quarantined.
	policy.PoisonThreshold = kills + 2

	sup := &supervise.Supervisor{Policy: policy}
	var res *asp.Results
	restarts, err := sup.Run(context.Background(), func(ctx context.Context, attempt int) error {
		env := asp.NewEnvironment(asp.Config{
			WatermarkInterval: 16,
			Chaos:             inj,
			Checkpoint: &asp.CheckpointSpec{
				Store: store, Interval: time.Millisecond, Restore: attempt > 0,
			},
		})
		res = buildFCEP(t, env, prog, streams)
		return env.Execute(ctx)
	})
	if err != nil {
		t.Fatal(err)
	}
	if restarts != kills {
		t.Fatalf("restarts = %d, want %d", restarts, kills)
	}
	if fires := len(inj.Fires()); fires != kills {
		t.Fatalf("fault fired %d times, want %d", fires, kills)
	}
	got := sortedKeys(res.Matches())
	if !equalKeySets(got, want) {
		t.Fatalf("supervised FCEP run emitted %d matches, oracle %d", len(got), len(want))
	}
}
