package exchange

import (
	"context"
	"fmt"
	"sort"
	"sync/atomic"
	"testing"

	"cep2asp/internal/chaos"
	"cep2asp/internal/core"
	"cep2asp/internal/supervise"
)

// killTarget finds a partitioned node in the spec's graph whose instance 1
// lives on worker 1 under ModuloOwner — the instance whose chaos fault
// takes the whole worker process down.
func killTarget(t *testing.T, spec core.RunSpec) string {
	t.Helper()
	env, _, err := core.Build(spec.Plans[0], core.BuildConfig{Data: spec.Build.Data})
	if err != nil {
		t.Fatal(err)
	}
	for _, n := range env.Nodes() {
		if n.Parallelism > 1 {
			return n.Name
		}
	}
	t.Fatal("no partitioned node in the plan; the kill needs a remote instance")
	return ""
}

// TestWorkerKillRecovery is the distributed fault-tolerance acceptance
// property: a chaos fault kills one worker process mid-run (its network
// connections are severed without goodbyes), the coordinator detects the
// death, a replacement worker is spawned, the job restores from the
// latest checkpoint and replays — and the recovered match set is
// identical to an unfailed single-process run. Covered for SEQ and NSEQ
// under both the decomposed (FASP) and monolithic-NFA (FCEP) engine
// modes.
func TestWorkerKillRecovery(t *testing.T) {
	o3 := core.Options{UsePartitioning: true, Parallelism: 4}
	cases := []struct {
		name    string
		pattern string
		fcep    bool
		pm10    bool
	}{
		{
			name: "SEQ/FASP",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		},
		{
			name: "SEQ/FCEP",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			fcep: true,
		},
		{
			name: "NSEQ/FASP",
			pattern: `PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 90 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			pm10: true,
		},
		{
			name: "NSEQ/FCEP",
			pattern: `PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 90 AND q.id == v.id AND x.id == q.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			fcep: true,
			pm10: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			policy := supervise.DefaultPolicy()
			spec := core.RunSpec{
				Plans: testPlans(t, tc.pattern, tc.fcep, o3),
				Build: core.BuildConfig{
					Engine:      testEngine(),
					Data:        testStreams(t, tc.pm10),
					KeepMatches: true,
					// Throttled sources stretch the run so checkpoints complete
					// before the kill and the kill lands mid-stream.
					SourceRatePerSec: 600,
				},
				Restart: &policy,
			}
			spec.Build.Engine.Checkpoint = testCheckpoints()
			want := runSingleProcess(t, spec)
			if len(want) == 0 {
				t.Fatal("degenerate case: unfailed run found no matches")
			}

			spec.Build.Engine.Chaos = chaos.NewInjector(chaos.Fault{
				Kind:     chaos.KillWorker,
				Node:     killTarget(t, spec),
				Instance: 1, // 1 mod 2 → worker 1: a remote process dies
				AtHit:    30,
			})

			// The hook closes over the coordinator address, which exists
			// only after construction; Respawn first fires on recovery,
			// long after the assignment below.
			var coordAddr string
			var respawns atomic.Int32
			coord := cluster(t, 2, CoordinatorOptions{
				Respawn: func(attempt int) error {
					n := respawns.Add(1)
					w, err := StartWorker(context.Background(), coordAddr, WorkerOptions{
						Name: fmt.Sprintf("respawned-%d-%d", attempt, n),
					})
					if err != nil {
						return err
					}
					t.Cleanup(w.Close)
					return nil
				},
			})
			coordAddr = coord.ControlAddr()

			rep, err := runOn(coord, spec)
			if err != nil {
				t.Fatalf("recovered run failed: %v", err)
			}
			if rep.Restarts == 0 {
				t.Fatal("the kill fault never fired: run completed without a restart")
			}
			if respawns.Load() == 0 {
				t.Fatal("recovery never respawned a worker")
			}
			got := sortedKeys(rep.Sinks[0].Keys())
			if len(got) != len(want) {
				t.Fatalf("recovered match set diverged: unfailed %d unique, recovered %d unique",
					len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("recovered match key %d diverged:\nunfailed  %s\nrecovered %s", i, want[i], got[i])
				}
			}
			t.Logf("recovered after %d restart(s), %d checkpoint(s) completed", rep.Restarts, rep.Env.CompletedCheckpoints())
		})
	}
}

// sortedKeys is a tiny helper for set comparison in recovery tests.
func sortedKeys(keys []string) []string {
	out := append([]string(nil), keys...)
	sort.Strings(out)
	return out
}
