package exchange

import (
	"context"
	"fmt"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cep2asp/internal/chaos"
	"cep2asp/internal/core"
	"cep2asp/internal/optimizer"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
)

// TestDistributedPoliciesCompose: core.Run's policies apply to a
// distributed run as they do in-process. On a 2-worker cluster one run
// re-plans once, so the optimizer's cost-based plan crosses the wire as
// pattern text and options, and it recovers from a killed worker under the
// restart policy with a respawned replacement. Its match set must equal
// the single-process run's.
func TestDistributedPoliciesCompose(t *testing.T) {
	pat, err := sea.Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 p)
		WHERE q.value >= 40 AND v.value <= 60 AND p.value <= 50 AND q.id == v.id AND v.id == p.id
		WITHIN 10 MINUTES SLIDE 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	o, err := optimizer.New(optimizer.Config{
		Parallelism: 4,
		// Deliberately wrong estimates: the observed statistics the re-plan
		// switches to disagree.
		Stats: map[string]core.StreamStats{
			"QnVQuantity": {Frequency: 1000}, "QnVVelocity": {Frequency: 1}, "PM10": {Frequency: 500},
		},
		ReplanAfterEvents: 200,
		CheckInterval:     5 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	first, err := o.Plan(pat)
	if err != nil {
		t.Fatal(err)
	}
	policy := supervise.DefaultPolicy()
	spec := core.RunSpec{
		Build: core.BuildConfig{
			Engine:      testEngine(),
			Data:        testStreams(t, true),
			KeepMatches: true,
			// Throttled sources keep the run in flight through the kill, the
			// recovery and the re-plan barrier.
			SourceRatePerSec: 600,
		},
		Restart:   &policy,
		Replanner: o.Replanner(pat),
	}
	spec.Build.Engine.Checkpoint = testCheckpoints()
	oracle := spec
	oracle.Plans, oracle.Replanner = []*core.Plan{first}, nil
	want := runSingleProcess(t, oracle)
	if len(want) == 0 {
		t.Fatal("degenerate case: unfailed run found no matches")
	}

	// Every plan of this three-way sequence builds its root join last and
	// names it alike, so the kill fires in whichever generation brings the
	// root's instance 1 its 10th record.
	env, _, err := core.Build(first, core.BuildConfig{Data: spec.Build.Data})
	if err != nil {
		t.Fatal(err)
	}
	var root string
	for _, n := range env.Nodes() {
		if n.Parallelism > 1 {
			root = n.Name
		}
	}
	spec.Build.Engine.Chaos = chaos.NewInjector(chaos.Fault{
		Kind:     chaos.KillWorker,
		Node:     root,
		Instance: 1, // 1 mod 2 → worker 1: a remote process dies
		AtHit:    10,
	})
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
		t.Fatalf("distributed run: %v", err)
	}
	if rep.Replans != 1 || len(rep.Explains) != 2 {
		t.Fatalf("want exactly one re-plan, got %d (%d plans)", rep.Replans, len(rep.Explains))
	}
	if !rep.Plans[0].Opts.CostBasedJoins || !strings.Contains(rep.Explains[1], "CBO") {
		t.Fatalf("the re-planned generation is not cost-based:\n%s", rep.Explains[1])
	}
	if rep.Restarts < 1 || respawns.Load() == 0 {
		t.Fatalf("the kill never forced a recovery: %d restarts, %d respawns", rep.Restarts, respawns.Load())
	}
	got := sortedKeys(rep.Sinks[0].Keys())
	if len(got) != len(want) {
		t.Fatalf("match set diverged: single-process %d unique, distributed %d unique", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("match key %d diverged:\nsingle-process %s\ndistributed    %s", i, want[i], got[i])
		}
	}
	t.Logf("%d restart(s), %d re-plan(s), %d matches; plans:\n%s%s", rep.Restarts, rep.Replans, len(got), rep.Explains[0], rep.Explains[1])
}
