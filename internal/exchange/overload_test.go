package exchange

import (
	"context"
	"testing"
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
)

// TestDistributedShedReachesRemoteWorkers: a worker runs the job's whole
// overload spec, not just its per-job budget. A keyed join under a small
// per-operator budget with the Shed policy must evict state on the remote
// worker's own instances — visible on that worker's registry — and still
// complete.
func TestDistributedShedReachesRemoteWorkers(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorOptions{Workers: 2})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	remote := obs.NewRegistry()
	w, err := StartWorker(context.Background(), coord.ControlAddr(), WorkerOptions{
		Name:    "testworker-1",
		Metrics: remote,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	t.Cleanup(w.Close)
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx); err != nil {
		t.Fatalf("waiting for workers: %v", err)
	}

	engine := testEngine()
	engine.Overload = overload.Spec{
		Budget: overload.Budget{PerOperator: 8},
		Policy: overload.Shed,
	}
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 4}),
		Build: core.BuildConfig{Engine: engine, Data: testStreams(t, false)},
	}
	if _, err := runOn(coord, spec); err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	var shed int64
	for _, op := range remote.Snapshot().Operators {
		shed += op.Shed
	}
	t.Logf("remote worker shed %d records", shed)
	if shed == 0 {
		t.Fatal("remote worker shed nothing: its instances ran without the job's per-operator budget")
	}
}
