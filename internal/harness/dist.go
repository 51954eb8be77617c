package harness

import (
	"context"
	"fmt"

	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/exchange"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// Distributed experiments: the same Figure 6 scale-out sweep as
// Fig6Scalability, but with real worker processes (or in-process worker
// runtimes over loopback TCP) instead of simulated slot counts, plus a
// fast correctness smoke for CI. The coordinator participates as worker 0;
// key-partitioned operator instances spread across the remaining workers,
// so every run moves real record batches through the network shuffle.

// runDistributed executes one pattern on a freshly spawned in-process
// cluster of the given size: harness.Run with the coordinator as its
// cluster. With DistExternal set, real cep2asp-worker processes are
// expected to join instead — the coordinator address is printed for them.
func (sc Scale) runDistributed(ctx context.Context, name string, pat *sea.Pattern, a Approach, workers int, data map[event.Type][]event.Event) RunResult {
	spec := sc.spec(name, pat, a, data)
	fail := func(err error) RunResult {
		return RunResult{Name: name, Approach: a.Name, Failed: true, Err: err}
	}
	coord, err := exchange.NewCoordinator(exchange.CoordinatorOptions{
		ListenAddr: sc.DistListen,
		Workers:    workers,
		Metrics:    sc.Engine.Metrics,
		Liveness:   sc.DistLiveness,
		Log:        sc.Engine.Log,
	})
	if err != nil {
		return fail(err)
	}
	defer coord.Close()
	spec.Cluster = coord

	// Spawn in-process workers unless external worker processes are
	// expected to join (DistExternal: the benchrunner prints the address
	// and real cep2asp-worker processes connect).
	if !sc.DistExternal {
		for i := 1; i < workers; i++ {
			// Each in-process worker gets its own registry so the
			// coordinator's /cluster/metrics federation reports per-worker
			// series instead of one commingled set.
			w, err := exchange.StartWorker(ctx, coord.ControlAddr(), exchange.WorkerOptions{
				Name:    fmt.Sprintf("inproc-%d", i),
				Metrics: obs.NewRegistry(),
				Log:     sc.Engine.Log,
			})
			if err != nil {
				return fail(err)
			}
			defer w.Close()
		}
	} else {
		fmt.Printf("coordinator listening on %s; waiting for %d workers to join\n",
			coord.ControlAddr(), workers-1)
	}
	if err := coord.WaitForWorkers(ctx); err != nil {
		return fail(err)
	}
	return Run(ctx, spec)
}

// Fig6Distributed is the multi-process Figure 6: the SEQ7(3) scale-out
// sweep over 1, 2 and 4 workers where each worker is a separate dataflow
// slice connected by TCP shuffles (in-process worker runtimes over
// loopback by default — separate OS processes when external workers
// join). The 1-worker run is the degenerate baseline: the same code path
// with nothing remote, so the deltas isolate real serialization and
// network cost.
func Fig6Distributed(ctx context.Context, sc Scale) []RunResult {
	kc := sc
	kc.QnVSensors, kc.AQSensors = 128, 128
	qnv := kc.qnvData()
	aq := kc.aqData()
	data := mergedData(qnv, only(aq, workload.TypePM10))
	pat := PatternSEQ7(fSeq7, 15)
	var out []RunResult
	workerCounts := []int{1, 2, 4}
	if kc.DistWorkers > 0 {
		workerCounts = []int{kc.DistWorkers}
	}
	for _, workers := range workerCounts {
		parallelism := workers * max(1, sc.Slots)
		name := fmt.Sprintf("fig6dist/SEQ7/workers=%d", workers)
		for _, a := range []Approach{
			{Name: "FCEP-dist", FCEP: true, Opts: core.Options{UsePartitioning: true, Parallelism: parallelism}},
			// FASP-O1+O3, matching Fig6Scalability.
			{Name: "FASP-dist", Opts: core.Options{UseIntervalJoin: true, UsePartitioning: true, Parallelism: parallelism}},
		} {
			out = append(out, kc.runDistributed(ctx, name, pat, a, workers, data))
		}
	}
	return out
}

// DistSmoke is the CI gate: a short keyed SEQ workload on a 2-worker
// loopback cluster whose deduplicated match count must equal the
// single-process run of the identical job. A mismatch fails the run
// (Err set), which the benchrunner turns into a non-zero exit.
func DistSmoke(ctx context.Context, sc Scale) []RunResult {
	kc := sc
	kc.QnVSensors, kc.AQSensors = 16, 16
	if kc.QnVMinutes == 0 || kc.QnVMinutes > 60 {
		kc.QnVMinutes = 60
	}
	qnv := kc.qnvData()
	pat := mustParse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
		WITHIN 10 MINUTES SLIDE 1 MINUTE`)
	workers := kc.DistWorkers
	if workers <= 0 {
		workers = 2
	}
	a := WithO3(FASP, max(4, workers))
	single := kc.run(ctx, "distsmoke/single-process", pat, a, qnv)
	a.Name = "FASP-dist"
	dist := kc.runDistributed(ctx, fmt.Sprintf("distsmoke/workers=%d", workers), pat, a, workers, qnv)
	if !dist.Failed && dist.Unique != single.Unique {
		dist.Err = fmt.Errorf("distsmoke: match sets diverged: single-process %d unique, distributed %d unique",
			single.Unique, dist.Unique)
		dist.Failed = true
	}
	return []RunResult{single, dist}
}
