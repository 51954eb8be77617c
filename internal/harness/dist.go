package harness

import (
	"context"
	"fmt"
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/exchange"
	"cep2asp/internal/obs"
	"cep2asp/internal/workload"
)

// Distributed experiments: the same Figure 6 scale-out sweep as
// Fig6Scalability, but with real worker processes (or in-process worker
// runtimes over loopback TCP) instead of simulated slot counts, plus a
// fast correctness smoke for CI. The coordinator participates as worker 0;
// key-partitioned operator instances spread across the remaining workers,
// so every run moves real record batches through the network shuffle.

// distPatternSEQ7 is PatternSEQ7's source text (the distributed job spec
// ships pattern text, not parsed ASTs).
func distPatternSEQ7(f float64, wMinutes int) string {
	return fmt.Sprintf(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 p)
		WHERE q.id == v.id AND v.id == p.id
		  AND q.value >= %g AND v.value <= %g AND p.value <= %g
		WITHIN %d MINUTES SLIDE 1 MINUTE`,
		100*(1-f), 100*f, 100*f, wMinutes)
}

// distEngine converts the Scale's engine configuration to the wire form.
func (sc Scale) distEngine() exchange.EngineSettings {
	return exchange.EngineSettings{
		DefaultParallelism: sc.Slots,
		WatermarkInterval:  256,
		BatchSize:          sc.BatchSize,
		MaxOperatorState:   sc.StateBudget,
	}
}

// runDistributed executes one pattern on a freshly spawned in-process
// cluster of the given size and folds the outcome into a RunResult. With
// DistExternal set, real cep2asp-worker processes are expected to join
// instead — the coordinator address is printed for them.
func (sc Scale) runDistributed(ctx context.Context, name, pattern string, fcep bool, opts core.Options, workers int, data map[event.Type][]event.Event) RunResult {
	approach := "FASP-dist"
	if fcep {
		approach = "FCEP-dist"
	}
	res := RunResult{Name: name, Approach: approach}

	coord, err := exchange.NewCoordinator(exchange.CoordinatorOptions{
		ListenAddr: sc.DistListen,
		Workers:    workers,
		Metrics:    sc.Metrics,
		Policy:     sc.RestartPolicy,
		Liveness:   sc.DistLiveness,
		Log:        sc.Log,
	})
	if err != nil {
		res.Err = err
		return res
	}
	defer coord.Close()

	// Spawn in-process workers unless external worker processes are
	// expected to join (DistExternal: the benchrunner prints the address
	// and real cep2asp-worker processes connect).
	var spawned []*exchange.Worker
	if !sc.DistExternal {
		for i := 1; i < workers; i++ {
			// Each in-process worker gets its own registry so the
			// coordinator's /cluster/metrics federation reports per-worker
			// series instead of one commingled set.
			w, err := exchange.StartWorker(ctx, coord.ControlAddr(), exchange.WorkerOptions{
				Name:    fmt.Sprintf("inproc-%d", i),
				Metrics: obs.NewRegistry(),
				Log:     sc.Log,
			})
			if err != nil {
				res.Err = err
				return res
			}
			spawned = append(spawned, w)
		}
	} else {
		fmt.Printf("coordinator listening on %s; waiting for %d workers to join\n",
			coord.ControlAddr(), workers-1)
	}
	defer func() {
		for _, w := range spawned {
			w.Close()
		}
	}()
	if err := coord.WaitForWorkers(ctx); err != nil {
		res.Err = err
		return res
	}

	job := exchange.Job{
		Pattern: pattern,
		FCEP:    fcep,
		Opts:    opts,
		Engine:  sc.distEngine(),
		Streams: exchange.BuildStreams(data),
		// Counts only: retaining millions of matches would swamp the
		// scale-out measurement with sink memory traffic.
		DedupSink:          true,
		CheckpointInterval: sc.CheckpointInterval,
		Faults:             sc.ChaosFaults,
		Timeout:            sc.Timeout,
		TraceRate:          sc.TraceRate,
	}
	start := time.Now()
	jr, err := coord.RunJob(ctx, job)
	if jr != nil {
		res.Events = jr.Events
		res.Elapsed = jr.Elapsed
		res.ThroughputTps = jr.ThroughputTps
		res.Matches = jr.Total
		res.Unique = jr.Unique
		res.Checkpoints = jr.Checkpoints
		res.Restarts = jr.Restarts
		if jr.Events > 0 {
			res.SelectivityPct = float64(jr.Unique) / float64(jr.Events) * 100
		}
		res.foldCheckpoints(jr.CheckpointStats, start)
	}
	// The coordinator's tracer holds its own spans plus every span the
	// workers pushed over the control plane: the cluster-wide trace.
	if tr := coord.Tracer(); tr != nil {
		res.Trace = tr.Summarize()
		if sc.TraceOut != "" {
			if werr := tr.WriteFile(sc.TraceOut); werr != nil && err == nil {
				err = fmt.Errorf("trace export: %w", werr)
			}
		}
	}
	res.Err = err
	res.Failed = err != nil
	return res
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
	pat := distPatternSEQ7(fSeq7, 15)
	var out []RunResult
	workerCounts := []int{1, 2, 4}
	if kc.DistWorkers > 0 {
		workerCounts = []int{kc.DistWorkers}
	}
	for _, workers := range workerCounts {
		parallelism := workers * maxInt(1, sc.Slots)
		name := fmt.Sprintf("fig6dist/SEQ7/workers=%d", workers)
		for _, fcep := range []bool{true, false} {
			opts := core.Options{UsePartitioning: true, Parallelism: parallelism}
			if !fcep {
				opts.UseIntervalJoin = true // FASP-O1+O3, matching Fig6Scalability
			}
			out = append(out, kc.runDistributed(ctx, name, pat, fcep, opts, workers, data))
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
	pattern := `
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
		WITHIN 10 MINUTES SLIDE 1 MINUTE`
	workers := kc.DistWorkers
	if workers <= 0 {
		workers = 2
	}
	parallelism := maxInt(4, workers)

	single := kc.run(ctx, "distsmoke/single-process", mustParse(pattern), WithO3(FASP, parallelism), qnv)

	opts := core.Options{UsePartitioning: true, Parallelism: parallelism}
	dist := kc.runDistributed(ctx, fmt.Sprintf("distsmoke/workers=%d", workers), pattern, false, opts, workers, qnv)
	if dist.Err == nil && dist.Unique != single.Unique {
		dist.Err = fmt.Errorf("distsmoke: match sets diverged: single-process %d unique, distributed %d unique",
			single.Unique, dist.Unique)
		dist.Failed = true
	}
	return []RunResult{single, dist}
}

func maxInt(a, b int) int {
	if a > b {
		return a
	}
	return b
}
