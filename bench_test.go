package cep2asp

// One benchmark per table and figure of the paper's evaluation (§5),
// driving the same experiment definitions as cmd/benchrunner at a reduced
// scale. Run the full-scale reproduction with:
//
//	go run ./cmd/benchrunner -exp all -scale full
//
// Each benchmark processes one complete workload per iteration and reports
// tuples/second as the custom metric "tps" alongside the standard ns/op.

import (
	"context"
	"fmt"
	"testing"

	"cep2asp/internal/harness"
)

// benchScale shrinks workloads so single benchmark iterations run in tens
// of milliseconds.
func benchScale() harness.Scale {
	sc := harness.BenchScale()
	return sc
}

func runBenchCase(b *testing.B, name string, pat func() *harness.RunResult) {
	b.Run(name, func(b *testing.B) {
		var events int64
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			r := pat()
			if r.Failed {
				b.Fatalf("run failed: %v", r.Err)
			}
			events = r.Events
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(events)*float64(b.N)/sec, "tps")
		}
	})
}

// experimentBench runs every row of one experiment as a sub-benchmark.
func experimentBench(b *testing.B, exp string) {
	sc := benchScale()
	// Discover the rows once, then re-run each configuration per iteration.
	rows := harness.Experiments[exp](context.Background(), sc)
	for _, probe := range rows {
		if probe.Failed {
			b.Fatalf("%s/%s failed during discovery: %v", probe.Name, probe.Approach, probe.Err)
		}
	}
	_ = rows
	b.Run("suite", func(b *testing.B) {
		var events int64
		for i := 0; i < b.N; i++ {
			rows := harness.Experiments[exp](context.Background(), sc)
			events = 0
			for _, r := range rows {
				if r.Failed {
					b.Fatalf("%s/%s: %v", r.Name, r.Approach, r.Err)
				}
				events += r.Events
			}
		}
		if sec := b.Elapsed().Seconds(); sec > 0 {
			b.ReportMetric(float64(events)*float64(b.N)/sec, "tps")
		}
	})
}

// BenchmarkFig3aBaseline regenerates Figure 3a: elementary operator
// throughput (SEQ1, ITER3, NSEQ1) under FCEP / FASP / FASP-O1 / FASP-O2.
func BenchmarkFig3aBaseline(b *testing.B) { experimentBench(b, "fig3a") }

// BenchmarkFig3bSelectivity regenerates Figure 3b: the output-selectivity
// sweep on SEQ1 (throughput and detection latency).
func BenchmarkFig3bSelectivity(b *testing.B) { experimentBench(b, "fig3b") }

// BenchmarkFig3cWindow regenerates Figure 3c: the window-size sweep.
func BenchmarkFig3cWindow(b *testing.B) { experimentBench(b, "fig3c") }

// BenchmarkFig3dSeqLen regenerates Figure 3d: nested SEQ(n), n = 2..6.
func BenchmarkFig3dSeqLen(b *testing.B) { experimentBench(b, "fig3d") }

// BenchmarkFig3eIterChain regenerates Figure 3e: ITER^m with the
// subsequent-event constraint.
func BenchmarkFig3eIterChain(b *testing.B) { experimentBench(b, "fig3e") }

// BenchmarkFig3fIterThreshold regenerates Figure 3f: ITER^m with a
// threshold filter.
func BenchmarkFig3fIterThreshold(b *testing.B) { experimentBench(b, "fig3f") }

// BenchmarkFig4Keys regenerates Figure 4: keyed workloads under 16/32/128
// keys with O3 everywhere.
func BenchmarkFig4Keys(b *testing.B) { experimentBench(b, "fig4") }

// BenchmarkFig5Resources regenerates Figure 5: resource sampling during the
// keyed workloads.
func BenchmarkFig5Resources(b *testing.B) { experimentBench(b, "fig5") }

// BenchmarkFig6Scalability regenerates Figure 6: scale-out over simulated
// workers.
func BenchmarkFig6Scalability(b *testing.B) { experimentBench(b, "fig6") }

// BenchmarkTable2Support regenerates Table 2 (operator support matrix); the
// "work" is the translation attempts themselves.
func BenchmarkTable2Support(b *testing.B) {
	for i := 0; i < b.N; i++ {
		if s := harness.Table2Support(); len(s) == 0 {
			b.Fatal("empty support matrix")
		}
	}
}

// Per-approach single-pattern benchmarks, for profiling the two execution
// paths in isolation (the decomposition argument of §1 in one number).
func BenchmarkApproachesSEQ1(b *testing.B) {
	sc := benchScale()
	for _, a := range []harness.Approach{harness.FCEP, harness.FASP, harness.FASPO1} {
		a := a
		runBenchCase(b, a.Name, func() *harness.RunResult {
			r := harness.Run(context.Background(), harness.RunSpec{
				Name:     "bench/SEQ1",
				Pattern:  harness.PatternSEQ1(0.02, 15),
				Approach: a,
				Data:     benchQnV(sc),
				Engine:   benchEngine(sc),
			})
			return &r
		})
	}
}

func BenchmarkApproachesITER3(b *testing.B) {
	sc := benchScale()
	for _, a := range []harness.Approach{harness.FCEP, harness.FASP, harness.FASPO1, harness.FASPO2} {
		a := a
		runBenchCase(b, a.Name, func() *harness.RunResult {
			r := harness.Run(context.Background(), harness.RunSpec{
				Name:     "bench/ITER3",
				Pattern:  harness.PatternITER(3, 0.05, 15, true, false),
				Approach: a,
				Data:     benchVelocity(sc),
				Engine:   benchEngine(sc),
			})
			return &r
		})
	}
}

func benchQnV(sc harness.Scale) map[Type][]Event {
	q, v := GenerateQnV(sc.QnVSensors, sc.QnVMinutes, sc.Seed)
	return map[Type][]Event{
		RegisterType("QnVQuantity"): q,
		RegisterType("QnVVelocity"): v,
	}
}

func benchVelocity(sc harness.Scale) map[Type][]Event {
	_, v := GenerateQnV(sc.QnVSensors, sc.QnVMinutes, sc.Seed)
	return map[Type][]Event{RegisterType("QnVVelocity"): v}
}

func benchEngine(sc harness.Scale) EngineConfig {
	return EngineConfig{
		DefaultParallelism: sc.Slots,
		WatermarkInterval:  256,
		MaxOperatorState:   sc.StateBudget,
	}
}

// Ablation benchmarks for the design choices DESIGN.md calls out.

// BenchmarkAblationDedupIntermediate quantifies the intermediate-join
// duplicate suppression: SEQ(4) with and without it (the exponential
// blow-up analysis in DESIGN.md).
func BenchmarkAblationDedupIntermediate(b *testing.B) {
	// The public Options always dedup intermediates; the ablation contrast
	// is the O1 plan (interval joins, inherently duplicate-free) vs the
	// plain plan (deduped intermediates, duplicated final stage).
	sc := benchScale()
	pat := harness.PatternSEQN(4, 0.05, 15)
	data := map[Type][]Event{}
	q, v := GenerateQnV(sc.QnVSensors, sc.QnVMinutes, sc.Seed)
	pm10, pm25, _, _ := GenerateAirQuality(sc.AQSensors, sc.AQMinutes, sc.Seed)
	data[RegisterType("QnVQuantity")] = q
	data[RegisterType("QnVVelocity")] = v
	data[RegisterType("PM10")] = pm10
	data[RegisterType("PM25")] = pm25
	for _, a := range []harness.Approach{harness.FASP, harness.FASPO1} {
		a := a
		runBenchCase(b, a.Name, func() *harness.RunResult {
			r := harness.Run(context.Background(), harness.RunSpec{
				Name: "ablation/SEQ4", Pattern: pat, Approach: a,
				Data: data, Engine: benchEngine(sc),
			})
			return &r
		})
	}
}

// BenchmarkAblationParallelism sweeps O3 parallelism on a keyed pattern,
// isolating the partitioning benefit.
func BenchmarkAblationParallelism(b *testing.B) {
	sc := benchScale()
	sc.QnVSensors = 64
	pat := harness.PatternSEQ1Keyed(0.1, 15)
	data := benchQnV(sc)
	for _, par := range []int{1, 2, 4, 8} {
		par := par
		runBenchCase(b, fmt.Sprintf("slots=%d", par), func() *harness.RunResult {
			r := harness.Run(context.Background(), harness.RunSpec{
				Name:    "ablation/parallelism",
				Pattern: pat,
				Approach: harness.Approach{
					Name: fmt.Sprintf("FASP-O3/%d", par),
					Opts: Options{UsePartitioning: true, Parallelism: par},
				},
				Data:   data,
				Engine: benchEngine(sc),
			})
			return &r
		})
	}
}

// BenchmarkAblationChaining contrasts standalone filter nodes against
// edge-fused selections (operator chaining): same results, one fewer
// channel hop per event — the knob addressing the single-core pipeline
// tax discussed in EXPERIMENTS.md.
func BenchmarkAblationChaining(b *testing.B) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 95 AND v.value <= 5
		WITHIN 15 MINUTES`)
	if err != nil {
		b.Fatal(err)
	}
	q, v := GenerateQnV(20, 240, 1)
	for _, chain := range []bool{false, true} {
		chain := chain
		name := "filter-nodes"
		if chain {
			name = "chained"
		}
		b.Run(name, func(b *testing.B) {
			var events int64
			for i := 0; i < b.N; i++ {
				job := NewJob(pattern).
					DiscardMatches().
					AddStream("QnVQuantity", q).
					AddStream("QnVVelocity", v)
				if chain {
					job.ChainOperators()
				}
				stats, err := job.Run(context.Background())
				if err != nil {
					b.Fatal(err)
				}
				events = stats.Events
			}
			if sec := b.Elapsed().Seconds(); sec > 0 {
				b.ReportMetric(float64(events)*float64(b.N)/sec, "tps")
			}
		})
	}
}

// BenchmarkAblationWatermarkInterval sweeps the watermark cadence: sparser
// watermarks mean larger batches between window firings.
func BenchmarkAblationWatermarkInterval(b *testing.B) {
	sc := benchScale()
	pat := harness.PatternSEQ1(0.02, 15)
	data := benchQnV(sc)
	for _, wi := range []int{16, 64, 256, 1024} {
		wi := wi
		runBenchCase(b, fmt.Sprintf("wm=%d", wi), func() *harness.RunResult {
			eng := benchEngine(sc)
			eng.WatermarkInterval = wi
			r := harness.Run(context.Background(), harness.RunSpec{
				Name: "ablation/wm", Pattern: pat,
				Approach: harness.FASP, Data: data, Engine: eng,
			})
			return &r
		})
	}
}
