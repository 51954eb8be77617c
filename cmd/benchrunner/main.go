// Command benchrunner regenerates the paper's evaluation: one experiment
// per figure (3a-3f, 4, 5, 6) plus the Table 2 support matrix. Results
// print as aligned tables and, optionally, CSV.
//
// Usage:
//
//	benchrunner -exp all -scale bench
//	benchrunner -exp fig3b -scale full -csv results.csv
//	benchrunner -exp fig5 -metrics-addr :9090 -csv results.csv
//
// With -metrics-addr, a live observability endpoint serves /metrics
// (Prometheus text format, per-operator counters/gauges) and
// /debug/topology (DAG JSON with per-edge queue fill) while experiments
// run, and an end-of-run per-operator CSV is written next to -csv.
package main

import (
	"bufio"
	"context"
	"encoding/csv"
	"errors"
	"flag"
	"fmt"
	"log/slog"
	"net/http"
	"os"
	"slices"
	"sort"
	"strconv"
	"strings"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/harness"
	"cep2asp/internal/metrics"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/supervise"
)

func main() {
	var (
		exp          = flag.String("exp", "all", "experiment: all, table2, fig3a, fig3b, fig3c, fig3d, fig3e, fig3f, fig4, fig5, fig6, fig6dist, latency, overload, overloadcurve, distsmoke, optimize")
		optimize     = flag.Bool("optimize", false, "run the cost-based optimizer experiment (shorthand for -exp optimize) and print the naive vs cost-based plans with estimated per-node cardinalities")
		scale        = flag.String("scale", "bench", "workload scale: bench (seconds) or full (minutes)")
		csvPath      = flag.String("csv", "", "also append rows to this CSV file")
		timeout      = flag.Duration("timeout", 0, "override per-run timeout (0 = scale default)")
		ckptIntv     = flag.Duration("checkpoint-interval", 0, "enable aligned-barrier checkpointing at this period and report its overhead (0 = off)")
		metAddr      = flag.String("metrics-addr", "", "serve live per-operator metrics on this address (/metrics Prometheus text, /debug/topology JSON); also emits per-operator CSV next to -csv")
		restart      = flag.String("restart-policy", "", "run supervised with this restart budget, as N or N@window (e.g. 5@1m): isolated operator panics restart the run from the latest checkpoint")
		chaosStr     = flag.String("chaos", "", "comma-separated fault specs: node faults kind:node/inst[@hit][xN][%recordkey] with kind panic|stall|delay=<dur> (e.g. panic:cep-nfa/0@1000), network faults kind:from>to[@frame][xN] with kind netdrop|netreset|netcorrupt|netpartition|netdelay=<dur> and * as any-worker wildcard (e.g. netreset:0>1@20, netpartition:1>0@40x30); a network fault other than netdelay fails the attempt, which recovers from the latest checkpoint only under -restart-policy")
		batchSz      = flag.Int("batch-size", 0, "records per inter-operator channel transfer (0 = engine default, 1 = disable edge batching)")
		budget       = flag.Int64("state-budget", -1, "per-job state budget in retained records (-1 = scale default, 0 = unbounded)")
		policy       = flag.String("overload-policy", "", "reaction to a reached state budget: fail (abort), shed (evict oldest state), pause (throttle sources)")
		shedPolicy   = flag.String("shed-policy", "", "victim order of the shed overload policy: oldest (evict oldest state) or pattern (evict the state least likely to still complete into a match)")
		qualRecall   = flag.Float64("quality-recall", 0, "per-run MinRecall quality demand in (0,1]: a controller switches shedding to pattern-aware (then pauses intake) whenever the recall estimate dips below it (0 = off)")
		qualLatency  = flag.Duration("quality-latency", 0, "per-run MaxP99Latency quality demand: a p99 detection-latency breach forces pattern-aware shedding (0 = off)")
		distN        = flag.Int("dist-workers", 0, "fix the cluster size of distributed experiments (fig6dist, distsmoke) instead of their default sweep; counts the coordinator as worker 0")
		distLn       = flag.String("dist-listen", "", "coordinator control-plane listen address for distributed experiments (default loopback, ephemeral port)")
		distExt      = flag.Bool("dist-external", false, "wait for external cep2asp-worker processes to join distributed experiments instead of spawning in-process workers")
		traceRt      = flag.Float64("trace-rate", 0, "sample this fraction of source events for end-to-end tracing (0 = off, 1 = all); sampling is deterministic by event identity")
		traceOut     = flag.String("trace-out", "", "write the Chrome trace-event JSON of traced runs here (requires -trace-rate > 0; an experiment with several runs keeps the last run's trace)")
		logLevel     = flag.String("log-level", "", "emit structured logs to stderr at this level: debug, info, warn, error (empty = off)")
		clusterCheck = flag.Bool("cluster-check", false, "after distsmoke, scrape /cluster/metrics (requires -metrics-addr) and fail unless every worker reported and the per-worker match counters sum to the run's match count")
		liveness     = flag.Duration("liveness", 0, "heartbeat failure-detection deadline of distributed experiments: a worker silent this long is declared dead and the job restarts from the latest checkpoint (0 = default 15s, negative disables)")
	)
	flag.Parse()

	var sc harness.Scale
	switch *scale {
	case "bench":
		sc = harness.BenchScale()
	case "full":
		sc = harness.FullScale()
	default:
		fmt.Fprintln(os.Stderr, "benchrunner: -scale must be bench or full")
		os.Exit(2)
	}
	if *timeout > 0 {
		sc.Timeout = *timeout
	}
	if *batchSz < 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: -batch-size must be >= 0")
		os.Exit(2)
	}
	sc.Engine.BatchSize = *batchSz
	// The effective value, for the CSV: 0 means the engine default applies.
	effBatch := sc.Engine.BatchSize
	if effBatch == 0 {
		effBatch = asp.DefaultBatchSize
	}
	if *budget >= 0 {
		sc.Engine.Overload.Budget.PerJob = *budget
	}
	if *policy != "" {
		p, err := overload.ParsePolicy(*policy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		sc.Engine.Overload.Policy = p
	}
	if *shedPolicy != "" {
		s, err := overload.ParseShedStrategy(*shedPolicy)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		sc.Engine.Overload.Shedding = s
	}
	if *qualRecall < 0 || *qualRecall > 1 {
		fmt.Fprintln(os.Stderr, "benchrunner: -quality-recall must be in [0, 1]")
		os.Exit(2)
	}
	sc.QualityRecall = *qualRecall
	sc.QualityLatency = *qualLatency
	sc.CheckpointInterval = *ckptIntv
	sc.DistWorkers = *distN
	sc.DistListen = *distLn
	sc.DistExternal = *distExt
	if *restart != "" {
		policy, err := parseRestartPolicy(*restart)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		sc.RestartPolicy = &policy
	}
	if *traceRt < 0 || *traceRt > 1 {
		fmt.Fprintln(os.Stderr, "benchrunner: -trace-rate must be in [0,1]")
		os.Exit(2)
	}
	if *traceOut != "" && *traceRt == 0 {
		fmt.Fprintln(os.Stderr, "benchrunner: -trace-out requires -trace-rate > 0")
		os.Exit(2)
	}
	sc.TraceRate = *traceRt
	sc.TraceOut = *traceOut
	if *logLevel != "" {
		var level slog.Level
		if err := level.UnmarshalText([]byte(*logLevel)); err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: bad -log-level (want debug, info, warn, or error)")
			os.Exit(2)
		}
		sc.Engine.Log = slog.New(slog.NewTextHandler(os.Stderr, &slog.HandlerOptions{Level: level}))
	}
	if *clusterCheck && *metAddr == "" {
		fmt.Fprintln(os.Stderr, "benchrunner: -cluster-check requires -metrics-addr")
		os.Exit(2)
	}
	sc.DistLiveness = *liveness
	if *chaosStr != "" {
		faults, err := chaos.ParseFaults(*chaosStr)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(2)
		}
		sc.ChaosFaults = faults
		// Chaos stalls must not hang the suite: bound every teardown.
		sc.Engine.ShutdownTimeout = 30 * time.Second
	}

	var metricsAddr string
	if *metAddr != "" {
		sc.Engine.Metrics = obs.NewRegistry()
		srv, addr, err := obs.Serve(*metAddr, sc.Engine.Metrics)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: metrics endpoint:", err)
			os.Exit(1)
		}
		defer srv.Close()
		metricsAddr = addr
		fmt.Printf("serving live metrics on http://%s/metrics (pprof on /debug/pprof/, cluster view on /cluster/metrics during distributed runs)\n", addr)
	}

	if *optimize && *exp == "all" {
		*exp = "optimize"
	}
	var names []string
	switch *exp {
	case "all":
		names = harness.ExperimentNames
		printTable2()
	case "table2":
		printTable2()
		return
	default:
		if _, ok := harness.Experiments[*exp]; !ok {
			fmt.Fprintf(os.Stderr, "benchrunner: unknown experiment %q\n", *exp)
			os.Exit(2)
		}
		names = []string{*exp}
	}

	var writer *csv.Writer
	if *csvPath != "" {
		f, err := os.OpenFile(*csvPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		defer f.Close()
		writer = csv.NewWriter(f)
		defer writer.Flush()
		writer.Write([]string{"experiment", "approach", "events", "elapsed_ms",
			"throughput_tps", "matches", "unique", "selectivity_pct",
			"avg_latency_us", "p50_latency_us", "p90_latency_us",
			"p99_latency_us", "max_latency_us", "failed",
			"checkpoints", "ckpt_bytes", "ckpt_pause_us",
			"restarts", "dead_letters", "batch_size",
			"peak_heap_bytes", "shed_records", "recall_estimate",
			"ckpt_p50_ms", "ckpt_p99_ms", "e2e_latency_p99_ms"})
	}

	// Per-operator CSV, written next to the results CSV when the
	// observability registry is attached.
	var opsWriter *csv.Writer
	if *csvPath != "" && sc.Engine.Metrics != nil {
		opsPath := opsCSVPath(*csvPath)
		f, err := os.OpenFile(opsPath, os.O_CREATE|os.O_APPEND|os.O_WRONLY, 0o644)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner:", err)
			os.Exit(1)
		}
		defer f.Close()
		opsWriter = csv.NewWriter(f)
		defer opsWriter.Flush()
		opsWriter.Write([]string{"experiment", "approach", "node", "instance",
			"records_in", "records_out", "late", "watermark_ms",
			"watermark_lag_ms", "partials", "state_bytes", "shed",
			"proc_count", "proc_p50_ns", "proc_p99_ns", "proc_max_ns"})
	}

	if *optimize {
		explain, err := harness.OptimizeExplain(sc)
		if err != nil {
			fmt.Fprintln(os.Stderr, "benchrunner: optimizer explain:", err)
			os.Exit(1)
		}
		fmt.Print(explain)
	}

	ctx := context.Background()
	exitCode := 0
	for _, name := range names {
		fmt.Printf("\n=== %s (scale=%s) ===\n", name, *scale)
		start := time.Now()
		rows := harness.Experiments[name](ctx, sc)
		printRows(rows)
		if sc.Engine.Metrics != nil {
			printOperators(rows)
		}
		if name == "fig5" {
			printResources(rows)
		}
		if *ckptIntv > 0 {
			printCheckpoints(rows)
		}
		if sc.RestartPolicy != nil {
			printSupervision(rows)
		}
		printOverload(rows)
		if sc.TraceRate > 0 && !printTraces(rows, sc.TraceOut) {
			exitCode = 1
		}
		// distsmoke is a correctness gate, not a measurement: a failed row
		// (including a match-set mismatch) must fail the process for CI.
		if name == "distsmoke" {
			for _, r := range rows {
				if r.Failed {
					exitCode = 1
				}
			}
			if *clusterCheck {
				if err := checkCluster(metricsAddr, rows); err != nil {
					fmt.Fprintln(os.Stderr, "benchrunner: cluster check FAILED:", err)
					exitCode = 1
				} else {
					fmt.Println("cluster check passed: all workers reported, match counters agree")
				}
			}
		}
		fmt.Printf("--- %s finished in %v\n", name, time.Since(start).Round(time.Millisecond))
		if writer != nil {
			for _, r := range rows {
				ckBytes, ckPause, ckP50, ckP99 := ckptOverhead(r.Checkpoints)
				writer.Write([]string{
					r.Name, r.Approach,
					strconv.FormatInt(r.Events, 10),
					strconv.FormatInt(r.Elapsed.Milliseconds(), 10),
					strconv.FormatFloat(r.ThroughputTps, 'f', 0, 64),
					strconv.FormatInt(r.Total, 10),
					strconv.FormatInt(r.Unique, 10),
					strconv.FormatFloat(r.SelectivityPct, 'f', 6, 64),
					strconv.FormatInt(r.AvgLatency.Microseconds(), 10),
					strconv.FormatInt(r.P50Latency.Microseconds(), 10),
					strconv.FormatInt(r.P90Latency.Microseconds(), 10),
					strconv.FormatInt(r.P99Latency.Microseconds(), 10),
					strconv.FormatInt(r.MaxLatency.Microseconds(), 10),
					strconv.FormatBool(r.Failed),
					strconv.Itoa(len(r.Checkpoints)),
					strconv.FormatInt(ckBytes, 10),
					strconv.FormatInt(ckPause.Microseconds(), 10),
					strconv.Itoa(r.Restarts),
					strconv.Itoa(len(r.DeadLetters)),
					strconv.Itoa(effBatch),
					strconv.FormatInt(r.PeakHeapBytes, 10),
					strconv.FormatInt(r.ShedRecords, 10),
					strconv.FormatFloat(r.RecallEstimate, 'f', 6, 64),
					ms(ckP50), ms(ckP99), ms(r.Trace.E2EP99),
				})
			}
		}
		if opsWriter != nil {
			for _, r := range rows {
				for _, o := range r.Operators {
					opsWriter.Write([]string{
						r.Name, r.Approach, o.Node,
						strconv.Itoa(o.Instance),
						strconv.FormatInt(o.In, 10),
						strconv.FormatInt(o.Out, 10),
						strconv.FormatInt(o.Late, 10),
						strconv.FormatInt(o.Watermark, 10),
						strconv.FormatInt(o.WatermarkLagMs, 10),
						strconv.FormatInt(o.Partials, 10),
						strconv.FormatInt(o.StateBytes, 10),
						strconv.FormatInt(o.Shed, 10),
						strconv.FormatInt(o.ProcCount, 10),
						strconv.FormatInt(o.ProcP50, 10),
						strconv.FormatInt(o.ProcP99, 10),
						strconv.FormatInt(o.ProcMax, 10),
					})
				}
			}
		}
	}
	if exitCode != 0 {
		// os.Exit skips the deferred flushes; do them by hand.
		if writer != nil {
			writer.Flush()
		}
		if opsWriter != nil {
			opsWriter.Flush()
		}
		os.Exit(exitCode)
	}
}

// parseRestartPolicy parses the -restart-policy flag: N restarts, or
// N@window for a rolling budget window (e.g. 5@1m). The remaining policy
// knobs (backoff, jitter, poison threshold) keep their defaults.
func parseRestartPolicy(s string) (supervise.Policy, error) {
	p := supervise.DefaultPolicy()
	numStr, winStr, hasWin := strings.Cut(s, "@")
	n, err := strconv.Atoi(numStr)
	if err != nil || n < 0 {
		return p, fmt.Errorf("-restart-policy %q: want N or N@window", s)
	}
	p.MaxRestarts = n
	if hasWin {
		w, err := time.ParseDuration(winStr)
		if err != nil {
			return p, fmt.Errorf("-restart-policy %q: %v", s, err)
		}
		p.Window = w
	}
	return p, nil
}

// ms renders a duration as fractional milliseconds for the CSV.
func ms(d time.Duration) string {
	return strconv.FormatFloat(float64(d.Nanoseconds())/1e6, 'f', 3, 64)
}

// printTraces reports each traced run's end-to-end latency breakdown:
// how the traced records' lifetime split across input queues, operator
// processing, and network hops. It returns false when writing the Chrome
// trace to out failed.
func printTraces(rows []harness.RunResult, out string) bool {
	fmt.Println("\ntracing (sampled end-to-end):")
	for _, r := range rows {
		t := r.Trace
		if t.Spans == 0 {
			continue
		}
		fmt.Printf("  %-24s %-14s %d spans / %d traces, e2e p50 %v p99 %v, queue %v proc %v net %v",
			r.Name, r.Approach, t.Spans, t.Traces,
			t.E2EP50.Round(time.Microsecond), t.E2EP99.Round(time.Microsecond),
			time.Duration(t.QueueNs).Round(time.Microsecond),
			time.Duration(t.ProcNs).Round(time.Microsecond),
			time.Duration(t.NetNs).Round(time.Microsecond))
		if t.Dropped > 0 {
			fmt.Printf(" (%d spans dropped at buffer cap)", t.Dropped)
		}
		fmt.Println()
	}
	if out == "" {
		return true
	}
	for _, r := range rows {
		if errors.Is(r.Err, harness.ErrTraceExport) {
			fmt.Printf("  chrome trace not written: %v\n", r.Err)
			return false
		}
	}
	fmt.Printf("  chrome trace written to %s (load in chrome://tracing or https://ui.perfetto.dev)\n", out)
	return true
}

// checkCluster scrapes the federated /cluster/metrics endpoint after a
// distributed run and verifies the federation end to end: every worker of
// the cluster must have reported a stats push (its worker label appears),
// and the per-worker sink ingress counters must sum to the run's match
// count. Catches dead stats loops, mislabeled series, and double-merged
// snapshots.
func checkCluster(addr string, rows []harness.RunResult) error {
	var dist *harness.RunResult
	for i := range rows {
		if strings.HasSuffix(rows[i].Approach, "-dist") {
			dist = &rows[i]
		}
	}
	if dist == nil {
		return fmt.Errorf("no distributed run to check")
	}
	if dist.Failed {
		return fmt.Errorf("distributed run failed: %v", dist.Err)
	}
	workers := 0
	if _, n, ok := strings.Cut(dist.Name, "workers="); ok {
		workers, _ = strconv.Atoi(n)
	}
	if workers <= 0 {
		return fmt.Errorf("cannot determine cluster size from run name %q", dist.Name)
	}

	resp, err := http.Get("http://" + addr + "/cluster/metrics")
	if err != nil {
		return err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return fmt.Errorf("GET /cluster/metrics: %s", resp.Status)
	}
	seen := make(map[string]bool)
	var sinkIn int64
	scan := bufio.NewScanner(resp.Body)
	scan.Buffer(make([]byte, 0, 64*1024), 1<<20)
	for scan.Scan() {
		line := scan.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		if _, rest, ok := strings.Cut(line, `worker="`); ok {
			if w, _, ok := strings.Cut(rest, `"`); ok {
				seen[w] = true
			}
		}
		if strings.HasPrefix(line, "cep2asp_operator_records_in_total{") &&
			strings.Contains(line, `node="sink#`) {
			if i := strings.LastIndexByte(line, ' '); i >= 0 {
				v, err := strconv.ParseFloat(line[i+1:], 64)
				if err != nil {
					return fmt.Errorf("unparseable sample %q: %v", line, err)
				}
				sinkIn += int64(v)
			}
		}
	}
	if err := scan.Err(); err != nil {
		return err
	}
	for i := 0; i < workers; i++ {
		if !seen[strconv.Itoa(i)] {
			return fmt.Errorf("worker %d missing from /cluster/metrics (saw %d worker labels)", i, len(seen))
		}
	}
	if sinkIn != dist.Total {
		return fmt.Errorf("match counters disagree: /cluster/metrics sink ingress sums to %d, run reported %d matches", sinkIn, dist.Total)
	}
	return nil
}

// opsCSVPath derives the per-operator CSV path from the results path:
// results.csv -> results_operators.csv.
func opsCSVPath(path string) string {
	if i := strings.LastIndex(path, "."); i > 0 {
		return path[:i] + "_operators" + path[i:]
	}
	return path + "_operators.csv"
}

func printTable2() {
	fmt.Println("=== Table 2: operator support ===")
	fmt.Print(harness.Table2Support())
}

func printRows(rows []harness.RunResult) {
	fmt.Printf("%-24s %-14s %12s %12s %10s %12s %12s %12s %12s\n",
		"experiment", "approach", "tpl/s", "matches", "unique", "σo %", "lat p50", "lat p99", "avg lat")
	for _, r := range rows {
		if r.Failed {
			fmt.Printf("%-24s %-14s %s\n", r.Name, r.Approach, "FAILED: "+r.Err.Error())
			continue
		}
		fmt.Printf("%-24s %-14s %12.0f %12d %10d %12.6f %12v %12v %12v\n",
			r.Name, r.Approach, r.ThroughputTps, r.Total, r.Unique,
			r.SelectivityPct, r.P50Latency.Round(time.Microsecond),
			r.P99Latency.Round(time.Microsecond), r.AvgLatency.Round(time.Microsecond))
	}
}

// printOperators reports the end-of-run per-operator series of each run:
// where records flowed, which operator was hot (proc p99), how far
// watermarks lagged, and where backpressure accumulated.
func printOperators(rows []harness.RunResult) {
	for _, r := range rows {
		if len(r.Operators) == 0 {
			continue
		}
		fmt.Printf("\noperators of %s/%s:\n", r.Name, r.Approach)
		fmt.Printf("  %-28s %10s %10s %8s %10s %12s %10s\n",
			"node/inst", "in", "out", "late", "partials", "proc p99", "wm lag")
		for _, o := range r.Operators {
			fmt.Printf("  %-28s %10d %10d %8d %10d %12v %10s\n",
				fmt.Sprintf("%s/%d", o.Node, o.Instance), o.In, o.Out, o.Late,
				o.Partials, time.Duration(o.ProcP99).Round(time.Microsecond),
				lagString(o))
		}
		for _, e := range r.OperatorEdges {
			if e.BlockedNanos == 0 {
				continue
			}
			fmt.Printf("  edge %s -> %s: blocked %v, %d sent\n",
				e.From, e.To, time.Duration(e.BlockedNanos).Round(time.Microsecond), e.Sent)
		}
	}
}

func lagString(o obs.OperatorSnapshot) string {
	if !o.WatermarkValid {
		return "-"
	}
	return fmt.Sprintf("%dms", o.WatermarkLagMs)
}

// printCheckpoints reports checkpoint overhead per run: how many completed,
// the largest serialized snapshot, and the worst alignment stall.
func printCheckpoints(rows []harness.RunResult) {
	fmt.Println("\ncheckpoint overhead:")
	for _, r := range rows {
		if len(r.Checkpoints) == 0 {
			continue
		}
		maxBytes, maxPause, _, _ := ckptOverhead(r.Checkpoints)
		fmt.Printf("  %-24s %-14s %4d checkpoints, max snapshot %6.1f KB, max align pause %v\n",
			r.Name, r.Approach, len(r.Checkpoints), float64(maxBytes)/1e3,
			maxPause.Round(time.Microsecond))
	}
}

// ckptOverhead folds a run's checkpoints into the CSV's overhead columns:
// the largest snapshot, the worst single-instance alignment stall, and the
// p50/p99 trigger-to-complete durations.
func ckptOverhead(stats []checkpoint.Stat) (maxBytes int64, maxPause, p50, p99 time.Duration) {
	if len(stats) == 0 {
		return 0, 0, 0, 0
	}
	durs := make([]time.Duration, len(stats))
	for i, st := range stats {
		maxBytes = max(maxBytes, st.Bytes)
		maxPause = max(maxPause, st.AlignPause)
		durs[i] = st.Duration
	}
	slices.Sort(durs)
	n := float64(len(durs) - 1)
	return maxBytes, maxPause, durs[int(0.50*n)], durs[int(0.99*n)]
}

// printSupervision reports recovery activity per supervised run: restarts
// performed and poison records dead-lettered.
func printSupervision(rows []harness.RunResult) {
	fmt.Println("\nsupervision:")
	for _, r := range rows {
		status := "completed"
		if r.Failed {
			status = "failed: " + r.Err.Error()
		}
		fmt.Printf("  %-24s %-14s %d restarts, %d dead letters, %s\n",
			r.Name, r.Approach, r.Restarts, len(r.DeadLetters), status)
	}
}

// printOverload reports bounded-state accounting for runs that shed state
// or ran under the memory admission controller; silent for all others.
func printOverload(rows []harness.RunResult) {
	var any bool
	for _, r := range rows {
		if r.ShedRecords > 0 || r.PeakHeapBytes > 0 {
			any = true
			break
		}
	}
	if !any {
		return
	}
	fmt.Println("\noverload accounting:")
	for _, r := range rows {
		if r.ShedRecords == 0 && r.PeakHeapBytes == 0 {
			continue
		}
		fmt.Printf("  %-24s %-14s shed %d records, peak state %d records, peak heap %.1f MB, recall ≥ %.4g\n",
			r.Name, r.Approach, r.ShedRecords, r.PeakStateRecords, float64(r.PeakHeapBytes)/1e6, r.RecallEstimate)
		for _, a := range r.QualityActions {
			fmt.Printf("    quality: %s\n", a)
		}
	}
}

func printResources(rows []harness.RunResult) {
	fmt.Println("\nresource usage (peaks):")
	for _, r := range rows {
		if len(r.Resources) == 0 {
			continue
		}
		heap, cpu := metrics.Peak(r.Resources)
		var peakState int64
		for _, smp := range r.Resources {
			if smp.State > peakState {
				peakState = smp.State
			}
		}
		fmt.Printf("  %-24s %-14s peak heap %6.1f MB, peak CPU %5.1f%%, peak state %d, %d samples\n",
			r.Name, r.Approach, float64(heap)/1e6, cpu, peakState, len(r.Resources))
		printSeries(r.Resources)
	}
}

// printSeries renders a compact memory-over-time sparkline-style table.
func printSeries(samples []metrics.Sample) {
	if len(samples) == 0 {
		return
	}
	// Up to 8 evenly spaced points.
	step := len(samples) / 8
	if step == 0 {
		step = 1
	}
	var idxs []int
	for i := 0; i < len(samples); i += step {
		idxs = append(idxs, i)
	}
	sort.Ints(idxs)
	fmt.Print("    t(ms)/heap(MB)/cpu%/state:")
	for _, i := range idxs {
		s := samples[i]
		fmt.Printf("  %d/%.0f/%.0f/%d", s.At.Milliseconds(), float64(s.HeapBytes)/1e6, s.CPUPct, s.State)
	}
	fmt.Println()
}
