package main

import (
	"context"
	"fmt"
	"io"
	"path/filepath"
	"runtime"
	"syscall"
	"time"

	"cep2asp"
)

// config is one invocation of the benchmark.
type config struct {
	workload *workload
	seed     int64
	// seconds is the time the measured phases may take together; set-up,
	// verification and warm-up come on top.
	seconds float64
	trace   bool
	smoke   bool
	// expectUnique overrides the unique-match count every full pass is
	// held to (-1: the first pass sets it). Setting a wrong one shows that
	// the gate fails the run.
	expectUnique int64
	// outDir is where a traced run writes its spans file: bench/out, a
	// temporary directory in the tests.
	outDir string
	log    io.Writer
}

// metric is one reported value in the result line.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line of standard output.
type result struct {
	Correct   bool              `json:"correct"`
	Attempted int               `json:"attempted"`
	Failed    int               `json:"failed"`
	Metrics   map[string]metric `json:"metrics"`
	// unique is the unique-match count of the full passes, for the tests.
	unique int64
}

const (
	// pacedShare is the share of config.seconds the paced phase takes; the
	// full-speed rounds take the rest.
	pacedShare = 0.30

	warmupPasses = 2
	minRounds    = 3
	// Set-up is repeated until setupShare of config.seconds is spent
	// (1.5 s of 24), at most setupRepeats times: the small workloads set up
	// in 10 ms, the first repeats of a process take twice that, and the
	// median of five moved by 20 % between sets of runs.
	setupRepeats       = 25
	setupShare         = 1.0 / 16
	checkpointInterval = 500 * time.Millisecond
	traceRate          = 0.01
	// minLatencySamples keeps at least ten samples beyond a p99.
	minLatencySamples = 1000
	// maxScheduleLag is the share of the paced phase the generator may run
	// late before the latency numbers stop meaning what they say.
	maxScheduleLag = 0.05
)

type bench struct {
	cfg     config
	w       *workload
	pattern *cep2asp.Pattern
	in      inputs
	spans   *spanRecorder
	values  map[string]float64

	attempted, failed int
	// unique is what every full pass must report; -1 until the cross-checked
	// run of verify, or else the first pass, sets it.
	unique int64
}

// run executes one workload once and reports the metrics of its mode.
func run(ctx context.Context, cfg config) (result, error) {
	b := &bench{
		cfg: cfg, w: cfg.workload,
		spans:  newSpanRecorder(fmt.Sprintf("%s-%d", cfg.workload.Name, cfg.seed)),
		values: map[string]float64{},
		unique: cfg.expectUnique,
	}
	endRun := b.spans.begin("run")
	if err := b.setup(); err != nil {
		return result{}, err
	}
	pacedSeconds := cfg.seconds * pacedShare
	prefix := b.in.prefix(int(b.w.PacedRate * pacedSeconds))

	end := b.spans.begin("verify")
	prefixUnique := b.verify(ctx, prefix)
	end()

	for i := 0; i < warmupPasses; i++ {
		b.pass(ctx, passKind{name: "warmup"})
	}
	var gc0 runtime.MemStats
	runtime.ReadMemStats(&gc0)

	fullSpeed := time.Duration(cfg.seconds * (1 - pacedShare) * float64(time.Second))
	if cfg.trace {
		by := b.rounds(ctx, fullSpeed, plainPass, observedPass, tracedPass)
		b.overheads(by)
		b.layerPass(ctx)
	} else {
		by := b.rounds(ctx, fullSpeed, plainPass, observedPass)
		plain := by[plainPass.name]
		b.values["throughput_tps"] = median(each(plain, sample.tps))
		b.values["cpu_ns_per_event"] = median(each(plain, sample.cpuPerEvent))
		b.values["allocs_per_event"] = median(each(plain, sample.allocsPerEvent))
		b.values["bytes_per_event"] = median(each(plain, sample.bytesPerEvent))
		b.values["obs_throughput_tps"] = median(each(by[observedPass.name], sample.tps))
	}
	b.paced(ctx, prefix, prefixUnique)

	var gc1 runtime.MemStats
	runtime.ReadMemStats(&gc1)
	b.values["go.gc_cycles"] = float64(gc1.NumGC - gc0.NumGC)
	b.values["go.gc_pause_total_ms"] = float64(gc1.PauseTotalNs-gc0.PauseTotalNs) / 1e6
	b.values["go.heap_peak_mb"] = float64(gc1.HeapSys) / (1 << 20)

	if cfg.trace {
		if err := b.probes(); err != nil {
			return result{}, err
		}
	}
	endRun()

	defs := endToEnd
	if cfg.trace {
		defs = perLayer
		spans := b.spans.finish()
		path := filepath.Join(cfg.outDir, b.w.Name+".spans.json")
		if err := writeSpans(path, spans); err != nil {
			return result{}, fmt.Errorf("writing spans: %w", err)
		}
		b.logf("%d spans written to %s", len(spans), path)
	}
	res := result{Correct: b.failed == 0, Attempted: b.attempted, Failed: b.failed, Metrics: map[string]metric{}, unique: b.unique}
	for _, d := range defs {
		v, ok := b.values[d.Name]
		if !ok {
			return result{}, fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metric{Value: v, Unit: d.Unit}
	}
	return res, nil
}

func (b *bench) logf(format string, args ...any) {
	fmt.Fprintf(b.cfg.log, format+"\n", args...)
}

// op counts one operation of the run and, when it went wrong, one failure.
func (b *bench) op(what string, ok bool, detail string) bool {
	b.attempted++
	if !ok {
		b.failed++
		b.logf("FAILED %s: %s", what, detail)
	}
	return ok
}

// setup generates the inputs, parses the pattern and builds the job,
// several times over, and reports the median: one set-up of a small
// workload lasts tens of milliseconds and repeats poorly.
func (b *bench) setup() error {
	end := b.spans.begin("setup")
	defer end()
	var total, generate, parse, translate []float64
	budget := time.Duration(b.cfg.seconds * setupShare * float64(time.Second))
	began := time.Now()
	for i := 0; i < setupRepeats && (i < b.minRepeats() || time.Since(began) < budget); i++ {
		b.in = nil
		runtime.GC() // not timed: each repeat starts without the last one's streams
		t0 := time.Now()
		endGen := b.spans.begin("generate")
		b.in = b.w.generate(b.cfg.seed, b.cfg.smoke)
		endGen()
		generate = append(generate, time.Since(t0).Seconds())

		endParse := b.spans.begin("sea.Parse")
		p, took, err := probeParse(b.w.PSL)
		endParse()
		if err != nil {
			return fmt.Errorf("parsing %s: %w", b.w.Name, err)
		}
		parse = append(parse, float64(took.Nanoseconds())/1e3)
		b.pattern = p

		endTr := b.spans.begin("core.Translate")
		nodes, took, err := probeTranslate(b.w, p)
		endTr()
		if err != nil {
			return fmt.Errorf("translating %s: %w", b.w.Name, err)
		}
		translate = append(translate, float64(took.Nanoseconds())/1e3)
		b.values["core.plan_nodes"] = float64(nodes)

		_ = b.job(b.in, b.w.FCEP)
		total = append(total, time.Since(t0).Seconds())
	}
	b.logf("setup repeats s: %.4g", total)
	b.values["setup_s"] = median(total)
	b.values["workload.generate_s"] = median(generate)
	b.values["workload.events"] = float64(b.in.events())
	b.values["sea.parse_us"] = median(parse)
	b.values["core.translate_us"] = median(translate)
	return nil
}

// minRepeats is the least number of times set-up and the full-speed round
// are repeated: once at the smoke size.
func (b *bench) minRepeats() int {
	if b.cfg.smoke {
		return 1
	}
	return minRounds
}

// job builds the workload's job over the given streams through the facade.
func (b *bench) job(in inputs, fcep bool) *cep2asp.Job {
	j := cep2asp.NewJob(b.pattern).WithOptions(b.w.Opts)
	for i, name := range b.w.Streams {
		j.AddStream(name, in[i])
	}
	if fcep {
		j.UseFCEP()
	}
	return j
}

// sample is what one pass cost.
type sample struct {
	events  int
	wall    time.Duration
	cpuNs   int64
	mallocs uint64
	bytes   uint64
	stats   *cep2asp.RunStats
}

func (s sample) tps() float64            { return float64(s.events) / s.wall.Seconds() }
func (s sample) cpuPerEvent() float64    { return float64(s.cpuNs) / float64(s.events) }
func (s sample) allocsPerEvent() float64 { return float64(s.mallocs) / float64(s.events) }
func (s sample) bytesPerEvent() float64  { return float64(s.bytes) / float64(s.events) }

func each(samples []sample, f func(sample) float64) []float64 {
	out := make([]float64, len(samples))
	for i, s := range samples {
		out[i] = f(s)
	}
	return out
}

// cpuNow returns the user plus system CPU time the process has used.
func cpuNow() int64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return 0
	}
	return ru.Utime.Nano() + ru.Stime.Nano()
}

// measure runs one job and records wall time, CPU time and allocation. The
// collection beforehand starts every pass from the same heap; it is not
// part of what is measured.
func measure(ctx context.Context, job *cep2asp.Job, events int) (sample, error) {
	runtime.GC()
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	cpu0 := cpuNow()
	t0 := time.Now()
	st, err := job.Run(ctx)
	s := sample{events: events, wall: time.Since(t0), cpuNs: cpuNow() - cpu0, stats: st}
	runtime.ReadMemStats(&m1)
	s.mallocs = m1.Mallocs - m0.Mallocs
	s.bytes = m1.TotalAlloc - m0.TotalAlloc
	return s, err
}

// passKind is one way of running the workload's job at full speed.
type passKind struct {
	name      string
	configure func(*cep2asp.Job)
}

var (
	// plainPass attaches nothing: what the engine can do.
	plainPass = passKind{name: "plain"}
	// observedPass attaches a fresh metrics registry: what a user scraping
	// /metrics pays.
	observedPass = passKind{name: "observed", configure: func(j *cep2asp.Job) {
		j.WithMetrics(cep2asp.NewMetricsRegistry())
	}}
	// tracedPass adds 1% end-to-end tracing to the registry.
	tracedPass = passKind{name: "traced", configure: func(j *cep2asp.Job) {
		j.WithMetrics(cep2asp.NewMetricsRegistry()).WithTracing(traceRate, "")
	}}
)

// pass runs the workload's job once at full speed over the full inputs,
// closed loop (bounded channels backpressure the sources), with matches
// discarded, and holds it to the unique-match count of the first pass.
func (b *bench) pass(ctx context.Context, kind passKind) (sample, bool) {
	end := b.spans.begin("Job.Run " + kind.name)
	defer end()
	j := b.job(b.in, b.w.FCEP).DiscardMatches()
	if kind.configure != nil {
		kind.configure(j)
	}
	s, err := measure(ctx, j, b.in.events())
	if !b.op(kind.name+" pass", err == nil, fmt.Sprint(err)) {
		return s, false
	}
	if b.unique < 0 {
		b.unique = s.stats.Unique
	}
	ok := b.op(kind.name+" pass unique", s.stats.Unique == b.unique,
		fmt.Sprintf("%d unique matches, expected %d", s.stats.Unique, b.unique))
	return s, ok
}

// rounds repeats rounds of one pass of each kind until the next round
// would overrun the budget, and at least minRounds times (once at the smoke
// size). Interleaving the kinds makes a drift of the host during the run
// move them alike, and lets each kind's median sample the whole phase.
func (b *bench) rounds(ctx context.Context, budget time.Duration, kinds ...passKind) map[string][]sample {
	end := b.spans.begin("phase full-speed")
	defer end()
	least := b.minRepeats()
	by := map[string][]sample{}
	began := time.Now()
	n := 0
	for ; ; n++ {
		spent := time.Since(began)
		if n >= least && spent+spent/time.Duration(n) > budget {
			break
		}
		for _, k := range kinds {
			if s, ok := b.pass(ctx, k); ok {
				by[k.name] = append(by[k.name], s)
			}
		}
	}
	b.logf("full-speed: %d rounds in %.2fs", n, time.Since(began).Seconds())
	for _, k := range kinds {
		b.logf("  %-8s events/s %.4g", k.name, each(by[k.name], sample.tps))
		b.logf("  %-8s cpu ns/event %.4g", k.name, each(by[k.name], sample.cpuPerEvent))
	}
	return by
}

// overheads reports what the registry costs over nothing and 1% tracing
// over the registry, and the last traced pass's latency breakdown.
func (b *bench) overheads(by map[string][]sample) {
	tps := func(kind passKind) float64 { return median(each(by[kind.name], sample.tps)) }
	traced := by[tracedPass.name]
	b.values["obs.overhead_pct"] = 100 * (1 - share(tps(observedPass), tps(plainPass)))
	b.values["trace.overhead_pct"] = 100 * (1 - share(tps(tracedPass), tps(observedPass)))
	var tr cep2asp.TraceSummary
	if len(traced) > 0 {
		tr = traced[len(traced)-1].stats.Trace
	}
	b.values["trace.queue_share"] = share(float64(tr.QueueNs), float64(tr.QueueNs+tr.ProcNs+tr.NetNs))
	b.values["trace.e2e_p50_us"] = float64(tr.E2EP50.Nanoseconds()) / 1e3
	b.values["trace.e2e_p99_us"] = float64(tr.E2EP99.Nanoseconds()) / 1e3
	b.values["trace.spans"] = float64(tr.Spans)
}

// layerPass is one observed full-speed pass whose registry is read for the
// per-layer counts and times, with a poller catching peak state.
func (b *bench) layerPass(ctx context.Context) {
	reg := cep2asp.NewMetricsRegistry()
	stop := pollState(reg)
	s, ok := b.pass(ctx, passKind{name: "layers", configure: func(j *cep2asp.Job) { j.WithMetrics(reg) }})
	peaks := stop()
	if ok {
		layerValues(reg.Snapshot(), peaks, s, b.values)
	}
}

// paced replays the prefix open loop: every source emits on the schedule
// start + i/rate whether or not the engine keeps up, with aligned-barrier
// checkpoints into a timed store. It yields the detection latencies, how
// late the generator ran and the checkpoint timings.
func (b *bench) paced(ctx context.Context, prefix inputs, wantUnique int64) {
	end := b.spans.begin("Job.Run paced")
	defer end()
	store := newTimedStore()
	reg := cep2asp.NewMetricsRegistry()
	j := b.job(prefix, b.w.FCEP).DiscardMatches().
		WithSourceRate(b.w.PacedRate).
		WithMetrics(reg).
		WithEngine(cep2asp.EngineConfig{Checkpoint: &cep2asp.CheckpointSpec{Store: store, Interval: checkpointInterval}})
	s, err := measure(ctx, j, prefix.events())
	if !b.op("paced pass", err == nil, fmt.Sprint(err)) {
		return
	}
	b.op("paced pass unique", s.stats.Unique == wantUnique,
		fmt.Sprintf("%d unique matches, the full-speed run over the same prefix gave %d", s.stats.Unique, wantUnique))

	longest := 0
	for _, stream := range prefix {
		longest = max(longest, len(stream))
	}
	due := time.Duration(float64(longest) / b.w.PacedRate * float64(time.Second))
	lag := max(s.wall-due, 0)
	b.values["asp.source.schedule_lag_ms"] = float64(lag.Nanoseconds()) / 1e6

	lat := latencyState(reg)
	ms := func(q float64) float64 { return histQuantile(lat, q) / 1e6 }
	b.values["detect_latency_p50_ms"] = ms(0.50)
	b.values["detect_latency_p95_ms"] = ms(0.95)
	b.values["asp.sink.detect_latency_p99_ms"] = ms(0.99)
	b.logf("paced: %d events/source at %.0f/s in %.2fs (due %.2fs), %d unique, %d latency samples",
		longest, b.w.PacedRate, s.wall.Seconds(), due.Seconds(), s.stats.Unique, lat.Count)
	// The whole ladder, so a reader of the log sees where the tail starts.
	b.logf("paced latency ms: p50 %.6g p75 %.6g p90 %.6g p95 %.6g p98 %.6g p99 %.6g p99.5 %.6g",
		ms(0.50), ms(0.75), ms(0.90), ms(0.95), ms(0.98), ms(0.99), ms(0.995))
	if !b.cfg.smoke {
		b.op("paced latency samples", lat.Count >= minLatencySamples,
			fmt.Sprintf("%d sink latency samples, need %d for the tail quantiles", lat.Count, minLatencySamples))
		b.op("paced schedule lag", lag.Seconds() <= maxScheduleLag*due.Seconds(),
			fmt.Sprintf("generator finished %.3fs after the %.3fs schedule", lag.Seconds(), due.Seconds()))
	}

	ck := store.stats()
	b.values["checkpoint.completed"] = float64(ck.completed)
	b.values["checkpoint.save_p50_us"] = ck.saveP50Us
	b.values["checkpoint.bytes_max"] = ck.bytesMax
	b.values["checkpoint.interval_p50_ms"] = ck.intervalP50Ms
}

// probes runs the direct, engine-free layer probes.
func (b *bench) probes() error {
	end := b.spans.begin("probe nfa")
	ns, allocs, err := probeNFA(b.w, b.pattern, b.in)
	end()
	if err != nil {
		return fmt.Errorf("nfa probe: %w", err)
	}
	b.values["nfa.step_ns_per_event"] = ns
	b.values["nfa.step_allocs_per_event"] = allocs

	end = b.spans.begin("probe exchange codec")
	codec, err := probeCodec(b.w, b.in)
	end()
	if err != nil {
		return fmt.Errorf("codec probe: %w", err)
	}
	b.values["exchange.encode_ns_per_record"] = codec.encodeNsPerRecord
	b.values["exchange.decode_ns_per_record"] = codec.decodeNsPerRecord
	b.values["exchange.bytes_per_record"] = codec.bytesPerRecord
	return nil
}
