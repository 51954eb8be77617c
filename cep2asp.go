// Package cep2asp reproduces "Bridging the Gap: Complex Event Processing
// on Stream Processing Systems" (EDBT 2024): a general operator mapping
// that translates Complex Event Processing patterns — sequence,
// conjunction, disjunction, iteration, negated sequence, plus selections,
// projections and windows (the Simple Event Algebra) — into analytical
// stream processing queries built from filters, unions, window and interval
// joins and aggregations.
//
// The package is a facade over the full system:
//
//   - a SASE+-style pattern language with formal set semantics
//     (internal/sea);
//   - a from-scratch dataflow engine with event-time watermarks, keyed
//     parallelism and backpressure (internal/asp);
//   - the CEP→ASP translator with the paper's optimizations O1 (interval
//     joins), O2 (aggregation for iterations) and O3 (key partitioning)
//     (internal/core);
//   - an NFA-based unary CEP operator — the FlinkCEP-style baseline the
//     paper evaluates against (internal/nfa, internal/cep);
//   - synthetic workload generators matching the paper's traffic and
//     air-quality data sources (internal/workload).
//
// # Quick start
//
//	pattern, _ := cep2asp.Parse(`
//	    PATTERN SEQ(QnVQuantity q, QnVVelocity v)
//	    WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
//	    WITHIN 15 MINUTES`)
//	q, v := cep2asp.GenerateQnV(100, 240, 1)
//	stats, _ := cep2asp.NewJob(pattern).
//	    AddStream("QnVQuantity", q).
//	    AddStream("QnVVelocity", v).
//	    Run(context.Background())
//	fmt.Println(stats.Unique, "matches at", stats.ThroughputTps, "tpl/s")
package cep2asp

import (
	"context"
	"fmt"
	"io"
	"net/http"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/csvio"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/optimizer"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
	"cep2asp/internal/trace"
	"cep2asp/internal/workload"
)

// Core data model types.
type (
	// Event is a stream tuple: (type, id, lat, lon, ts, value).
	Event = event.Event
	// Match is a composite event: the constituents of a pattern match.
	Match = event.Match
	// Type identifies an event type.
	Type = event.Type
)

// Pattern language types.
type (
	// Pattern is a parsed and validated SEA pattern.
	Pattern = sea.Pattern
	// PatternWindow is the mandatory sliding window of a pattern.
	PatternWindow = sea.Window
)

// Translation types.
type (
	// Options selects the mapping optimizations (O1/O2/O3) and the
	// parallelism of partitioned operators.
	Options = core.Options
	// Plan is a translated pattern; print Plan.Explain() to inspect the
	// operator decomposition.
	Plan = core.Plan
	// EngineConfig tunes the dataflow engine (parallelism, channel
	// capacities, watermark cadence, state budget).
	EngineConfig = asp.Config
	// CheckpointSpec enables aligned-barrier checkpointing
	// (EngineConfig.Checkpoint): a Store, a trigger Interval, and the
	// Restore/RestoreID recovery switches.
	CheckpointSpec = asp.CheckpointSpec
	// CheckpointStore persists completed snapshots; see
	// NewMemCheckpointStore and NewFileCheckpointStore.
	CheckpointStore = checkpoint.Store
)

// Observability types (internal/obs): the per-operator metrics registry
// attached through EngineConfig.Metrics or Job.WithMetrics.
type (
	// MetricsRegistry collects per-operator-instance counters and gauges
	// (records in/out, late arrivals, processing-time histograms,
	// watermarks and lag, per-edge queue depth and blocked-send time)
	// while a job runs. Snapshot may be called concurrently; ServeMetrics
	// exposes it live over HTTP.
	MetricsRegistry = obs.Registry
	// MetricsSnapshot is a point-in-time view of every instrument.
	MetricsSnapshot = obs.Snapshot
	// OperatorSnapshot is one operator instance's metrics.
	OperatorSnapshot = obs.OperatorSnapshot
	// EdgeSnapshot is one dataflow edge's metrics (queue fill,
	// backpressure time).
	EdgeSnapshot = obs.EdgeSnapshot
	// TraceSummary is the end-to-end latency breakdown of a traced run
	// (Job.WithTracing): span/trace counts, aggregate queue/processing/
	// network time, and per-trace end-to-end latency percentiles.
	TraceSummary = trace.Summary
)

// Supervision types (internal/supervise, internal/chaos): the failure
// handling attached through Job.WithRestartPolicy and Job.WithChaos.
type (
	// RestartPolicy governs supervised restarts: exponential backoff with
	// jitter, a restart budget over a rolling window, and the poison-record
	// threshold. See DefaultRestartPolicy.
	RestartPolicy = supervise.Policy
	// DeadLetter is one poison record routed to the dead-letter queue: a
	// record whose processing kept crashing the job until the supervisor
	// quarantined it.
	DeadLetter = supervise.Letter
	// DeadLetterQueue collects dead letters (Depth, Letters, WriteCSV).
	DeadLetterQueue = supervise.DLQ
	// ChaosInjector arms deterministic fault-injection points in the engine
	// (Job.WithChaos); ChaosFault describes one fault — a panic, delay or
	// stall at a named operator instance, fired at an exact hit count or on
	// an exact record.
	ChaosInjector = chaos.Injector
	ChaosFault    = chaos.Fault
	// OperatorFailure is the structured form of an isolated operator panic:
	// node, instance, panic value, stack, and the offending record. A job
	// whose restart budget is exhausted returns an error wrapping it.
	OperatorFailure = asp.OperatorFailure
	// ShutdownTimeoutError reports a teardown that exceeded the
	// Job.WithStopTimeout deadline, naming the stuck operator instances.
	ShutdownTimeoutError = asp.ErrShutdownTimeout
)

// Overload types (internal/overload): bounded-state execution attached
// through Job.WithStateBudget and Job.WithOverloadPolicy, or in full through
// EngineConfig.Overload.
type (
	// OverloadPolicy selects what happens when a state budget is reached:
	// OverloadFail aborts with a structured error, OverloadShed evicts the
	// oldest state first (counted, never silent), OverloadPause throttles
	// the sources until state drains below the low-water mark.
	OverloadPolicy = overload.Policy
	// StateBudget bounds the records a single operator instance
	// (PerOperator) and the whole job (PerJob) may retain.
	StateBudget = overload.Budget
	// OverloadSpec is the full overload configuration: budget, policy, and
	// the memory admission controller (EngineConfig.Overload).
	OverloadSpec = overload.Spec
	// MemoryConfig tunes the heap admission controller: a soft limit
	// (GOMEMLIMIT-aware), hysteresis watermarks and the sample interval.
	MemoryConfig = overload.MemConfig
	// StateBudgetExceededError reports which operator (or the job total)
	// blew its budget under the Fail policy; errors.Is(err, ErrStateBudget)
	// matches it.
	StateBudgetExceededError = asp.BudgetExceededError
	// ShedStrategy selects the victim order under the Shed policy:
	// ShedOldestFirst evicts the oldest state, ShedPatternAware evicts the
	// state least likely to still complete into a match (completion-
	// probability scoring), with every eviction charged to the recall
	// accounting either way.
	ShedStrategy = overload.ShedStrategy
	// QualitySpec declares per-job quality demands for Job.WithQuality: a
	// p99 detection-latency ceiling, a minimum recall estimate, and a
	// live-heap bound. Zero fields are unconstrained.
	QualitySpec = overload.QualityDemand
	// QualityInfeasibleError reports quality demands that conflict with
	// each other or with the job's overload configuration; Run fails fast
	// with it instead of degrading unpredictably.
	QualityInfeasibleError = overload.QualityInfeasibleError
)

// Overload policy constants.
const (
	OverloadFail  = overload.Fail
	OverloadShed  = overload.Shed
	OverloadPause = overload.Pause
)

// Shed-strategy constants (Job.WithShedStrategy).
const (
	ShedOldestFirst  = overload.OldestFirst
	ShedPatternAware = overload.PatternAware
)

// ErrStateBudget is the sentinel matched by budget-abort errors.
var ErrStateBudget = asp.ErrStateBudget

// ParseOverloadPolicy parses "fail", "shed" or "pause".
func ParseOverloadPolicy(s string) (OverloadPolicy, error) { return overload.ParsePolicy(s) }

// ParseShedStrategy parses "oldest" or "pattern".
func ParseShedStrategy(s string) (ShedStrategy, error) { return overload.ParseShedStrategy(s) }

// DefaultRestartPolicy returns the default supervision policy: up to 5
// restarts per rolling minute, 10ms initial backoff doubling to a 2s cap
// with 20% jitter, and a 3-strike poison-record threshold.
func DefaultRestartPolicy() RestartPolicy { return supervise.DefaultPolicy() }

// NewChaosInjector arms the given faults for Job.WithChaos. Share one
// injector across a job's lifetime: its hit counters stay monotonic across
// supervised restarts, so a once-only fault does not re-fire after recovery.
func NewChaosInjector(faults ...ChaosFault) *ChaosInjector { return chaos.NewInjector(faults...) }

// ParseChaosFaults parses a comma-separated fault list in the benchrunner's
// -chaos grammar: kind:node/inst[@hit][xN][%recordkey], with kind one of
// panic, stall, delay=<duration>.
func ParseChaosFaults(specs string) ([]ChaosFault, error) { return chaos.ParseFaults(specs) }

// NewMetricsRegistry creates an empty per-operator metrics registry.
func NewMetricsRegistry() *MetricsRegistry { return obs.NewRegistry() }

// ServeMetrics starts a live observability endpoint on addr (":0" picks a
// free port): /metrics serves Prometheus text format, /debug/topology the
// DAG JSON with per-edge queue fill. Returns the server (Close it when
// done) and the bound address.
func ServeMetrics(addr string, reg *MetricsRegistry) (*http.Server, string, error) {
	return obs.Serve(addr, reg)
}

// NewMemCheckpointStore returns an in-process checkpoint store, suitable
// for kill-and-restore within one process (tests, embedded use).
func NewMemCheckpointStore() CheckpointStore { return checkpoint.NewMemStore() }

// NewFileCheckpointStore returns a checkpoint store writing one file per
// snapshot under dir (atomic rename, crash-safe); it survives process
// restarts, so a new process can resume a killed run's latest checkpoint.
func NewFileCheckpointStore(dir string) (CheckpointStore, error) {
	return checkpoint.NewFileStore(dir)
}

// NewFileCheckpointStoreRetained is NewFileCheckpointStore bounded to the
// keep most recent checkpoints: each save prunes older snapshot files after
// the new one is atomically in place, so long-running supervised jobs do not
// accumulate unbounded checkpoint history.
func NewFileCheckpointStoreRetained(dir string, keep int) (CheckpointStore, error) {
	fs, err := checkpoint.NewFileStore(dir)
	if err != nil {
		return nil, err
	}
	return fs.WithRetention(keep), nil
}

// Time unit constants of the engine's millisecond time model.
const (
	Millisecond = event.Millisecond
	Second      = event.Second
	Minute      = event.Minute
	Hour        = event.Hour
)

// RegisterType registers (or looks up) an event type by name.
func RegisterType(name string) Type { return event.RegisterType(name) }

// TypeNameOf returns the registered name of an event type.
func TypeNameOf(t Type) string { return event.TypeName(t) }

// Parse parses a PSL pattern:
//
//	PATTERN SEQ(T1 e1, !T2 e2, T3 e3)
//	WHERE e1.value <= e3.value AND e2.value > 10
//	WITHIN 15 MINUTES SLIDE 1 MINUTE
//	RETURN e1.id, e3.value AS speed
//
// Operators: SEQ, AND, OR, ITER(T e, m) (exactly m) and ITER(T e, m+) (at
// least m, requires optimization O2), plus negated elements inside SEQ.
func Parse(src string) (*Pattern, error) { return sea.Parse(src) }

// Translate maps a pattern into a decomposed ASP plan (the paper's
// contribution). TranslateFCEP builds the single-operator NFA baseline.
func Translate(p *Pattern, opts Options) (*Plan, error) { return core.Translate(p, opts) }

// TranslateFCEP builds the unary-CEP-operator baseline plan (FlinkCEP
// analogue) for comparison runs.
func TranslateFCEP(p *Pattern, opts Options) (*Plan, error) { return core.TranslateFCEP(p, opts) }

// EvaluateReference executes the formal SEA set semantics (Eqs. 9-14)
// directly over a finite event slice — the correctness oracle. Intended for
// testing and small inputs only.
func EvaluateReference(p *Pattern, events []Event) []*Match { return sea.Evaluate(p, events) }

// StreamStats describes one stream's data characteristics for Advise.
type StreamStats = core.StreamStats

// Advise selects mapping optimizations automatically from the pattern's
// shape and stream statistics — the paper's future-work proposal (§7),
// codifying the guidance of §4.3: O3 for keyed patterns, O2 for root-level
// iterations, O1 unless the left-most stream floods its successor.
func Advise(p *Pattern, stats map[string]StreamStats, parallelism int) Options {
	return core.Advise(p, stats, parallelism)
}

// CheckCompleteness verifies Theorem 2's precondition against measured
// stream frequencies (events per minute): sliding windows detect every
// match only when the slide does not exceed the fastest stream's
// inter-arrival time. Returns a warning string, or "" when complete or
// unknown. Interval joins (O1) are content-based and immune.
func CheckCompleteness(p *Pattern, freqs map[string]float64) string {
	return core.CompletenessWarning(p, freqs)
}

// MeasureStats derives StreamStats from a sample of each stream: the mean
// event rate per minute. Feed the result to Advise.
func MeasureStats(streams map[string][]Event) map[string]StreamStats {
	out := make(map[string]StreamStats, len(streams))
	for name, events := range streams {
		st := workload.Describe(events)
		out[name] = StreamStats{Frequency: st.MeanRate}
	}
	return out
}

// OptimizerConfig parameterizes the cost-based pattern compiler
// (internal/optimizer): initial stream statistics, parallelism, and the
// online re-planning knobs (drift threshold, re-plan budget, poll
// interval). The zero value is a cold start: the first plan is heuristic
// and statistics are learned online.
type OptimizerConfig = optimizer.Config

// MeasurePatternStats derives exact per-stream statistics — event rate and
// the pass fraction of the pattern's pushed-down filters — from recorded
// streams. Feed the result to OptimizerConfig.Stats or Advise.
func MeasurePatternStats(p *Pattern, data map[Type][]Event) (map[string]StreamStats, error) {
	return optimizer.Measure(p, data)
}

// ExplainOptimized renders the cost-based plan for a pattern with per-node
// estimated cardinalities under the given statistics.
func ExplainOptimized(p *Pattern, stats map[string]StreamStats) (string, error) {
	o, err := optimizer.New(optimizer.Config{Stats: stats})
	if err != nil {
		return "", err
	}
	return o.Explain(p)
}

// GenerateQnV produces the synthetic traffic streams (quantity, velocity):
// one tuple per sensor per minute each, values uniform in [0, 100).
func GenerateQnV(sensors, minutes int, seed int64) (quantity, velocity []Event) {
	return workload.QnV(workload.QnVConfig{Sensors: sensors, Minutes: minutes, Seed: seed})
}

// GenerateAirQuality produces the synthetic air-quality streams (PM10,
// PM2.5, temperature, humidity): one tuple per sensor every 3-5 minutes.
func GenerateAirQuality(sensors, minutes int, seed int64) (pm10, pm25, temp, hum []Event) {
	return workload.AirQuality(workload.AQConfig{Sensors: sensors, Minutes: minutes, Seed: seed})
}

// WriteCSV serializes events in the evaluation's CSV exchange format
// (type,id,lat,lon,ts,value — the paper reads its workloads from such
// files, §5.1.2). ReadCSV parses it back; ReadCSVFile and WriteCSVFile
// operate on paths, and ReadCSVGrouped splits a mixed file by event type.
func WriteCSV(w io.Writer, events []Event) error { return csvio.Write(w, events) }

// ReadCSV parses a CSV event stream; see WriteCSV.
func ReadCSV(r io.Reader) ([]Event, error) { return csvio.Read(r) }

// WriteCSVFile writes events to a CSV file.
func WriteCSVFile(path string, events []Event) error { return csvio.WriteFile(path, events) }

// ReadCSVFile reads events from a CSV file.
func ReadCSVFile(path string) ([]Event, error) { return csvio.ReadFile(path) }

// ReadCSVGrouped reads a mixed CSV stream and groups it by event type,
// preserving per-type order.
func ReadCSVGrouped(r io.Reader) (map[Type][]Event, error) { return csvio.ReadGrouped(r) }

// DisorderStream perturbs a time-ordered stream into a bounded
// out-of-order arrival sequence (network jitter simulation): each event is
// delayed by at most maxDelay. Pair with Job.WithLateness(maxDelay).
func DisorderStream(events []Event, maxDelay time.Duration, seed int64) []Event {
	return workload.Disorder(events, event.DurationToMillis(maxDelay), seed)
}

// MeasureDisorder returns the largest event-time lateness present in a
// stream's arrival order.
func MeasureDisorder(events []Event) time.Duration {
	return time.Duration(workload.MaxDisorder(events)) * time.Millisecond
}

// Job configures and runs one pattern over in-memory streams.
type Job struct {
	pattern     *Pattern
	opts        Options
	fcep        bool
	engine      EngineConfig
	data        map[Type][]Event
	keep        bool
	lateness    event.Time
	batchSize   int
	rate        float64
	metrics     *MetricsRegistry
	restart     *RestartPolicy
	chaosInj    *ChaosInjector
	stopTimeout time.Duration
	onLetter    func(DeadLetter)
	budget      StateBudget
	policy      OverloadPolicy
	policySet   bool
	shedStrat   ShedStrategy
	shedSet     bool
	quality     QualitySpec
	traceRate   float64
	traceOut    string
	optimize    *optimizer.Optimizer
	err         error
}

// NewJob starts a job for the given pattern with default options
// (plain FASP mapping, single-threaded, dedup sink, matches retained).
func NewJob(p *Pattern) *Job {
	return &Job{pattern: p, data: make(map[Type][]Event), keep: true}
}

// WithOptions selects mapping optimizations.
func (j *Job) WithOptions(opts Options) *Job { j.opts = opts; return j }

// WithOptimizer turns on the cost-based pattern compiler: plan selection
// (join order, O1/O2/O3) is derived from cfg.Stats instead of WithOptions,
// and the run re-plans online at a checkpoint barrier when observed
// statistics drift enough to change the plan — without losing or
// duplicating matches. Composes with WithRestartPolicy and WithQuality;
// not with UseFCEP, whose NFA has no join tree to reorder.
func (j *Job) WithOptimizer(cfg OptimizerConfig) *Job {
	o, err := optimizer.New(cfg)
	if err != nil {
		j.err = err
		return j
	}
	j.optimize = o
	return j
}

// WithEngine overrides the engine configuration.
func (j *Job) WithEngine(cfg EngineConfig) *Job { j.engine = cfg; return j }

// UseFCEP switches to the single-operator NFA baseline.
func (j *Job) UseFCEP() *Job { j.fcep = true; return j }

// DiscardMatches keeps only counts (for large runs).
func (j *Job) DiscardMatches() *Job { j.keep = false; return j }

// WithLateness declares the maximum event-time disorder of the input
// streams: watermarks trail by this bound so windows wait for stragglers.
// Streams must not be more disordered (see DisorderStream / MeasureDisorder).
func (j *Job) WithLateness(d time.Duration) *Job {
	j.lateness = event.DurationToMillis(d)
	return j
}

// WithBatchSize sets the number of records the engine accumulates per
// downstream channel before transferring them in one send (amortizing
// synchronization on the inter-operator hot path). 1 disables batching;
// values below 1 are a configuration error reported by Run. The default
// (when neither this nor EngineConfig.BatchSize is set) is the engine's
// DefaultBatchSize. Partial batches are bounded by the engine's idle flush
// and flush timeout, so batching never changes results — only throughput
// and, slightly, latency under very sparse input.
func (j *Job) WithBatchSize(n int) *Job {
	if n < 1 {
		j.err = fmt.Errorf("cep2asp: WithBatchSize(%d): batch size must be at least 1", n)
		return j
	}
	j.batchSize = n
	return j
}

// WithSourceRate throttles every source to the given wall-clock rate in
// events per second (sustainable-throughput experiments). The rate must be
// positive; zero or negative rates are a configuration error reported by
// Run.
func (j *Job) WithSourceRate(eventsPerSec float64) *Job {
	j.rate = eventsPerSec
	if j.rate == 0 {
		j.err = fmt.Errorf("cep2asp: WithSourceRate(0): rate must be positive")
	}
	return j
}

// WithMetrics attaches a per-operator metrics registry: while the job
// runs, reg serves live per-operator counters, watermark lag and per-edge
// queue fill (pair with ServeMetrics); the sink's detection-latency
// histogram is registered under "sink_detection_latency".
func (j *Job) WithMetrics(reg *MetricsRegistry) *Job { j.metrics = reg; return j }

// WithRestartPolicy runs the job supervised: an operator panic is isolated
// into a structured failure, the graph is rebuilt, restored from the latest
// aligned checkpoint and replayed — up to the policy's restart budget, with
// exponential backoff and jitter between attempts. A record that keeps
// crashing the job is quarantined after the policy's poison threshold and
// routed to the dead-letter queue (see OnDeadLetter and RunStats.DeadLetters)
// instead of crash-looping the job. When the engine configuration carries no
// CheckpointSpec, an in-memory store with a short trigger interval is
// installed automatically so restarts have a checkpoint to resume from.
func (j *Job) WithRestartPolicy(p RestartPolicy) *Job { j.restart = &p; return j }

// WithChaos arms deterministic fault-injection points in the engine: the
// injector's faults fire at exact hit counts or records inside the source
// and operator execution paths. Combine with WithRestartPolicy to exercise
// supervised recovery.
func (j *Job) WithChaos(inj *ChaosInjector) *Job { j.chaosInj = inj; return j }

// WithStopTimeout bounds teardown after the run is cancelled or fails: a
// wedged operator instance that does not return within d is abandoned and
// named in the returned ShutdownTimeoutError instead of hanging Run forever.
func (j *Job) WithStopTimeout(d time.Duration) *Job { j.stopTimeout = d; return j }

// OnDeadLetter registers a callback invoked synchronously with each poison
// record routed to the dead-letter queue during a supervised run.
func (j *Job) OnDeadLetter(fn func(DeadLetter)) *Job { j.onLetter = fn; return j }

// WithStateBudget bounds the records the job may retain: perOperator caps
// each stateful operator instance, perJob the sum across the job; zero
// disables the respective bound. What happens at the bound is selected by
// WithOverloadPolicy (default: fail with a StateBudgetExceededError).
func (j *Job) WithStateBudget(perOperator, perJob int64) *Job {
	if perOperator < 0 || perJob < 0 {
		j.err = fmt.Errorf("cep2asp: WithStateBudget(%d, %d): budgets must be non-negative", perOperator, perJob)
		return j
	}
	j.budget.PerOperator = perOperator
	j.budget.PerJob = perJob
	return j
}

// WithOverloadPolicy selects the reaction to a reached state budget:
// OverloadFail aborts the job, OverloadShed evicts the oldest state first
// (visible in RunStats.ShedRecords, never silent), OverloadPause throttles
// the sources until state drains below the budget's low-water mark.
func (j *Job) WithOverloadPolicy(p OverloadPolicy) *Job {
	if p != OverloadFail && p != OverloadShed && p != OverloadPause {
		j.err = fmt.Errorf("cep2asp: WithOverloadPolicy(%d): unknown policy", p)
		return j
	}
	j.policy = p
	j.policySet = true
	return j
}

// WithShedStrategy selects the victim order the Shed overload policy
// uses. ShedOldestFirst (the default) evicts the oldest state;
// ShedPatternAware scores every retained unit by its probability of
// still completing into a match — transitions remaining, time left in
// the window, observed arrival rates — and evicts the least valuable
// first, retaining measurably more matches at the same budget. The
// strategy can also be switched at runtime by a WithQuality controller.
func (j *Job) WithShedStrategy(s ShedStrategy) *Job {
	if s != ShedOldestFirst && s != ShedPatternAware {
		j.err = fmt.Errorf("cep2asp: WithShedStrategy(%d): unknown strategy (want ShedOldestFirst or ShedPatternAware)", int(s))
		return j
	}
	j.shedStrat = s
	j.shedSet = true
	return j
}

// WithQuality declares quality demands the runtime must hold by steering
// the degradation mechanisms it already has: a dip of the recall
// estimate toward spec.MinRecall first switches shedding to
// pattern-aware victim selection, then pauses intake; crossing
// spec.MaxStateBytes tightens admission until the heap drains; a
// spec.MaxP99Latency breach forces pattern-aware shedding. Every
// decision is reported in RunStats.QualityActions. Demands no controller
// decision could satisfy fail fast with a *QualityInfeasibleError. Under
// WithRestartPolicy or WithOptimizer every execution attempt gets its own
// controller; their decisions are reported in order.
func (j *Job) WithQuality(spec QualitySpec) *Job { j.quality = spec; return j }

// WithTracing samples end-to-end traces for the given fraction of source
// events (clamped to [0,1]; 0 disables, 1 traces everything). Sampling is
// deterministic by event identity, so repeated runs trace the same records.
// The traced spans — per-operator queue wait and processing, match
// derivations linked to their constituents — are summarized on
// RunStats.Trace; with a non-empty out path the full trace is additionally
// written as Chrome trace-event JSON, loadable in chrome://tracing or
// Perfetto. Rate 0 keeps the hot path untouched: no per-record cost.
func (j *Job) WithTracing(rate float64, out string) *Job {
	if rate < 0 || rate > 1 {
		j.err = fmt.Errorf("cep2asp: WithTracing(%g): rate must be in [0,1]", rate)
		return j
	}
	j.traceRate = rate
	j.traceOut = out
	return j
}

// AddStream supplies the time-ordered events of one input type.
func (j *Job) AddStream(typeName string, events []Event) *Job {
	t, ok := event.LookupType(typeName)
	if !ok {
		j.err = fmt.Errorf("cep2asp: unknown event type %q; register it or use it in the pattern first", typeName)
		return j
	}
	j.data[t] = events
	return j
}

// RunStats reports a completed job: one plan's measurements (throughput,
// match counts, detection latency, selectivity) with the run's recovery,
// overload, checkpoint and trace accounting.
type RunStats = core.Report

// Run translates the job, executes it under every policy configured on it
// — supervision, re-planning, quality demands — and returns its statistics.
func (j *Job) Run(ctx context.Context) (*RunStats, error) {
	if j.err != nil {
		return nil, j.err
	}
	var out []*RunStats
	var err error
	switch {
	case j.optimize != nil && j.fcep:
		return nil, fmt.Errorf("cep2asp: WithOptimizer requires the decomposed FASP mapping; it cannot drive the FCEP baseline")
	case j.optimize != nil:
		out, err = j.run(ctx, nil, j.optimize.Replanner(j.pattern))
	default:
		var plan *Plan
		if plan, err = translate(j.pattern, j.opts, j.fcep); err != nil {
			return nil, err
		}
		out, err = j.run(ctx, []*core.Plan{plan}, nil)
	}
	if out == nil {
		return nil, err
	}
	return out[0], err
}

func translate(p *Pattern, opts Options, fcep bool) (*Plan, error) {
	if fcep {
		return core.TranslateFCEP(p, opts)
	}
	return core.Translate(p, opts)
}

// run executes plans — or the replanner's plan generations — under the
// job's configuration and reports each plan, in order.
func (j *Job) run(ctx context.Context, plans []*core.Plan, replanner core.Replanner) ([]*RunStats, error) {
	engineCfg := j.engine
	if j.metrics != nil {
		engineCfg.Metrics = j.metrics
	}
	if j.chaosInj != nil {
		engineCfg.Chaos = j.chaosInj
	}
	if j.stopTimeout > 0 {
		engineCfg.ShutdownTimeout = j.stopTimeout
	}
	if j.batchSize > 0 {
		engineCfg.BatchSize = j.batchSize
	}
	if j.budget.Enabled() {
		engineCfg.Overload.Budget = j.budget
	}
	if j.policySet {
		engineCfg.Overload.Policy = j.policy
	}
	if j.shedSet {
		engineCfg.Overload.Shedding = j.shedStrat
	}
	tracer := trace.New(j.traceRate, 0)
	if engineCfg.Trace == nil {
		engineCfg.Trace = tracer
	} else {
		tracer = engineCfg.Trace
	}
	spec := core.RunSpec{
		Plans: plans,
		Build: core.BuildConfig{
			Engine:           engineCfg,
			Data:             j.data,
			Lateness:         j.lateness,
			SourceRatePerSec: j.rate,
			KeepMatches:      j.keep,
		},
		Restart:   j.restart,
		DLQ:       &DeadLetterQueue{OnLetter: j.onLetter},
		Quality:   j.quality,
		Replanner: replanner,
	}
	rep, err := core.Run(ctx, spec)
	if err != nil {
		return nil, err
	}
	out := make([]*RunStats, len(rep.Sinks))
	for i := range rep.Sinks {
		st := rep.Stats(i)
		out[i] = &st
	}
	if tracer != nil && j.traceOut != "" {
		if werr := tracer.WriteFile(j.traceOut); werr != nil {
			return out, fmt.Errorf("cep2asp: trace export: %w", werr)
		}
	}
	return out, nil
}

// Project extracts a pattern's RETURN projection from a match: the listed
// alias.attr values in clause order, or every constituent's value attribute
// for RETURN *.
func Project(p *Pattern, m *Match) []float64 {
	if len(p.Return) == 0 {
		out := make([]float64, len(m.Events))
		for i, e := range m.Events {
			out[i] = e.Value
		}
		return out
	}
	layout := p.Layout()
	out := make([]float64, 0, len(p.Return))
	for _, r := range p.Return {
		pos, ok := layout[r.Alias]
		f, known := event.Accessor(r.Attr)
		if !ok || !known || pos >= len(m.Events) {
			out = append(out, 0)
			continue
		}
		out = append(out, f.Of(&m.Events[pos]))
	}
	return out
}
