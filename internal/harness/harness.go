// Package harness runs pattern workloads under the paper's execution
// approaches and measures the evaluation's metrics (§5.1.3): maximum
// sustained throughput in tuples per second (run-to-completion rate under
// the engine's backpressure), detection latency from tuple creation time,
// output selectivity, peak operator state, and optional resource-usage time
// series. It also defines one experiment per paper figure (experiments.go).
package harness

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"sort"
	"time"

	"sync/atomic"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/metrics"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
	"cep2asp/internal/trace"
)

// Approach selects an execution strategy for a pattern.
type Approach struct {
	// Name labels result rows: FCEP, FASP, FASP-O1, FASP-O2, FASP-O3 and
	// combinations.
	Name string
	// FCEP runs the unary NFA operator baseline instead of the mapping.
	FCEP bool
	Opts core.Options
}

// The standard approaches of the evaluation.
var (
	FCEP   = Approach{Name: "FCEP", FCEP: true}
	FASP   = Approach{Name: "FASP"}
	FASPO1 = Approach{Name: "FASP-O1", Opts: core.Options{UseIntervalJoin: true}}
	FASPO2 = Approach{Name: "FASP-O2", Opts: core.Options{UseAggregation: true}}
)

// WithO3 returns the approach extended with partitioning at the given
// parallelism (FCEP partitions its NFA state; FASP partitions its joins).
func WithO3(a Approach, parallelism int) Approach {
	a.Opts.UsePartitioning = true
	a.Opts.Parallelism = parallelism
	if a.Name == "FASP" {
		a.Name = "FASP-O3"
	} else {
		a.Name += "+O3"
	}
	return a
}

// RunSpec is one measured execution.
type RunSpec struct {
	Name     string
	Pattern  *sea.Pattern
	Approach Approach
	Data     map[event.Type][]event.Event
	Engine   asp.Config
	// SampleResources records a memory/CPU time series (Figure 5).
	SampleResources bool
	SamplePeriod    time.Duration
	// KeepMatches retains matches (small runs only).
	KeepMatches bool
	// SourceRatePerSec throttles sources to a controlled ingestion rate
	// (0 = full speed). Latency measured under throttling reflects
	// detection delay rather than backpressure queueing.
	SourceRatePerSec float64
	// CheckpointInterval enables aligned-barrier checkpointing at the given
	// period (0 = off), measuring its overhead alongside the run.
	CheckpointInterval time.Duration
	// CheckpointStore receives the snapshots; nil defaults to an in-memory
	// store discarded with the run.
	CheckpointStore checkpoint.Store
	// Metrics attaches the per-operator observability registry: operator
	// and edge series become available live (obs.Serve) and as a final
	// snapshot on the result. The sink's detection-latency histogram is
	// registered under "sink_detection_latency".
	Metrics *obs.Registry
	// Timeout bounds the run; zero means none.
	Timeout time.Duration
	// RestartPolicy, when set, runs the spec supervised: isolated operator
	// panics restart the job from the latest checkpoint under the policy's
	// backoff and budget. Without a configured CheckpointStore an in-memory
	// store with a short trigger interval is installed automatically.
	RestartPolicy *supervise.Policy
	// Chaos arms deterministic fault-injection points for the run (shared
	// across supervised restarts, so hit counters stay monotonic).
	Chaos *chaos.Injector
	// StopTimeout bounds teardown after cancellation or failure; a wedged
	// instance is abandoned and named in the error instead of hanging the
	// run. Zero waits forever.
	StopTimeout time.Duration
	// TraceRate samples end-to-end traces: the fraction of source events
	// followed through operator hops and match derivations (0 = off).
	// The trace summary lands on the result; TraceOut, when non-empty,
	// additionally writes the Chrome trace-event JSON there.
	TraceRate float64
	TraceOut  string
	// Quality declares per-job quality demands: a controller polls the
	// run's recall estimate, p99 latency and live heap, switching the shed
	// strategy or pausing intake to hold them (unsupervised runs only —
	// incompatible with RestartPolicy). Decisions land on
	// RunResult.QualityActions.
	Quality overload.QualityDemand
	// Log receives structured engine lifecycle events; nil discards them.
	Log *slog.Logger
}

// RunResult reports one measured execution.
type RunResult struct {
	Name     string
	Approach string
	// Events is the total number of input tuples across all sources.
	Events int64
	// Elapsed is the wall-clock run time; ThroughputTps = Events/Elapsed.
	Elapsed       time.Duration
	ThroughputTps float64
	// Matches counts sink records (duplicates included); Unique counts
	// distinct matches; SelectivityPct = Unique/Events*100 (§5.1.3).
	Matches        int64
	Unique         int64
	SelectivityPct float64
	AvgLatency     time.Duration
	MaxLatency     time.Duration
	// Detection-latency quantiles from the sink's log-bucketed histogram
	// (~3% bucket resolution).
	P50Latency time.Duration
	P90Latency time.Duration
	P99Latency time.Duration
	// Failed marks runs aborted by the state budget — the analogue of the
	// paper's FlinkCEP memory-exhaustion failures (§5.2.3).
	Failed bool
	Err    error
	// Resources is the sampled memory/CPU series when requested.
	Resources []metrics.Sample
	// Checkpoint overhead (populated when CheckpointInterval > 0):
	// completed checkpoints, the largest serialized snapshot, the worst
	// single-instance alignment stall, and the per-checkpoint series.
	Checkpoints      int64
	CheckpointBytes  int64
	CheckpointPause  time.Duration
	CheckpointSeries []metrics.CheckpointPoint
	// Operators / OperatorEdges are the end-of-run per-operator-instance
	// and per-edge metrics (populated when RunSpec.Metrics is set).
	Operators     []obs.OperatorSnapshot
	OperatorEdges []obs.EdgeSnapshot
	// Restarts counts supervised restarts; DeadLetters the poison records
	// quarantined to the dead-letter queue (RunSpec.RestartPolicy only).
	Restarts    int
	DeadLetters int
	// Overload accounting (populated when the engine ran with a state
	// budget): ShedRecords counts state evicted under the Shed policy,
	// PeakStateRecords is the job-wide state high-water mark, and
	// PeakHeapBytes the peak live heap seen by the memory admission
	// controller (0 when it never ran).
	ShedRecords      int64
	PeakStateRecords int64
	PeakHeapBytes    int64
	// RecallEstimate is the guaranteed lower bound on achieved recall
	// (1 when nothing was shed); RecallLostBound the accumulated upper
	// bound on matches evicted state could still have produced.
	RecallEstimate  float64
	RecallLostBound float64
	// QualityActions lists the decisions the RunSpec.Quality controller
	// took, in order (empty without quality demands).
	QualityActions []string
	// CkptP50/CkptP99 are checkpoint wall-clock duration percentiles over
	// the per-checkpoint series (populated when checkpoints completed).
	CkptP50 time.Duration
	CkptP99 time.Duration
	// Trace is the end-to-end latency breakdown of the sampled traces
	// (populated when TraceRate > 0): queue/processing/network time and
	// per-trace end-to-end percentiles.
	Trace trace.Summary
}

func (r RunResult) String() string {
	status := fmt.Sprintf("%.0f tpl/s, %d matches (%d unique, σo=%.5f%%), lat avg %v",
		r.ThroughputTps, r.Matches, r.Unique, r.SelectivityPct, r.AvgLatency.Round(time.Microsecond))
	if r.Failed {
		status = "FAILED: " + r.Err.Error()
	}
	return fmt.Sprintf("%-28s %-14s %s", r.Name, r.Approach, status)
}

// Run executes one specification to completion and measures it.
func Run(ctx context.Context, spec RunSpec) RunResult {
	res := RunResult{Name: spec.Name, Approach: spec.Approach.Name}
	for _, evs := range spec.Data {
		res.Events += int64(len(evs))
	}
	if spec.Quality.Enabled() && spec.RestartPolicy != nil {
		res.Failed, res.Err = true, fmt.Errorf("harness: quality demands drive the unsupervised execution path; drop RestartPolicy")
		return res
	}

	var plan *core.Plan
	var err error
	if spec.Approach.FCEP {
		plan, err = core.TranslateFCEP(spec.Pattern, spec.Approach.Opts)
	} else {
		plan, err = core.Translate(spec.Pattern, spec.Approach.Opts)
	}
	if err != nil {
		res.Failed, res.Err = true, err
		return res
	}

	engineCfg := spec.Engine
	engineCfg.Metrics = spec.Metrics
	engineCfg.Chaos = spec.Chaos
	engineCfg.ShutdownTimeout = spec.StopTimeout
	tracer := trace.New(spec.TraceRate, 0)
	if engineCfg.Trace == nil {
		engineCfg.Trace = tracer
	} else {
		tracer = engineCfg.Trace
	}
	if engineCfg.Log == nil {
		engineCfg.Log = spec.Log
	}
	if spec.CheckpointInterval > 0 {
		store := spec.CheckpointStore
		if store == nil {
			store = checkpoint.NewMemStore()
		}
		engineCfg.Checkpoint = &asp.CheckpointSpec{Store: store, Interval: spec.CheckpointInterval}
	}
	bc := core.BuildConfig{
		Engine:           engineCfg,
		Data:             spec.Data,
		StampIngest:      true,
		DedupSink:        true,
		KeepMatches:      spec.KeepMatches,
		SourceRatePerSec: spec.SourceRatePerSec,
	}

	// curEnv/curSink track the executing attempt: supervised restarts
	// rebuild both, and the sampler and post-run accounting must follow.
	var curEnv atomic.Pointer[asp.Environment]
	var curSink atomic.Pointer[asp.Results]
	bind := func(env *asp.Environment, sink *asp.Results) {
		curEnv.Store(env)
		curSink.Store(sink)
		if spec.Metrics != nil {
			// Export the sink's detection-latency histogram alongside the
			// per-operator series (named histograms survive the graph reset
			// Execute performs when it attaches, and re-registering under
			// the same name replaces the previous attempt's histogram).
			spec.Metrics.RegisterHistogram("sink_detection_latency", sink.LatencyHistogram())
		}
	}

	var sampler *metrics.Sampler
	if spec.SampleResources {
		sampler = metrics.NewSampler(spec.SamplePeriod)
		sampler.StateFn = func() int64 {
			if env := curEnv.Load(); env != nil {
				return env.StateSize()
			}
			return 0
		}
		sampler.Start()
	}

	if spec.Timeout > 0 {
		var cancel context.CancelFunc
		ctx, cancel = context.WithTimeout(ctx, spec.Timeout)
		defer cancel()
	}

	start := time.Now()
	var execErr error
	if spec.RestartPolicy != nil {
		run, err := core.RunSupervised(ctx, []*core.Plan{plan}, bc, core.SuperviseConfig{
			Policy: *spec.RestartPolicy,
			OnAttempt: func(_ int, env *asp.Environment, results []*asp.Results) {
				bind(env, results[0])
			},
		})
		execErr = err
		res.Restarts = run.Restarts
		res.DeadLetters = run.DLQ.Depth()
	} else {
		env, sink, err := core.Build(plan, bc)
		if err != nil {
			res.Failed, res.Err = true, err
			if sampler != nil {
				sampler.Stop()
			}
			return res
		}
		bind(env, sink)
		var qc *overload.QualityController
		if spec.Quality.Enabled() {
			probe, act := env.QualityHooks(func() time.Duration { return sink.LatencyQuantile(0.99) })
			c, qerr := overload.NewQualityController(spec.Quality, engineCfg.Overload, probe, act)
			if qerr != nil {
				res.Failed, res.Err = true, qerr
				if sampler != nil {
					sampler.Stop()
				}
				return res
			}
			c.Start(0)
			qc = c
		}
		execErr = env.Execute(ctx)
		if qc != nil {
			qc.Stop()
			res.QualityActions = qc.Actions()
		}
	}
	res.Elapsed = time.Since(start)
	env, sink := curEnv.Load(), curSink.Load()
	if env == nil || sink == nil {
		// Supervised build failed before any attempt ran.
		res.Failed, res.Err = true, execErr
		if sampler != nil {
			sampler.Stop()
		}
		return res
	}

	if spec.CheckpointInterval > 0 {
		for _, st := range env.CheckpointStats() {
			res.Checkpoints++
			if st.Bytes > res.CheckpointBytes {
				res.CheckpointBytes = st.Bytes
			}
			if st.AlignPause > res.CheckpointPause {
				res.CheckpointPause = st.AlignPause
			}
			res.CheckpointSeries = append(res.CheckpointSeries, metrics.CheckpointPoint{
				ID:         st.ID,
				At:         st.CompletedAt.Sub(start),
				Duration:   st.Duration,
				AlignPause: st.AlignPause,
				Bytes:      st.Bytes,
			})
		}
		res.CkptP50, res.CkptP99 = ckptPercentiles(res.CheckpointSeries)
	}
	if sampler != nil {
		res.Resources = sampler.Stop()
	}
	if spec.Metrics != nil {
		snap := spec.Metrics.Snapshot()
		res.Operators = snap.Operators
		res.OperatorEdges = snap.Edges
	}
	if tracer != nil {
		res.Trace = tracer.Summarize()
		if spec.TraceOut != "" {
			if werr := tracer.WriteFile(spec.TraceOut); werr != nil && spec.Log != nil {
				spec.Log.Warn("harness: trace export failed", "path", spec.TraceOut, "err", werr)
			}
		}
	}
	res.ShedRecords = env.ShedRecords()
	res.PeakStateRecords = env.PeakStateRecords()
	res.PeakHeapBytes = env.PeakHeapBytes()
	// The recall estimate uses the sink's deduped count so duplicates from
	// overlapping windows never inflate it (lower bound stays sound).
	res.RecallLostBound = env.LostMatchBound()
	res.RecallEstimate = overload.RecallEstimate(sink.Unique(), res.RecallLostBound)
	if execErr != nil {
		res.Failed = true
		res.Err = execErr
		if errors.Is(execErr, asp.ErrStateBudget) {
			res.Err = fmt.Errorf("memory exhaustion analogue: %w", execErr)
		}
		return res
	}

	if res.Elapsed > 0 {
		res.ThroughputTps = float64(res.Events) / res.Elapsed.Seconds()
	}
	res.Matches = sink.Total()
	res.Unique = sink.Unique()
	if res.Events > 0 {
		res.SelectivityPct = float64(res.Unique) / float64(res.Events) * 100
	}
	res.AvgLatency = sink.AvgLatency()
	res.MaxLatency = sink.MaxLatency()
	res.P50Latency, res.P90Latency, res.P99Latency = sink.LatencyPercentiles()
	return res
}

// ckptPercentiles computes wall-clock duration percentiles over a
// per-checkpoint series.
func ckptPercentiles(series []metrics.CheckpointPoint) (p50, p99 time.Duration) {
	if len(series) == 0 {
		return 0, 0
	}
	durs := make([]time.Duration, len(series))
	for i, pt := range series {
		durs[i] = pt.Duration
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	quant := func(q float64) time.Duration {
		return durs[int(q*float64(len(durs)-1))]
	}
	return quant(0.50), quant(0.99)
}
