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
	// strategy or pausing intake to hold them — one controller per
	// execution attempt, so it composes with RestartPolicy. Decisions land
	// on RunResult.QualityActions.
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

	// curEnv tracks the executing attempt: supervised restarts and
	// re-plans rebuild it, and the sampler must follow.
	var curEnv atomic.Pointer[asp.Environment]
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

	dlq := &supervise.DLQ{}
	start := time.Now()
	rep, execErr := core.Run(ctx, core.RunSpec{
		Plans:     []*core.Plan{plan},
		Build:     bc,
		Restart:   spec.RestartPolicy,
		DLQ:       dlq,
		Quality:   spec.Quality,
		OnAttempt: func(env *asp.Environment, _ []*asp.Results) { curEnv.Store(env) },
	})
	res.Elapsed = time.Since(start)
	if sampler != nil {
		res.Resources = sampler.Stop()
	}
	env := rep.Env
	if env == nil {
		// The build failed before any attempt ran.
		res.Failed, res.Err = true, execErr
		return res
	}
	sink := rep.Sinks[0]
	res.Restarts = rep.Restarts
	res.DeadLetters = dlq.Depth()
	res.QualityActions = rep.QualityActions

	if spec.CheckpointInterval > 0 {
		stats := env.CheckpointStats()
		res.Checkpoints = int64(len(stats))
		res.foldCheckpoints(stats, start)
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
	res.ShedRecords = rep.ShedRecords
	res.PeakStateRecords = rep.PeakStateRecords
	res.PeakHeapBytes = rep.PeakHeapBytes
	res.RecallLostBound = rep.LostMatchBound
	res.RecallEstimate = rep.RecallEstimate(0)
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

// foldCheckpoints records a run's completed checkpoints — the largest
// snapshot, the worst alignment stall, the per-checkpoint series relative to
// the run's start — and the percentiles of their wall-clock durations.
func (r *RunResult) foldCheckpoints(stats []checkpoint.Stat, start time.Time) {
	if len(stats) == 0 {
		return
	}
	durs := make([]time.Duration, len(stats))
	for i, st := range stats {
		r.CheckpointBytes = max(r.CheckpointBytes, st.Bytes)
		r.CheckpointPause = max(r.CheckpointPause, st.AlignPause)
		r.CheckpointSeries = append(r.CheckpointSeries, metrics.CheckpointPoint{
			ID:         st.ID,
			At:         st.CompletedAt.Sub(start),
			Duration:   st.Duration,
			AlignPause: st.AlignPause,
			Bytes:      st.Bytes,
		})
		durs[i] = st.Duration
	}
	sort.Slice(durs, func(i, j int) bool { return durs[i] < durs[j] })
	r.CkptP50 = durs[int(0.50*float64(len(durs)-1))]
	r.CkptP99 = durs[int(0.99*float64(len(durs)-1))]
}
