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
	"time"

	"sync/atomic"

	"cep2asp/internal/asp"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/metrics"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
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
	// Engine is the run's engine configuration, used as given: its
	// Metrics registry's final per-operator snapshot lands on the result
	// (the sink's detection-latency histogram is registered under
	// "sink_detection_latency").
	Engine asp.Config
	// SamplePeriod, when above 0, records a memory/CPU time series at that
	// period (Figure 5).
	SamplePeriod time.Duration
	// KeepMatches retains matches (small runs only).
	KeepMatches bool
	// SourceRatePerSec throttles sources to a controlled ingestion rate
	// (0 = full speed). Latency measured under throttling reflects
	// detection delay rather than backpressure queueing.
	SourceRatePerSec float64
	// Timeout bounds the run; zero means none.
	Timeout time.Duration
	// RestartPolicy, when set, runs the spec supervised: isolated operator
	// panics restart the job from the latest checkpoint under the policy's
	// backoff and budget. Without Engine.Checkpoint an in-memory store
	// with a short trigger interval is installed automatically.
	RestartPolicy *supervise.Policy
	// TraceOut, when non-empty, writes the Chrome trace-event JSON of
	// Engine.Trace's spans there.
	TraceOut string
	// Quality declares per-job quality demands: a controller polls the
	// run's recall estimate, p99 latency and live heap, switching the shed
	// strategy or pausing intake to hold them — one controller per
	// execution attempt, so it composes with RestartPolicy. Decisions land
	// on RunResult.QualityActions.
	Quality overload.QualityDemand
	// Cluster runs the spec across processes (an exchange.Coordinator);
	// nil runs it in-process.
	Cluster core.Cluster
}

// RunResult reports one measured execution: the run's core.Report plus
// what a result row adds.
type RunResult struct {
	Name     string
	Approach string
	core.Report
	// Failed marks runs that did not complete — the state-budget aborts
	// are the analogue of the paper's FlinkCEP memory-exhaustion failures
	// (§5.2.3) — and Err says why; a failed run's Report holds what it
	// measured before it stopped. Err also carries a failed export of
	// RunSpec.TraceOut (ErrTraceExport), which leaves a run that completed
	// not Failed.
	Failed bool
	Err    error
	// Resources is the sampled memory/CPU series when requested.
	Resources []metrics.Sample
	// Operators / OperatorEdges are the end-of-run per-operator-instance
	// and per-edge metrics (populated when RunSpec.Engine.Metrics is set).
	Operators     []obs.OperatorSnapshot
	OperatorEdges []obs.EdgeSnapshot
}

// ErrTraceExport marks a RunResult.Err from writing RunSpec.TraceOut.
var ErrTraceExport = errors.New("trace export")

// Run executes one specification to completion and measures it.
func Run(ctx context.Context, spec RunSpec) RunResult {
	res := RunResult{Name: spec.Name, Approach: spec.Approach.Name}
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

	// curEnv tracks the executing attempt: supervised restarts and
	// re-plans rebuild it, and the sampler must follow.
	var curEnv atomic.Pointer[asp.Environment]
	var sampler *metrics.Sampler
	if spec.SamplePeriod > 0 {
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

	rep, err := core.Run(ctx, core.RunSpec{
		Plans: []*core.Plan{plan},
		Build: core.BuildConfig{
			Engine:           spec.Engine,
			Data:             spec.Data,
			KeepMatches:      spec.KeepMatches,
			SourceRatePerSec: spec.SourceRatePerSec,
		},
		Restart:   spec.RestartPolicy,
		Quality:   spec.Quality,
		Cluster:   spec.Cluster,
		OnAttempt: func(env *asp.Environment, _ []*asp.Results) { curEnv.Store(env) },
	})
	if sampler != nil {
		res.Resources = sampler.Stop()
	}
	if len(rep.Sinks) > 0 { // else the build failed before any attempt ran
		res.Report = rep.Stats(0)
	}
	if reg := spec.Engine.Metrics; reg != nil {
		snap := reg.Snapshot()
		res.Operators = snap.Operators
		res.OperatorEdges = snap.Edges
	}
	if errors.Is(err, asp.ErrStateBudget) {
		err = fmt.Errorf("memory exhaustion analogue: %w", err)
	}
	res.Failed, res.Err = err != nil, err
	if tracer := spec.Engine.Trace; tracer != nil && spec.TraceOut != "" {
		if werr := tracer.WriteFile(spec.TraceOut); werr != nil {
			res.Err = errors.Join(err, fmt.Errorf("%w: %w", ErrTraceExport, werr))
		}
	}
	return res
}
