package core

import (
	"context"
	"errors"
	"fmt"
	"math"
	"sync"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
)

// RunSpec is one execution: the plans, how to build them, and the policies
// of Run's attempt loop. Policies compose; with none set Run is exactly
// BuildMulti followed by Execute.
type RunSpec struct {
	// Plans each get a sink of their own; a Replanner supplies them instead.
	Plans []*Plan
	Build BuildConfig
	// Restart resumes the current plan generation from its latest
	// checkpoint after a restartable failure; records that keep failing are
	// quarantined into DLQ (nil keeps a private queue).
	Restart *supervise.Policy
	DLQ     *supervise.DLQ
	// Quality runs one quality controller on every attempt's environment.
	Quality overload.QualityDemand
	// Replanner switches plans at a checkpoint barrier when it judges a new
	// plan due (internal/optimizer implements it).
	Replanner Replanner
	// OnAttempt observes each attempt's graph before it executes.
	OnAttempt func(env *asp.Environment, sinks []*asp.Results)
}

// Replanner is Run's re-planning policy.
type Replanner interface {
	// Plan returns the next plan generation and its explanation.
	Plan() (*Plan, string, error)
	// Poll is how often Run consults Due; zero once no re-plan is allowed.
	Poll() time.Duration
	// Due reports whether the running plan cur should give way to a new
	// one, judged from a snapshot of the run's metrics registry.
	Due(snap obs.Snapshot, cur *Plan) bool
}

// RunReport is the outcome of Run. Its overload accounting spans every
// attempt: sums of the shed records and lost-match bounds, maxima of the
// peaks.
type RunReport struct {
	// Plans are the last generation's plans and Sinks their sinks, which
	// every generation delivered into; Env is the last attempt's graph.
	Plans            []*Plan
	Sinks            []*asp.Results
	Env              *asp.Environment
	Explains         []string // one per plan generation (Replanner only)
	Restarts         int
	Replans          int
	QualityActions   []string
	ShedRecords      int64
	LostMatchBound   float64
	PeakStateRecords int64
	PeakHeapBytes    int64
}

// RecallEstimate is the guaranteed lower bound on plan i's achieved recall.
func (r *RunReport) RecallEstimate(i int) float64 {
	return overload.RecallEstimate(r.Sinks[i].Unique(), r.LostMatchBound)
}

// errReplan stops a generation at the barrier a re-plan cuts it at.
var errReplan = errors.New("core: re-planning at checkpoint barrier")

type runner struct {
	spec   RunSpec
	rep    *RunReport
	engine asp.Config
	// data, ckpt and latest belong to the current plan generation: its input
	// tail, checkpoint spec (nil when nothing checkpoints) and newest
	// completed checkpoint.
	data   map[event.Type][]event.Event
	ckpt   *asp.CheckpointSpec
	latest int64
	// sinks carry into the next attempt (nil builds fresh ones); cut is their
	// state when a re-planned generation started.
	sinks []*asp.Results
	cut   [][]byte
	// pending is set while a due re-plan waits for its barrier.
	pending bool
}

// Run executes the spec's plans. Each attempt builds the current plan
// generation, starts the quality controller on it and executes; then the
// loop decides: done, restart from the generation's latest checkpoint
// (Restart), or cut at a barrier and replay the rewound tail into the same
// sinks under a new plan (Replanner). The report is returned even on error.
func Run(ctx context.Context, spec RunSpec) (*RunReport, error) {
	r := &runner{spec: spec, rep: &RunReport{Plans: spec.Plans}, engine: spec.Build.Engine, data: spec.Build.Data}
	if spec.Replanner != nil {
		if err := r.nextPlan(); err != nil {
			return r.rep, err
		}
	}
	if q := spec.Quality; q.MaxStateBytes > 0 && r.engine.Overload.Memory.SoftLimitBytes == 0 {
		r.engine.Overload.Memory.SoftLimitBytes = q.MaxStateBytes
	}
	replans := spec.Replanner != nil && spec.Replanner.Poll() > 0
	if replans && r.engine.Metrics == nil {
		r.engine.Metrics = obs.NewRegistry()
	}
	if c := r.engine.Checkpoint; c != nil {
		cp := *c
		r.ckpt = &cp
	} else if spec.Restart != nil || replans {
		r.ckpt = &asp.CheckpointSpec{Store: checkpoint.NewMemStore()}
		if spec.Restart != nil {
			r.ckpt.Interval = 20 * time.Millisecond
		}
	}
	if spec.Restart == nil {
		return r.rep, r.generations(ctx, 0)
	}
	var err error
	r.rep.Restarts, err = r.supervisor().Run(ctx, r.generations)
	return r.rep, err
}

// supervisor wires the restart policy: a record it declares poison is
// quarantined at its node and dead-lettered on replay; restarts, failures
// and letters are counted on the registry.
func (r *runner) supervisor() *supervise.Supervisor {
	reg := r.engine.Metrics // nil-safe: Record* methods no-op
	dlq := r.spec.DLQ
	if dlq == nil {
		dlq = &supervise.DLQ{}
	}
	userDropped := dlq.OnDropped
	dlq.OnDropped = func(l supervise.Letter) {
		reg.RecordDeadLetterDropped()
		if userDropped != nil {
			userDropped(l)
		}
	}
	q := asp.NewQuarantine()
	r.engine.Quarantine = q
	var mu sync.Mutex
	failuresByKey := map[string]int{}
	q.OnDrop = func(node string, instance int, key, summary string) {
		mu.Lock()
		n := failuresByKey[key]
		mu.Unlock()
		reg.RecordDeadLetter()
		dlq.Add(supervise.Letter{
			Node: node, Instance: instance, Key: key, Summary: summary,
			Failures: n, At: time.Now(),
		})
	}
	return &supervise.Supervisor{
		Policy:    *r.spec.Restart,
		OnRestart: func(int, error, time.Duration) { reg.RecordRestart() },
		OnPoison: func(key string, failures int, cause error) {
			var f *asp.OperatorFailure
			if !errors.As(cause, &f) {
				return
			}
			mu.Lock()
			failuresByKey[key] = failures
			mu.Unlock()
			q.Add(f.Node, key)
		},
	}
}

// generations runs plan generations until one runs to the end; n > 0 is a
// supervised restart, which resumes the current generation: from its latest
// checkpoint, or else from its start — with fresh sinks in generation 0,
// with the sinks as it found them after a re-plan. Another generation's
// snapshot is never restored.
func (r *runner) generations(ctx context.Context, n int) error {
	switch {
	case n == 0:
	case r.latest > 0:
		r.ckpt.Restore, r.ckpt.RestoreID = true, r.latest
	case r.cut == nil:
		r.sinks = nil
	default:
		for i, s := range r.sinks {
			if err := s.Restore(r.cut[i]); err != nil {
				return err
			}
		}
	}
	for {
		id, err := r.attempt(ctx)
		if err != nil || id == 0 {
			return err
		}
		if err := r.replan(id); err != nil {
			return err
		}
	}
}

// attempt builds and executes the current generation once and folds its
// accounting into the report. It returns the ID of the checkpoint a re-plan
// cut it at, or 0 when it ran to the end.
func (r *runner) attempt(ctx context.Context) (int64, error) {
	bc := r.spec.Build
	bc.Engine, bc.Data = r.engine, r.data
	if r.ckpt != nil {
		c := *r.ckpt
		bc.Engine.Checkpoint = &c
	}
	env, sinks, err := buildMulti(r.rep.Plans, bc, r.sinks)
	if err != nil {
		return 0, err
	}
	r.sinks, r.rep.Env, r.rep.Sinks = sinks, env, sinks
	r.engine.Metrics.RegisterHistogram("sink_detection_latency", sinks[0].LatencyHistogram())
	if r.spec.OnAttempt != nil {
		r.spec.OnAttempt(env, sinks)
	}
	var qc *overload.QualityController
	if r.spec.Quality.Enabled() {
		probe, act := env.QualityHooks(func() time.Duration { return sinks[0].LatencyQuantile(0.99) })
		if qc, err = overload.NewQualityController(r.spec.Quality, r.engine.Overload, probe, act); err != nil {
			return 0, err
		}
		qc.Start(0)
	}
	id, err := r.execute(ctx, env)
	if qc != nil {
		qc.Stop()
		r.rep.QualityActions = append(r.rep.QualityActions, qc.Actions()...)
	}
	rep := r.rep
	rep.ShedRecords += env.ShedRecords()
	rep.LostMatchBound += env.LostMatchBound()
	rep.PeakStateRecords = max(rep.PeakStateRecords, env.PeakStateRecords())
	rep.PeakHeapBytes = max(rep.PeakHeapBytes, env.PeakHeapBytes())
	if st := env.CheckpointStats(); len(st) > 0 {
		r.latest = st[len(st)-1].ID
	}
	if err != nil && r.spec.Restart != nil {
		r.engine.Metrics.RecordFailure(err.Error())
	}
	return id, err
}

// execute runs env to completion. While a re-plan is allowed it consults
// the replanner; once one is due it triggers a barrier and, as soon as a
// checkpoint at or after it has completed, stops env there and returns that
// checkpoint's ID.
func (r *runner) execute(ctx context.Context, env *asp.Environment) (int64, error) {
	var every time.Duration
	if r.spec.Replanner != nil {
		every = r.spec.Replanner.Poll()
	}
	if every <= 0 {
		return 0, env.Execute(ctx)
	}
	done := make(chan error, 1)
	go func() { done <- env.Execute(ctx) }()
	tick := time.NewTicker(every)
	defer tick.Stop()
	var id int64
	for {
		select {
		case err := <-done:
			return 0, err
		case <-tick.C:
		}
		if id == 0 {
			r.pending = r.pending || r.spec.Replanner.Due(r.engine.Metrics.Snapshot(), r.rep.Plans[0])
			if r.pending {
				tick.Reset(5 * time.Millisecond)
				id = env.TriggerCheckpoint() // 0 while another is in flight
			}
			continue
		}
		if st := env.CheckpointStats(); len(st) > 0 && st[len(st)-1].ID >= id {
			env.Fail(errReplan)
			if err := <-done; !errors.Is(err, errReplan) {
				return 0, err
			}
			return st[len(st)-1].ID, nil
		}
	}
}

// replan cuts the current generation at checkpoint id and starts the next,
// whose plan replays each stream's tail from replayCutoff into the same
// sinks; their dedup sets absorb the overlap. The new graph checkpoints into
// a store of its own.
func (r *runner) replan(id int64) error {
	snap, err := r.ckpt.Store.Load(id)
	if err != nil {
		return fmt.Errorf("core: loading re-plan snapshot %d: %w", id, err)
	}
	prog, err := asp.SourceOffsets(snap)
	if err != nil {
		return err
	}
	cut := replayCutoff(r.rep.Plans[0].Pattern, r.data, prog, r.engine.WatermarkInterval, r.spec.Build.Lateness)
	r.data = tailFrom(r.data, cut)
	if err := r.nextPlan(); err != nil {
		return err
	}
	r.rep.Replans++
	r.pending, r.latest = false, 0
	c := *r.ckpt
	c.Store, c.Restore, c.RestoreID = checkpoint.NewMemStore(), false, 0
	r.ckpt = &c
	if r.spec.Restart != nil {
		r.cut = make([][]byte, len(r.sinks))
		for i, s := range r.sinks {
			if r.cut[i], err = s.Snapshot(); err != nil {
				return err
			}
		}
	}
	return nil
}

func (r *runner) nextPlan() error {
	plan, explain, err := r.spec.Replanner.Plan()
	if err != nil {
		return err
	}
	r.rep.Plans = []*Plan{plan}
	r.rep.Explains = append(r.rep.Explains, explain)
	return nil
}

// replayCutoff computes how far a re-planned generation must rewind: every
// event with TS > minWM - 2W, minWM being the slowest source's watermark at
// its checkpointed offset, may belong to a match the old generation had not
// yet emitted (DESIGN.md, "Rewind bound"). A source without state or
// without a watermark yet forces full replay.
func replayCutoff(p *sea.Pattern, data map[event.Type][]event.Event,
	prog map[string]asp.SourceProgress, wmInterval int, lateness event.Time) event.Time {
	if wmInterval <= 0 {
		wmInterval = asp.DefaultWatermarkInterval
	}
	minWM := event.Time(math.MaxInt64)
	for _, l := range p.Leaves() {
		pr, ok := prog["src:"+l.TypeName]
		if !ok {
			return event.MinWatermark
		}
		// Watermarks are emitted every wmInterval records, so at offset o
		// the source's watermark reflects the first floor(o / interval) *
		// interval events only.
		events := data[l.Type]
		k := min((pr.Offset/wmInterval)*wmInterval, len(events))
		if k <= 0 {
			return event.MinWatermark
		}
		maxTS := events[0].TS
		for _, e := range events[:k] {
			maxTS = max(maxTS, e.TS)
		}
		minWM = min(minWM, asp.SourceWatermarkAt(maxTS, lateness))
	}
	if minWM == event.Time(math.MaxInt64) || minWM == event.MinWatermark {
		return event.MinWatermark
	}
	cut := minWM - 2*p.Window.Size - 1
	if cut > minWM { // underflow wrap
		return event.MinWatermark
	}
	return cut
}

// tailFrom keeps only events at or after the cutoff, preserving per-stream
// arrival order.
func tailFrom(data map[event.Type][]event.Event, cut event.Time) map[event.Type][]event.Event {
	if cut == event.MinWatermark {
		return data
	}
	out := make(map[event.Type][]event.Event, len(data))
	for t, evs := range data {
		kept := make([]event.Event, 0, len(evs))
		for _, e := range evs {
			if e.TS >= cut {
				kept = append(kept, e)
			}
		}
		out[t] = kept
	}
	return out
}
