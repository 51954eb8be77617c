package core

import (
	"fmt"

	"cep2asp/internal/asp"
	"cep2asp/internal/cep"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

// BuildConfig supplies the physical construction inputs: the engine
// configuration, the per-type input streams (each time-ordered, as produced
// by one source/sensor feed), and sink behaviour. Every source stamps
// wall-clock creation times, which detection-latency measurement needs
// (§5.1.3), and every sink eliminates duplicate matches (overlapping sliding
// windows emit duplicates, §3.1.4).
type BuildConfig struct {
	Engine asp.Config
	// Data holds one time-ordered event slice per event type; every type
	// the pattern references must be present.
	Data map[event.Type][]event.Event
	// Lateness bounds the event-time disorder of the input streams:
	// watermarks trail the maximum seen timestamp by this much, letting
	// windows wait for stragglers (ASP event-time processing, §2's time
	// model). Zero expects time-ordered streams.
	Lateness event.Time
	// KeepMatches retains match values for inspection.
	KeepMatches bool
	// SourceRatePerSec throttles every source to the given wall-clock
	// emission rate (0 = full speed): the controlled-ingestion setting
	// under which detection latency is meaningful (§5.1.3's metric is
	// measured at the maximum sustainable throughput, not beyond it).
	SourceRatePerSec float64
}

// Build constructs the physical dataflow for a translated plan and returns
// the environment (run it with Execute) plus the result sink handle.
func Build(plan *Plan, bc BuildConfig) (*asp.Environment, *asp.Results, error) {
	env, results, err := BuildMulti([]*Plan{plan}, bc)
	if err != nil {
		return nil, nil, err
	}
	return env, results[0], nil
}

// BuildMulti constructs one dataflow executing several translated plans
// concurrently, sharing each event type's source among all consumers — the
// multi-query capability the paper lists among the features CEP systems
// lack for cloud environments (§6: "no CEP system exists that provides ...
// multi-query optimization"). Each plan gets its own result sink, in input
// order. Plans may mix decomposed and FCEP roots.
func BuildMulti(plans []*Plan, bc BuildConfig) (*asp.Environment, []*asp.Results, error) {
	return buildMulti(plans, bc, nil)
}

// buildMulti is BuildMulti delivering into existing sinks when given: Run
// carries them across restarts and plan generations.
func buildMulti(plans []*Plan, bc BuildConfig, sinks []*asp.Results) (*asp.Environment, []*asp.Results, error) {
	if len(plans) == 0 {
		return nil, nil, fmt.Errorf("core: no plans to build")
	}
	env := asp.NewEnvironment(bc.Engine)
	b := &builder{
		bc:      bc,
		env:     env,
		sources: make(map[event.Type]*asp.Stream),
	}
	results := make([]*asp.Results, len(plans))
	for i, plan := range plans {
		b.plan = plan
		stream, _, err := b.node(plan.Root)
		if err != nil {
			return nil, nil, fmt.Errorf("core: building plan %d: %w", i, err)
		}
		res := (*asp.Results)(nil)
		if sinks != nil {
			res = sinks[i]
		}
		if res == nil {
			res = asp.NewResults(true, bc.KeepMatches)
		}
		stream.Sink(fmt.Sprintf("sink#%d", i), res.Operator())
		results[i] = res
	}
	return env, results, nil
}

type builder struct {
	plan    *Plan
	bc      BuildConfig
	env     *asp.Environment
	sources map[event.Type]*asp.Stream
	nameSeq int
}

func (b *builder) name(prefix string) string {
	b.nameSeq++
	return fmt.Sprintf("%s#%d", prefix, b.nameSeq)
}

func (b *builder) source(t event.Type, typeName string) (*asp.Stream, error) {
	if s, ok := b.sources[t]; ok {
		return s, nil
	}
	data, ok := b.bc.Data[t]
	if !ok {
		return nil, fmt.Errorf("core: no input data for event type %s", typeName)
	}
	var s *asp.Stream
	if b.bc.Lateness != 0 {
		// Negative lateness flows through so the engine's graph validation
		// rejects it with a descriptive error instead of silently clamping.
		s = b.env.SourceOutOfOrder("src:"+typeName, data, true, b.bc.Lateness)
	} else {
		s = b.env.Source("src:"+typeName, data, true)
	}
	if b.bc.SourceRatePerSec != 0 {
		// Same: non-positive rates are rejected at graph validation.
		s.Throttle(b.bc.SourceRatePerSec)
	}
	b.sources[t] = s
	return s, nil
}

// node builds the stream for a plan node and returns it with the node's
// alias layout.
func (b *builder) node(n PlanNode) (*asp.Stream, []string, error) {
	switch v := n.(type) {
	case *ScanPlan:
		s, err := b.scan(v)
		return s, []string{v.Alias}, err
	case *JoinPlan:
		return b.join(v)
	case *UnionPlan:
		var streams []*asp.Stream
		for _, br := range v.Branches {
			s, _, err := b.node(br)
			if err != nil {
				return nil, nil, err
			}
			streams = append(streams, s)
		}
		u := streams[0]
		if len(streams) > 1 {
			u = streams[0].Union(b.name("union"), streams[1:]...)
		}
		return u, v.Aliases(), nil
	case *AggregatePlan:
		return b.aggregate(v)
	case *NextOccurrencePlan:
		return b.nextOccurrence(v)
	case *CEPPlan:
		return b.cep(v)
	}
	return nil, nil, fmt.Errorf("core: unknown plan node %T", n)
}

func (b *builder) scan(v *ScanPlan) (*asp.Stream, error) {
	s, err := b.source(v.Type, v.TypeName)
	if err != nil {
		return nil, err
	}
	if len(v.Filters) == 0 {
		return s, nil
	}
	pred, err := sea.CompileBool(sea.Conjoin(v.Filters), sea.Layout{v.Alias: 0})
	if err != nil {
		return nil, fmt.Errorf("core: compiling filters of %s: %w", v.Alias, err)
	}
	// pred is shared by every source instance; each evaluates it on a
	// one-constituent slice of its own.
	return s.FilterMatch(b.name("σ:"+v.Alias), pred), nil
}

// recordKey extracts the partition key of attr (event.Field.Key) from a
// record's constituent at the given side-local position. Key attributes
// come from sea.Analyze, which rejects unknown ones.
func recordKey(pos int, attr string) asp.KeyFn {
	f, _ := event.Accessor(attr)
	return func(r *asp.Record) int64 {
		if r.Kind == asp.KindEvent {
			return f.Key(&r.Event)
		}
		return f.Key(&r.Match.Events[pos])
	}
}

func (b *builder) join(v *JoinPlan) (*asp.Stream, []string, error) {
	left, leftAliases, err := b.node(v.Left)
	if err != nil {
		return nil, nil, err
	}
	right, rightAliases, err := b.node(v.Right)
	if err != nil {
		return nil, nil, err
	}
	nl := len(leftAliases)

	newPred, err := b.compileJoinPredicate(v, nl, len(rightAliases))
	if err != nil {
		return nil, nil, err
	}

	var leftKey, rightKey asp.KeyFn
	parallelism := 1
	if v.Equi != nil && b.plan.Opts.UsePartitioning {
		leftKey = recordKey(v.Equi.LeftPos, v.Equi.LeftAttr)
		rightKey = recordKey(v.Equi.RightPos, v.Equi.RightAttr)
		parallelism = b.plan.Opts.Parallelism
	}

	w := v.Window.Size
	var op func(int) asp.Operator
	kind := "⋈w"
	if v.Interval {
		kind = "⋈i"
		lower := -w
		if v.Ordered {
			lower = 0
		}
		op = asp.NewIntervalJoin(asp.IntervalJoinSpec{
			Lower: lower, Upper: w,
			LeftKey: leftKey, RightKey: rightKey,
			NewPredicate: newPred,
		})
	} else {
		op = asp.NewWindowJoin(asp.WindowJoinSpec{
			Window: w, Slide: v.Window.Slide,
			LeftKey: leftKey, RightKey: rightKey,
			NewPredicate: newPred,
			PerWindow:    v.PerWindow,
		})
	}
	s := left.Connect2(b.name(kind), right, parallelism, leftKey, rightKey, op)
	return s, append(append([]string{}, leftAliases...), rightAliases...), nil
}

// compileJoinPredicate assembles the per-instance θ predicate: window span,
// temporal order pairs, iteration pairwise constraints, negated-sequence
// selections, and residual multi-alias predicates.
func (b *builder) compileJoinPredicate(v *JoinPlan, nl, nr int) (func() asp.JoinPredicate, error) {
	w := v.Window.Size
	orders := v.Orders
	auxChecks := v.AuxChecks

	var preds, pair sea.Predicate
	var err error
	if len(v.Preds) > 0 {
		// An iteration alias names its first constituent.
		preds, err = sea.CompileBool(sea.Conjoin(v.Preds), sea.Layout(firstPositions(v.Aliases())))
		if err != nil {
			return nil, fmt.Errorf("core: compiling join predicates %s: %w", sea.Conjoin(v.Preds), err)
		}
	}
	if v.PairPred != nil {
		pair, err = sea.CompileAdjacent(v.PairPred, v.PairAlias)
		if err != nil {
			return nil, fmt.Errorf("core: compiling pairwise predicate %s: %w", v.PairPred, err)
		}
	}

	return func() asp.JoinPredicate {
		scratch := make([]event.Event, 0, nl+nr)
		adjacent := make([]event.Event, 2) // {alias[i], alias[i+1]} for pair
		at := func(l, r []event.Event, pos int) event.Event {
			if pos < nl {
				return l[pos]
			}
			return r[pos-nl]
		}
		return func(l, r []event.Event) bool {
			// Window span: all constituents within W (Eq. in §2's match
			// definition: every pair less than W apart).
			min, max := l[0].TS, l[0].TS
			for _, e := range l[1:] {
				if e.TS < min {
					min = e.TS
				}
				if e.TS > max {
					max = e.TS
				}
			}
			for _, e := range r {
				if e.TS < min {
					min = e.TS
				}
				if e.TS > max {
					max = e.TS
				}
			}
			if max-min >= w {
				return false
			}
			for _, o := range orders {
				if at(l, r, o.Before).TS >= at(l, r, o.After).TS {
					return false
				}
			}
			if pair != nil {
				adjacent[0], adjacent[1] = l[nl-1], r[0]
				if !pair(adjacent) {
					return false
				}
			}
			for _, ac := range auxChecks {
				t1 := at(l, r, ac.T1Pos)
				// ats >= tsB of the following component: no blocker in
				// the open interval (e1.ts, e3.ts) — Eq. 14.
				tsB := at(l, r, ac.RightPoss[0]).TS
				for _, p := range ac.RightPoss[1:] {
					if ts := at(l, r, p).TS; ts < tsB {
						tsB = ts
					}
				}
				if t1.AuxTS < tsB {
					return false
				}
			}
			if preds != nil {
				scratch = append(append(scratch[:0], l...), r...)
				if !preds(scratch) {
					return false
				}
			}
			return true
		}
	}, nil
}

func (b *builder) aggregate(v *AggregatePlan) (*asp.Stream, []string, error) {
	s, err := b.scan(v.Scan)
	if err != nil {
		return nil, nil, err
	}
	var key asp.KeyFn
	parallelism := 1
	if v.KeyAttr != "" && b.plan.Opts.UsePartitioning {
		key = recordKey(0, v.KeyAttr)
		parallelism = b.plan.Opts.Parallelism
	}
	outType := v.Scan.Type
	op := asp.NewWindowAggregate(asp.WindowAggregateSpec{
		Window:   v.Window.Size,
		Slide:    v.Window.Slide,
		Key:      key,
		MinCount: int64(v.M),
		Output: func(k int64, windowEnd event.Time, a asp.AggResult) event.Event {
			return event.Event{
				Type: outType, ID: k, TS: windowEnd,
				Value:  float64(a.Count),
				Ingest: a.Ingest,
			}
		},
	})
	return s.Process(b.name("γcount"), parallelism, key, op), []string{v.Scan.Alias}, nil
}

func (b *builder) nextOccurrence(v *NextOccurrencePlan) (*asp.Stream, []string, error) {
	t1, err := b.scan(v.T1)
	if err != nil {
		return nil, nil, err
	}
	neg, err := b.scan(v.Neg)
	if err != nil {
		return nil, nil, err
	}

	var blocker func(pair []event.Event) bool
	if len(v.EquiT1) > 0 {
		blocker, err = sea.CompileBool(sea.Conjoin(v.EquiT1), sea.Layout{v.T1.Alias: 0, v.NegAlias: 1})
		if err != nil {
			return nil, nil, fmt.Errorf("core: compiling blocker correlation: %w", err)
		}
	}

	// Key the UDF by the correlated attribute when partitioning: equal
	// attributes land in one instance; the blocker predicate still
	// verifies exact equality.
	var key asp.KeyFn
	parallelism := 1
	if v.KeyAttr != "" && b.plan.Opts.UsePartitioning {
		key = recordKey(0, v.KeyAttr)
		parallelism = b.plan.Opts.Parallelism
	}

	u := t1.Union(b.name("∪nseq"), neg)
	s := u.Process(b.name("nextOcc"), parallelism, key, asp.NewNextOccurrence(asp.NextOccurrenceSpec{
		T1:      v.T1.Type,
		T2:      v.Neg.Type,
		Window:  v.Window.Size,
		Key:     key,
		Blocker: blocker,
	}))
	return s, []string{v.T1.Alias}, nil
}

func (b *builder) cep(v *CEPPlan) (*asp.Stream, []string, error) {
	var streams []*asp.Stream
	for _, sc := range v.Sources {
		s, err := b.source(sc.Type, sc.TypeName)
		if err != nil {
			return nil, nil, err
		}
		streams = append(streams, s)
	}
	u := streams[0]
	if len(streams) > 1 {
		u = streams[0].Union("∪all", streams[1:]...)
	}
	op, err := cep.NewOperator(v.Prog)
	if err != nil {
		return nil, nil, err
	}
	var key asp.KeyFn
	parallelism := 1
	if v.Keyed && v.Prog.Key != nil {
		progKey := v.Prog.Key
		key = func(r *asp.Record) int64 { return progKey(r.Event) }
		parallelism = b.plan.Opts.Parallelism
	}
	return u.Process("cep-nfa", parallelism, key, op), nil, nil
}
