package asp

import (
	"context"
	"errors"
	"sort"
	"testing"

	"cep2asp/internal/event"
)

var (
	tQ = event.RegisterType("EngQ")
	tV = event.RegisterType("EngV")
	tP = event.RegisterType("EngP")
)

// mkEvents builds a minute-spaced stream of one type and key.
func mkEvents(t event.Type, id int64, minutes []int64, values []float64) []event.Event {
	out := make([]event.Event, len(minutes))
	for i, m := range minutes {
		v := float64(i)
		if values != nil {
			v = values[i]
		}
		out[i] = event.Event{Type: t, ID: id, TS: m * event.Minute, Value: v}
	}
	return out
}

func run(t *testing.T, env *Environment) {
	t.Helper()
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
}

// apply appends a stateless stage running fn, forward-connected like every
// other stateless stage.
func apply(s *Stream, name string, fn func(port int, r *Record, out *Collector)) *Stream {
	return s.chainStateless(name, func(int) Operator { return &funcOperator{fn: fn} })
}

// forward passes every record on unchanged.
func forward(_ int, r *Record, out *Collector) { out.Emit(r) }

func TestSourceFilterMapSink(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	filtered := env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2, 3}, []float64{5, 50, 7, 70}), false).
		Filter("filter", func(e event.Event) bool { return e.Value >= 10 })
	apply(filtered, "map", func(_ int, r *Record, out *Collector) {
		doubled := *r // r is borrowed: a projection writes its own copy
		doubled.Event.Value *= 2
		out.Emit(&doubled)
	}).Sink("sink", res.Operator())
	run(t, env)
	ms := res.Matches()
	if len(ms) != 2 {
		t.Fatalf("got %d results, want 2", len(ms))
	}
	if ms[0].Events[0].Value != 100 || ms[1].Events[0].Value != 140 {
		t.Fatalf("map not applied: %v", ms)
	}
}

func TestUnionMergesStreams(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	a := env.Source("a", mkEvents(tQ, 1, []int64{0, 2}, nil), false)
	b := env.Source("b", mkEvents(tV, 1, []int64{1, 3}, nil), false)
	a.Union("union", b).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Total(); got != 4 {
		t.Fatalf("union delivered %d records, want 4", got)
	}
}

func TestWindowJoinBasic(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 10}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{2, 30}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
		Predicate: func(l, r []event.Event) bool {
			return l[0].TS < r[0].TS // sequence order
		},
	})).Sink("sink", res.Operator())
	run(t, env)
	// q@0 with v@2 is the only pair within a 5-minute window in order.
	if got := res.Unique(); got != 1 {
		t.Fatalf("got %d unique matches, want 1 (total %d)", got, res.Total())
	}
	// Duplicates from overlapping windows must exist (pair fits 3 windows:
	// starts 0, -1, -2 contain both ts=0 and ts=2... windows aligned at
	// minute multiples: starts -2..0 → 3 windows).
	if res.Total() <= res.Unique() {
		t.Fatalf("sliding window join should emit duplicates: total=%d unique=%d", res.Total(), res.Unique())
	}
}

func TestWindowJoinSpanExactlyW(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{5}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 0 {
		t.Fatalf("pair exactly W apart must not join, got %d", got)
	}
}

func TestWindowJoinKeyed(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	key := func(r *Record) int64 { return r.Event.ID }
	lEvents := append(mkEvents(tQ, 1, []int64{0}, nil), mkEvents(tQ, 2, []int64{0}, nil)...)
	rEvents := append(mkEvents(tV, 1, []int64{1}, nil), mkEvents(tV, 2, []int64{1}, nil)...)
	sort.Slice(lEvents, func(i, j int) bool { return lEvents[i].TS < lEvents[j].TS })
	left := env.Source("q", lEvents, false)
	right := env.Source("v", rEvents, false)
	left.Connect2("join", right, 4, key, key, NewWindowJoin(WindowJoinSpec{
		Window:   5 * event.Minute,
		Slide:    event.Minute,
		LeftKey:  key,
		RightKey: key,
	})).Sink("sink", res.Operator())
	run(t, env)
	// Keyed join: only same-ID pairs -> 2 matches, not 4.
	if got := res.Unique(); got != 2 {
		t.Fatalf("keyed join: got %d unique matches, want 2", got)
	}
	for _, m := range res.Matches() {
		if m.Events[0].ID != m.Events[1].ID {
			t.Fatalf("cross-key join result: %v", m)
		}
	}
}

func TestIntervalJoinNoDuplicates(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 10}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{2, 30}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
		Lower: 0,
		Upper: 5 * event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if res.Unique() != 1 || res.Total() != 1 {
		t.Fatalf("interval join: unique=%d total=%d, want 1/1 (no duplicates)", res.Unique(), res.Total())
	}
}

func TestIntervalJoinBoundsExclusive(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	// r at exactly l.TS (lower bound 0, exclusive) and exactly l.TS+W
	// (upper, exclusive) must both be excluded; within must be included.
	left := env.Source("q", mkEvents(tQ, 1, []int64{10}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{10, 12, 15}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
		Lower: 0,
		Upper: 5 * event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("exclusive bounds: got %d matches, want 1 (only v@12)", got)
	}
}

func TestIntervalJoinSymmetricBounds(t *testing.T) {
	// Conjunction bounds (-W, +W): order must not matter.
	env := NewEnvironment(Config{})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{10}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{7}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
		Lower: -5 * event.Minute,
		Upper: 5 * event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("symmetric bounds: got %d, want 1", got)
	}
}

func TestWindowAggregateCounts(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	env.Source("v", mkEvents(tV, 1, []int64{0, 1, 2, 10}, nil), false).
		Process("agg", 1, nil, NewWindowAggregate(WindowAggregateSpec{
			Window:   5 * event.Minute,
			Slide:    5 * event.Minute, // tumbling for easy counting
			MinCount: 3,
		})).
		Sink("sink", res.Operator())
	run(t, env)
	// Window [0,5) has 3 events -> fires; [10,15) has 1 -> suppressed.
	ms := res.Matches()
	if len(ms) != 1 {
		t.Fatalf("got %d aggregate outputs, want 1", len(ms))
	}
	if got := ms[0].Events[0].Value; got != 3 {
		t.Fatalf("count = %g, want 3", got)
	}
}

func TestWindowAggregateEmptyWindowsSilent(t *testing.T) {
	// O2 cannot express Kleene*: windows with no events never fire.
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	env.Source("v", mkEvents(tV, 1, []int64{0, 100}, nil), false).
		Process("agg", 1, nil, NewWindowAggregate(WindowAggregateSpec{
			Window: 5 * event.Minute,
			Slide:  5 * event.Minute,
		})).
		Sink("sink", res.Operator())
	run(t, env)
	// Two fired windows only (those containing events), not ~20.
	if got := len(res.Matches()); got != 2 {
		t.Fatalf("got %d outputs, want 2 (empty windows silent)", got)
	}
}

func TestNextOccurrenceAnnotates(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	t1s := mkEvents(tQ, 1, []int64{0, 10}, nil)
	t2s := mkEvents(tV, 1, []int64{3}, nil)
	a := env.Source("t1", t1s, false)
	b := env.Source("t2", t2s, false)
	a.Union("union", b).
		Process("nseq", 1, nil, NewNextOccurrence(NextOccurrenceSpec{
			T1: tQ, T2: tV, Window: 5 * event.Minute,
		})).
		Sink("sink", res.Operator())
	run(t, env)
	ms := res.Matches()
	if len(ms) != 2 {
		t.Fatalf("got %d annotated events, want 2", len(ms))
	}
	byTS := map[event.Time]event.Event{}
	for _, m := range ms {
		byTS[m.Events[0].TS] = m.Events[0]
	}
	// e1@0: next V within (0, 5min) is v@3 -> ats = 3min.
	if got := byTS[0].AuxTS; got != 3*event.Minute {
		t.Fatalf("ats(e1@0) = %d, want %d", got, 3*event.Minute)
	}
	// e1@10: no V in (10, 15) -> ats = 15min.
	if got := byTS[10*event.Minute].AuxTS; got != 15*event.Minute {
		t.Fatalf("ats(e1@10) = %d, want %d", got, 15*event.Minute)
	}
}

func TestNextOccurrenceBlockerPredicate(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	t1s := mkEvents(tQ, 1, []int64{0}, nil)
	t2s := mkEvents(tV, 1, []int64{1, 3}, []float64{5, 50})
	a := env.Source("t1", t1s, false)
	b := env.Source("t2", t2s, false)
	a.Union("union", b).
		Process("nseq", 1, nil, NewNextOccurrence(NextOccurrenceSpec{
			T1: tQ, T2: tV, Window: 5 * event.Minute,
			Blocker: func(pair []event.Event) bool { return pair[1].Value > 10 },
		})).
		Sink("sink", res.Operator())
	run(t, env)
	ms := res.Matches()
	if len(ms) != 1 {
		t.Fatalf("got %d events, want 1", len(ms))
	}
	// v@1 fails the blocker predicate; earliest valid blocker is v@3.
	if got := ms[0].Events[0].AuxTS; got != 3*event.Minute {
		t.Fatalf("ats = %d, want %d", got, 3*event.Minute)
	}
}

func TestStateBudgetAborts(t *testing.T) {
	env := NewEnvironment(Config{MaxOperatorState: 4})
	res := NewResults(false, false)
	// A huge window buffers everything -> exceeds the budget of 4.
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4, 5, 6, 7}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{0, 1, 2, 3, 4, 5, 6, 7}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 1000 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	if !errors.Is(err, ErrStateBudget) {
		t.Fatalf("Execute = %v, want ErrStateBudget", err)
	}
}

func TestContextCancellation(t *testing.T) {
	env := NewEnvironment(Config{ChannelCapacity: 1})
	res := NewResults(false, false)
	big := make([]event.Event, 100000)
	for i := range big {
		big[i] = event.Event{Type: tQ, ID: 1, TS: int64(i) * event.Minute}
	}
	env.Source("q", big, false).
		Filter("f", func(event.Event) bool { return true }).
		Sink("sink", res.Operator())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	err := env.Execute(ctx)
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("Execute = %v, want context.Canceled", err)
	}
}

func TestExecuteTwiceFails(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.Source("q", mkEvents(tQ, 1, []int64{0}, nil), false).Sink("sink", res.Operator())
	run(t, env)
	if err := env.Execute(context.Background()); err == nil {
		t.Fatal("second Execute should fail")
	}
}

func TestValidateEmptyGraph(t *testing.T) {
	env := NewEnvironment(Config{})
	if err := env.Execute(context.Background()); err == nil {
		t.Fatal("empty graph should fail validation")
	}
}

func TestLatencyMeasured(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	env.Source("q", mkEvents(tQ, 1, []int64{0, 1, 2}, nil), true).
		Sink("sink", res.Operator())
	run(t, env)
	if res.AvgLatency() <= 0 {
		t.Fatal("expected positive detection latency with ingest stamping")
	}
	if res.MaxLatency() < res.AvgLatency() {
		t.Fatal("max latency below average")
	}
}

func TestParallelSourceAndKeyBy(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	perInstance := [][]event.Event{
		mkEvents(tQ, 1, []int64{0, 2}, nil),
		mkEvents(tQ, 2, []int64{1, 3}, nil),
	}
	key := func(r *Record) int64 { return r.Event.ID }
	env.ParallelSource("src", perInstance, false).
		Process("shuffle", 4, key, func(int) Operator { return passOperator{} }).
		Filter("f", func(event.Event) bool { return true }).
		Sink("sink", res.Operator())
	run(t, env)
	if got := res.Total(); got != 4 {
		t.Fatalf("got %d records, want 4", got)
	}
}

func TestWatermarkMergingAcrossSources(t *testing.T) {
	// A slow source must hold back the join's watermark; all matches must
	// still be found once both sources complete.
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{2}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 3 * event.Minute,
		Slide:  event.Minute,
		Predicate: func(l, r []event.Event) bool {
			return l[0].TS < r[0].TS
		},
	})).Sink("sink", res.Operator())
	run(t, env)
	// q@0,q@1 precede v@2 within 3 minutes.
	if got := res.Unique(); got != 2 {
		t.Fatalf("got %d unique matches, want 2", got)
	}
}

func TestChainedJoins(t *testing.T) {
	// SEQ(Q, V, P) as two consecutive joins — the decomposition of §4.2.2.
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	w := 5 * event.Minute
	q := env.Source("q", mkEvents(tQ, 1, []int64{0}, nil), false)
	v := env.Source("v", mkEvents(tV, 1, []int64{1}, nil), false)
	p := env.Source("p", mkEvents(tP, 1, []int64{2}, nil), false)
	j1 := q.Connect2("join1", v, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: w, Slide: event.Minute,
		Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
	}))
	j1.Connect2("join2", p, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		// Enlarged window: the partial's assigned time is its firing
		// window end, up to W beyond the constituents (see core package).
		Window: 2 * w, Slide: event.Minute,
		Predicate: func(l, r []event.Event) bool {
			last := l[len(l)-1]
			if last.TS >= r[0].TS {
				return false
			}
			// Span check: all constituents within W.
			return r[0].TS-l[0].TS < w
		},
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("chained joins: got %d unique matches, want 1 (total %d)", got, res.Total())
	}
	m := res.Matches()[0]
	if len(m.Events) != 3 {
		t.Fatalf("match has %d constituents, want 3", len(m.Events))
	}
}
