package asp

import (
	"context"
	"testing"

	"cep2asp/internal/event"
)

// Focused operator-level tests complementing engine_test.go: state
// accounting, eviction, watermark holds, dedup, and aggregation details.

func TestWindowJoinStateEvicted(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(false, false)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1, 2, 50, 51}, nil), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{0, 1, 2, 50, 51}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := env.StateSize(); got != 0 {
		t.Fatalf("state after completion = %d, want 0 (all panes evicted)", got)
	}
}

func TestNextOccurrenceStateEvicted(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(false, false)
	a := env.Source("t1", mkEvents(tQ, 1, []int64{0, 5, 10}, nil), false)
	b := env.Source("t2", mkEvents(tV, 1, []int64{2, 7}, nil), false)
	a.Union("u", b).Process("no", 1, nil, NewNextOccurrence(NextOccurrenceSpec{
		T1: tQ, T2: tV, Window: 5 * event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := env.StateSize(); got != 0 {
		t.Fatalf("state after completion = %d, want 0", got)
	}
	if got := res.Total(); got != 3 {
		t.Fatalf("annotated %d events, want 3", got)
	}
}

func TestWindowJoinDedupEmits(t *testing.T) {
	runJoin := func(dedup bool) (total int64) {
		env := NewEnvironment(Config{WatermarkInterval: 1})
		res := NewResults(false, false)
		left := env.Source("q", mkEvents(tQ, 1, []int64{10}, nil), false)
		right := env.Source("v", mkEvents(tV, 1, []int64{11}, nil), false)
		left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
			Window:     5 * event.Minute,
			Slide:      event.Minute,
			DedupEmits: dedup,
		})).Sink("sink", res.Operator())
		run(t, env)
		return res.Total()
	}
	withDup := runJoin(false)
	deduped := runJoin(true)
	if deduped != 1 {
		t.Fatalf("deduped emissions = %d, want 1", deduped)
	}
	// The pair co-occurs in 4 windows (starts 7..10 contain both ts=10,11).
	if withDup != 4 {
		t.Fatalf("duplicate emissions = %d, want 4", withDup)
	}
}

func TestWindowJoinHoldReleasesWatermark(t *testing.T) {
	// A chained pipeline would deadlock at EOS if the hold never released;
	// completing at all proves the release path.
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	w := 5 * event.Minute
	q := env.Source("q", mkEvents(tQ, 1, []int64{0, 30}, nil), false)
	v := env.Source("v", mkEvents(tV, 1, []int64{1, 31}, nil), false)
	p := env.Source("p", mkEvents(tP, 1, []int64{2, 32}, nil), false)
	j1 := q.Connect2("j1", v, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: w, Slide: event.Minute, DedupEmits: true,
		Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
	}))
	j1.Connect2("j2", p, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: w, Slide: event.Minute,
		Predicate: func(l, r []event.Event) bool {
			return l[len(l)-1].TS < r[0].TS && r[0].TS-l[0].TS < w
		},
	})).Sink("sink", res.Operator())
	run(t, env)
	// Two disjoint triples, both must be found despite the hold.
	if got := res.Unique(); got != 2 {
		t.Fatalf("chained join with holds found %d matches, want 2", got)
	}
}

func TestAggregateStatistics(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(false, true)
	var captured []AggResult
	env.Source("v", mkEvents(tV, 1, []int64{0, 1, 2}, []float64{10, 30, 20}), false).
		Process("agg", 1, nil, NewWindowAggregate(WindowAggregateSpec{
			Window: 5 * event.Minute,
			Slide:  5 * event.Minute,
			Output: func(key int64, end event.Time, a AggResult) event.Event {
				captured = append(captured, a)
				return event.Event{ID: key, TS: end, Value: a.Mean()}
			},
		})).
		Sink("sink", res.Operator())
	run(t, env)
	if len(captured) != 1 {
		t.Fatalf("windows fired = %d, want 1", len(captured))
	}
	a := captured[0]
	if a.Count != 3 || a.Sum != 60 || a.Min != 10 || a.Max != 30 || a.Mean() != 20 {
		t.Fatalf("aggregate = %+v", a)
	}
	if res.Matches()[0].Events[0].Value != 20 {
		t.Fatalf("mean output = %g, want 20", res.Matches()[0].Events[0].Value)
	}
}

func TestAggregateKeyed(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(false, true)
	events := append(mkEvents(tV, 1, []int64{0, 1, 2}, nil), mkEvents(tV, 2, []int64{0, 1}, nil)...)
	key := func(r *Record) int64 { return r.Event.ID }
	env.Source("v", sortByTS(events), false).
		Process("agg", 2, key, NewWindowAggregate(WindowAggregateSpec{
			Window: 5 * event.Minute,
			Slide:  5 * event.Minute,
			Key:    key,
		})).
		Sink("sink", res.Operator())
	run(t, env)
	counts := map[int64]float64{}
	for _, m := range res.Matches() {
		counts[m.Events[0].ID] = m.Events[0].Value
	}
	if counts[1] != 3 || counts[2] != 2 {
		t.Fatalf("keyed counts = %v, want 1:3 2:2", counts)
	}
}

func TestAggResultMergeEmpty(t *testing.T) {
	var a AggResult
	b := AggResult{Count: 2, Sum: 10, Min: 3, Max: 7, Ingest: 99}
	a.merge(b)
	if a != b {
		t.Fatalf("merge into empty = %+v, want %+v", a, b)
	}
	var empty AggResult
	b.merge(empty)
	if b.Count != 2 {
		t.Fatal("merging empty changed the aggregate")
	}
	if empty.Mean() != 0 {
		t.Fatal("Mean of empty aggregate should be 0")
	}
}

func TestUnionManyStreams(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	var streams []*Stream
	for i := 0; i < 5; i++ {
		streams = append(streams, env.Source(
			mkName("s", i), mkEvents(tQ, int64(i), []int64{int64(i)}, nil), false))
	}
	streams[0].Union("u", streams[1:]...).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Total(); got != 5 {
		t.Fatalf("union of 5 singleton streams delivered %d", got)
	}
}

func TestNextOccurrenceKeyed(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(false, true)
	t1s := append(mkEvents(tQ, 1, []int64{0}, nil), mkEvents(tQ, 2, []int64{0}, nil)...)
	t2s := mkEvents(tV, 1, []int64{2}, nil) // blocker only for key 1
	key := func(r *Record) int64 { return r.Event.ID }
	a := env.Source("t1", sortByTS(t1s), false)
	b := env.Source("t2", t2s, false)
	a.Union("u", b).Process("no", 2, key, NewNextOccurrence(NextOccurrenceSpec{
		T1: tQ, T2: tV, Window: 5 * event.Minute, Key: key,
	})).Sink("sink", res.Operator())
	run(t, env)
	ats := map[int64]event.Time{}
	for _, m := range res.Matches() {
		ats[m.Events[0].ID] = m.Events[0].AuxTS
	}
	if ats[1] != 2*event.Minute {
		t.Fatalf("key 1 ats = %d, want blocker at 2min", ats[1])
	}
	if ats[2] != 5*event.Minute {
		t.Fatalf("key 2 ats = %d, want window end (no blocker)", ats[2])
	}
}

func TestNodeStatsCounters(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2, 3}, nil), false).
		Filter("f", func(e event.Event) bool { return e.TS >= 2*event.Minute }).
		Sink("sink", res.Operator())
	run(t, env)
	stats := env.NodeStats()
	byName := map[string]*NodeMetrics{}
	for _, s := range stats {
		byName[s.Name] = s
	}
	if got := byName["src"].Out.Load(); got != 4 {
		t.Fatalf("src out = %d, want 4", got)
	}
	if got := byName["f"].In.Load(); got != 4 {
		t.Fatalf("filter in = %d, want 4", got)
	}
	if got := byName["f"].Out.Load(); got != 2 {
		t.Fatalf("filter out = %d, want 2", got)
	}
	if got := byName["sink"].In.Load(); got != 2 {
		t.Fatalf("sink in = %d, want 2", got)
	}
}

func mkName(prefix string, i int) string { return prefix + string(rune('0'+i)) }

func sortByTS(events []event.Event) []event.Event {
	out := append([]event.Event{}, events...)
	for i := 1; i < len(out); i++ {
		for j := i; j > 0 && out[j-1].TS > out[j].TS; j-- {
			out[j-1], out[j] = out[j], out[j-1]
		}
	}
	return out
}

func TestMatchFilterOperator(t *testing.T) {
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1}, []float64{5, 50}), false)
	right := env.Source("v", mkEvents(tV, 1, []int64{2}, []float64{20}), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute, Slide: event.Minute,
	})).
		FilterMatch("residual", func(es []event.Event) bool {
			return es[0].Value < es[1].Value
		}).
		Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("residual filter kept %d matches, want 1", got)
	}
	if res.Matches()[0].Events[0].Value != 5 {
		t.Fatalf("wrong match survived: %v", res.Matches()[0])
	}
}

func TestApplyCustomStage(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	apply(env.Source("src", mkEvents(tQ, 1, []int64{0, 1}, nil), false), "double", func(_ int, r *Record, out *Collector) {
		out.Emit(r)
		out.Emit(r)
	}).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Total(); got != 4 {
		t.Fatalf("custom stage emitted %d, want 4", got)
	}
}

func TestCancelledBeforeExecute(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.Source("src", mkEvents(tQ, 1, []int64{0}, nil), false).Sink("sink", res.Operator())
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := env.Execute(ctx); err == nil {
		t.Fatal("expected cancellation error")
	}
}
