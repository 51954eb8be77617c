package asp

import (
	"sort"
	"testing"
	"time"

	"cep2asp/internal/event"
)

func TestFilterFusedEquivalentToFilterNode(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4, 5}, []float64{5, 50, 7, 70, 9, 90})
	pred := func(es []event.Event) bool { return es[0].Value >= 10 }

	viaNode := NewResults(false, true)
	env1 := NewEnvironment(Config{})
	env1.Source("src", events, false).FilterMatch("f", pred).Sink("sink", viaNode.Operator())
	run(t, env1)

	viaEdge := NewResults(false, true)
	env2 := NewEnvironment(Config{})
	env2.Source("src", events, false).FilterFused(pred).Sink("sink", viaEdge.Operator())
	run(t, env2)

	if viaNode.Total() != viaEdge.Total() {
		t.Fatalf("fused filter delivered %d, node filter %d", viaEdge.Total(), viaNode.Total())
	}
	if viaEdge.Total() != 3 {
		t.Fatalf("fused filter delivered %d, want 3", viaEdge.Total())
	}
}

func TestFilterFusedComposes(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3}, []float64{5, 15, 25, 35})
	res := NewResults(false, true)
	env := NewEnvironment(Config{})
	env.Source("src", events, false).
		FilterFused(func(es []event.Event) bool { return es[0].Value >= 10 }).
		FilterFused(func(es []event.Event) bool { return es[0].Value <= 30 }).
		Sink("sink", res.Operator())
	run(t, env)
	if res.Total() != 2 { // 15 and 25
		t.Fatalf("composed fused filters delivered %d, want 2", res.Total())
	}
}

func TestFilterFusedPassesWatermarksAndMatches(t *testing.T) {
	// Fused filters must only drop events, never watermarks — a join fed
	// through a fused edge still fires its windows.
	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1}, []float64{1, 99}), false).
		FilterFused(func(es []event.Event) bool { return es[0].Value > 50 })
	right := env.Source("v", mkEvents(tV, 1, []int64{2}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("fused-edge join found %d matches, want 1", got)
	}
}

func TestThrottleSlowsSource(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4, 5, 6, 7, 8, 9}, nil)
	res := NewResults(false, false)
	env := NewEnvironment(Config{})
	env.Source("src", events, false).Throttle(100). // 100 events/s -> >= ~90ms
							Sink("sink", res.Operator())
	start := time.Now()
	run(t, env)
	if elapsed := time.Since(start); elapsed < 80*time.Millisecond {
		t.Fatalf("throttled run finished in %v, expected >= ~90ms", elapsed)
	}
	if res.Total() != 10 {
		t.Fatalf("throttling lost records: %d", res.Total())
	}
}

func TestSourceOutOfOrderDeliversAll(t *testing.T) {
	// Bounded disorder: events swapped within 2 minutes; the lateness
	// bound makes the windows wait, so the join still finds its match.
	events := []event.Event{
		{Type: tQ, ID: 1, TS: 2 * event.Minute, Value: 1},
		{Type: tQ, ID: 1, TS: 0, Value: 2}, // late by 2 minutes
		{Type: tQ, ID: 1, TS: 3 * event.Minute, Value: 3},
		{Type: tQ, ID: 1, TS: 1 * event.Minute, Value: 4}, // late by 2 minutes
	}
	rights := mkEvents(tV, 1, []int64{4}, nil)
	res := NewResults(true, true)
	env := NewEnvironment(Config{WatermarkInterval: 1})
	left := env.SourceOutOfOrder("q", events, false, 2*event.Minute)
	right := env.Source("v", rights, false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 10 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	// All four q events pair with v@4.
	if got := res.Unique(); got != 4 {
		t.Fatalf("out-of-order join found %d matches, want 4", got)
	}
	// Constituent order inside matches is canonical regardless of arrival.
	keys := res.Keys()
	sort.Strings(keys)
	if len(keys) != 4 {
		t.Fatalf("keys = %v", keys)
	}
}

func TestSourceOutOfOrderNFAOrdering(t *testing.T) {
	// The CEP operator's event-time buffer must also absorb disorder; the
	// funcOperator here asserts the engine's watermark discipline by
	// checking monotonicity of delivered watermark-passed batches.
	events := []event.Event{
		{Type: tQ, ID: 1, TS: 3 * event.Minute},
		{Type: tQ, ID: 1, TS: 1 * event.Minute},
		{Type: tQ, ID: 1, TS: 4 * event.Minute},
		{Type: tQ, ID: 1, TS: 2 * event.Minute},
	}
	var wms []event.Time
	res := NewResults(false, false)
	env := NewEnvironment(Config{WatermarkInterval: 1})
	apply(env.SourceOutOfOrder("q", events, false, 2*event.Minute), "probe", forward).
		Sink("sink", res.Operator())
	run(t, env)
	for i := 1; i < len(wms); i++ {
		if wms[i] < wms[i-1] {
			t.Fatal("watermarks regressed")
		}
	}
	if res.Total() != 4 {
		t.Fatalf("delivered %d, want 4", res.Total())
	}
}
