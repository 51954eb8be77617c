package asp

import (
	"slices"
	"sort"
	"testing"
	"time"

	"cep2asp/internal/event"
	"cep2asp/internal/obs"
)

// A selection runs in the producing instance, on its out-edges: these three
// tests keep the names of the fused-filter tests it replaced.

func atLeast10(es []event.Event) bool {
	for _, e := range es {
		if e.Value < 10 {
			return false
		}
	}
	return true
}

// TestFilterFusedEquivalentToFilterNode: a selection delivers what the
// same predicate run as an operator stage delivers.
func TestFilterFusedEquivalentToFilterNode(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4, 5}, []float64{5, 50, 7, 70, 9, 90})

	viaNode := NewResults(false, true)
	env1 := NewEnvironment(Config{})
	apply(env1.Source("src", events, false), "f", func(_ int, r *Record, out *Collector) {
		if atLeast10(r.Events()) {
			out.Emit(r)
		}
	}).Sink("sink", viaNode.Operator())
	run(t, env1)

	viaEdge := NewResults(false, true)
	env2 := NewEnvironment(Config{})
	env2.Source("src", events, false).FilterMatch("f", atLeast10).Sink("sink", viaEdge.Operator())
	run(t, env2)

	if viaNode.Total() != viaEdge.Total() {
		t.Fatalf("selection delivered %d, operator stage %d", viaEdge.Total(), viaNode.Total())
	}
	if viaEdge.Total() != 3 {
		t.Fatalf("selection delivered %d, want 3", viaEdge.Total())
	}
}

// TestFilterFusedComposes: σ1 then σ2 both run on the source's edges; each
// counts a record once however many edges it feeds, in NodeStats and in
// the registry.
func TestFilterFusedComposes(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4, 5}, []float64{5, 50, 7, 70, 9, 90})
	reg := obs.NewRegistry()
	env := NewEnvironment(Config{Metrics: reg})
	kept := env.Source("src", events, false).
		FilterMatch("σ1", atLeast10).
		Filter("σ2", func(e event.Event) bool { return e.Value <= 80 })
	a, b := NewResults(false, false), NewResults(false, false)
	kept.Sink("a", a.Operator())
	kept.Sink("b", b.Operator())
	run(t, env)
	if a.Total() != 2 || b.Total() != 2 { // 50 and 70
		t.Fatalf("consumers saw %d and %d records, want 2 each", a.Total(), b.Total())
	}
	ops := opSnapshots(reg)
	for _, c := range []struct {
		name    string
		in, out int64
	}{{"σ1", 6, 3}, {"σ2", 3, 2}} {
		var m *NodeMetrics
		for _, s := range env.NodeStats() {
			if s.Name == c.name {
				m = s
			}
		}
		if m == nil || m.In.Load() != c.in || m.Out.Load() != c.out {
			t.Errorf("%s: NodeStats %v, want in/out %d/%d", c.name, m, c.in, c.out)
		}
		if o := ops[c.name+"/0"]; o.In != c.in || o.Out != c.out {
			t.Errorf("%s: registry in/out %d/%d, want %d/%d", c.name, o.In, o.Out, c.in, c.out)
		}
	}
}

// TestFilterFusedPassesWatermarksAndMatches: a selection tests every data
// record, single event or match, drops the ones it rejects before they are
// copied into a batch, and lets every watermark, barrier and EOS through,
// so a join fed through it still finds its matches.
func TestFilterFusedPassesWatermarksAndMatches(t *testing.T) {
	e := &edge{partition: SinglePartition(), chans: []chan []Record{make(chan []Record, 4)}}
	sel := &selTest{selection: &selection{pred: atLeast10, metrics: &NodeMetrics{}}}
	c := &Collector{
		metrics: &NodeMetrics{},
		sels:    []*selTest{sel},
		senders: []edgeSender{{e: e, sel: sel, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		lastWM:  event.MinWatermark,
		batch:   DefaultBatchSize,
		pool:    newBatchPool(DefaultBatchSize, nil),
	}
	q := func(v float64) event.Event { return event.Event{Type: tQ, ID: 1, Value: v} }
	c.EmitEvent(q(5))
	c.EmitEvent(q(50))
	c.forwardWatermark(3)
	c.EmitMatch(4, event.NewMatch(q(5), q(70)))
	c.EmitMatch(5, event.NewMatch(q(20), q(70)))
	c.forwardBarrier(1)
	c.eos()
	var kinds []RecordKind
	for len(e.chans[0]) > 0 {
		for _, r := range <-e.chans[0] {
			kinds = append(kinds, r.Kind)
		}
	}
	want := []RecordKind{KindEvent, KindWatermark, KindMatch, KindBarrier, KindEOS}
	if !slices.Equal(kinds, want) {
		t.Fatalf("the edge carried %v, want %v", kinds, want)
	}
	// The barrier's and the EOS's hand-offs settled the counts.
	if in, out := sel.metrics.In.Load(), sel.metrics.Out.Load(); in != 4 || out != 2 {
		t.Fatalf("selection in/out = %d/%d, want 4/2", in, out)
	}

	env := NewEnvironment(Config{WatermarkInterval: 1})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, []int64{0, 1}, []float64{1, 99}), false).
		FilterMatch("σ", func(es []event.Event) bool { return es[0].Value > 50 })
	right := env.Source("v", mkEvents(tV, 1, []int64{2}, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
	})).Sink("sink", res.Operator())
	run(t, env)
	if got := res.Unique(); got != 1 {
		t.Fatalf("join behind a selection found %d matches, want 1", got)
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
