package asp

import (
	"context"
	"errors"
	"fmt"
	"runtime"
	"sync/atomic"
	"testing"
	"time"

	"cep2asp/internal/chaos"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
)

// Record-path contract tests: what a source -> filter hop may allocate, what
// an ingest stamp means now that a full-speed source reads the clock per
// batch hand-off, that the batch-settled counters — the node's and an attached
// registry's — are exact however an instance exits and read the last batch
// boundary while it runs, that what the registry exports does not depend on
// the batch size, and how many clock reads and channel hand-offs a hop costs.

// hopEvents builds n minute-spaced events whose Value cycles 0..999, so
// "Value < k" passes k/1000 of them.
func hopEvents(n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.Event{Type: tQ, ID: int64(i % 16), TS: int64(i) * event.Minute, Value: float64(i % 1000)}
	}
	return out
}

// firstMinutes returns 0..n-1, the minute stamps mkEvents takes.
func firstMinutes(n int) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

// lateEvery is the spacing of the stale events in minutesWithLate.
const lateEvery = 100

// minutesWithLate is firstMinutes with every lateEvery-th stamp, from index
// from on, replaced by minute 1: by then every watermark a receiver merges
// has passed it, whatever the batch size, so exactly those records are late.
func minutesWithLate(n, from int) []int64 {
	out := firstMinutes(n)
	for i := from; i < n; i++ {
		if i%lateEvery == lateEvery-1 {
			out[i] = 1
		}
	}
	return out
}

// lateAmong is how many of the first k events of minutesWithLate(_, from)
// are late.
func lateAmong(k int64, from int) int64 {
	return max(k/lateEvery-int64(from/lateEvery), 0)
}

// opSnapshots indexes a registry snapshot by "node/instance".
func opSnapshots(reg *obs.Registry) map[string]obs.OperatorSnapshot {
	by := map[string]obs.OperatorSnapshot{}
	for _, o := range reg.Snapshot().Operators {
		by[fmt.Sprintf("%s/%d", o.Node, o.Instance)] = o
	}
	return by
}

// mallocsDuring returns the heap allocations made while f runs (process
// wide: callers must not run in parallel with other tests).
func mallocsDuring(f func()) uint64 {
	var m0, m1 runtime.MemStats
	runtime.ReadMemStats(&m0)
	f()
	runtime.ReadMemStats(&m1)
	return m1.Mallocs - m0.Mallocs
}

func TestSourceFilterHopDoesNotAllocatePerEvent(t *testing.T) {
	const perInstance = 100_000
	// Two source instances feed two filter instances sharing one predicate:
	// under -race this is also the proof that no evaluation state lives in
	// the shared closure.
	streams := [][]event.Event{hopEvents(perInstance), hopEvents(perInstance)}
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.ParallelSource("src", streams, true).
		FilterMatch("σ", func(es []event.Event) bool { return es[0].Value < 1 }).
		Sink("sink", res.Operator())
	allocs := mallocsDuring(func() { run(t, env) })
	if want := int64(2 * perInstance / 1000); res.Total() != want {
		t.Fatalf("sink saw %d records, want %d", res.Total(), want)
	}
	if perEvent := float64(allocs) / (2 * perInstance); perEvent > 0.1 {
		t.Fatalf("%.3f allocations per event over source -> filter -> sink (%d in all), want <= 0.1", perEvent, allocs)
	}
}

// TestEmitDoesNotAllocate: an emitted record costs one copy into the pending
// batch and nothing on the heap, through a partitioner and a fused edge
// filter alike. Both are calls through func values, so the record
// EmitEvent and EmitMatch assemble must live in the Collector: a local whose
// address reached them would be moved to the heap on every call.
func TestEmitDoesNotAllocate(t *testing.T) {
	const runs = 100
	e := &edge{
		partition: HashPartition(func(r *Record) int64 { return r.Events()[0].ID }),
		filter:    func(es []event.Event) bool { return es[0].Value >= 0 },
		chans:     []chan []Record{make(chan []Record, 1), make(chan []Record, 1)},
	}
	c := &Collector{
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: e, pending: make([][]Record, len(e.chans))}},
		done:    make(chan struct{}),
		// Every record goes to one target; its batch never fills, so no
		// hand-off happens inside the measurement.
		batch: 4 * runs,
		pool:  newBatchPool(4*runs, nil),
	}
	ev := event.Event{Type: tQ, ID: 3, TS: 5}
	r := EventRecord(ev)
	m := event.NewMatch(ev, event.Event{Type: tV, ID: 3, TS: 6})
	for _, emit := range []struct {
		name string
		fn   func()
	}{
		{"Emit", func() { c.Emit(&r) }},
		{"EmitEvent", func() { c.EmitEvent(ev) }},
		{"EmitMatch", func() { c.EmitMatch(6, m) }},
	} {
		if n := testing.AllocsPerRun(runs, emit.fn); n != 0 {
			t.Errorf("%s: %v allocations per call, want 0", emit.name, n)
		}
	}
	pending := 0
	for _, b := range c.senders[0].pending {
		pending += len(b)
	}
	if pending != 3*(runs+1) { // AllocsPerRun adds a warm-up call
		t.Fatalf("%d records pending, want %d: the filter or the partitioner lost some", pending, 3*(runs+1))
	}
}

// stampedArrival is what a recording sink saw of one event.
type stampedArrival struct {
	ingest, at int64
}

// recordingSink returns a sink operator that notes every event's ingest
// stamp and arrival time; on its first record it closes entered and then
// waits for release (nil channels skip both).
func recordingSink(got *[]stampedArrival, entered, release chan struct{}) func(int) Operator {
	return func(int) Operator {
		return &funcOperator{fn: func(_ int, r *Record, _ *Collector) {
			if entered != nil && len(*got) == 0 {
				close(entered)
				<-release
			}
			*got = append(*got, stampedArrival{ingest: r.Event.Ingest, at: time.Now().UnixNano()})
		}}
	}
}

func checkStampOrder(t *testing.T, got []stampedArrival) {
	t.Helper()
	for i, a := range got {
		if i > 0 && a.ingest < got[i-1].ingest {
			t.Fatalf("event %d: ingest stamp %d precedes its predecessor's %d", i, a.ingest, got[i-1].ingest)
		}
		if a.ingest == 0 || a.ingest > a.at {
			t.Fatalf("event %d: ingest stamp %d, arrived at the sink at %d", i, a.ingest, a.at)
		}
	}
}

func TestFullSpeedIngestStampFollowsHandOffs(t *testing.T) {
	// Batches of four hold two events and their two watermarks, the channel
	// holds one batch: with the sink held on event 0, batch 2 (events 2, 3)
	// waits in the channel and the hand-off of batch 3 (events 4, 5) blocks.
	// Event 6 is emitted after that block, two events into the source's
	// four-event stamp period — it must not reuse the stamp read before it.
	const n = 40
	env := NewEnvironment(Config{BatchSize: 4, ChannelCapacity: 4, WatermarkInterval: 1})
	var got []stampedArrival
	entered, release := make(chan struct{}), make(chan struct{})
	src := env.Source("src", mkEvents(tQ, 1, firstMinutes(n), nil), true)
	src.Sink("sink", recordingSink(&got, entered, release))
	errc := make(chan error, 1)
	go func() { errc <- env.Execute(context.Background()) }()

	<-entered
	// Two hand-offs settle four events into the source's Out counter; the
	// third cannot complete before the release. The extra yields only give
	// the source time to reach it, so that a stale stamp would be caught.
	for src.Metrics().Out.Load() < 4 {
		runtime.Gosched()
	}
	for i := 0; i < 1000; i++ {
		runtime.Gosched()
	}
	released := time.Now().UnixNano()
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("Execute: %v", err)
	}

	if len(got) != n {
		t.Fatalf("sink saw %d events, want %d", len(got), n)
	}
	checkStampOrder(t, got)
	if got[0].ingest >= released {
		t.Fatalf("event 0 stamped at %d, after the release at %d", got[0].ingest, released)
	}
	for i := 6; i < n; i++ {
		if got[i].ingest < released {
			t.Fatalf("event %d left the source after its hand-off sat blocked until %d but is stamped %d", i, released, got[i].ingest)
		}
	}
}

func TestPacedIngestStampNotBeforeDueTime(t *testing.T) {
	const (
		n    = 200
		rate = 20_000.0
	)
	env := NewEnvironment(Config{BatchSize: 8})
	var got []stampedArrival
	env.Source("src", mkEvents(tQ, 1, firstMinutes(n), nil), true).Throttle(rate).
		Sink("sink", recordingSink(&got, nil, nil))
	// The source's schedule starts no earlier than this reading.
	t0 := time.Now().UnixNano()
	run(t, env)
	if len(got) != n {
		t.Fatalf("sink saw %d events, want %d", len(got), n)
	}
	checkStampOrder(t, got)
	perEvent := float64(time.Second) / rate
	for i, a := range got {
		if due := t0 + int64(float64(i)*perEvent); a.ingest < due {
			t.Fatalf("event %d stamped %d ns before it was due", i, due-a.ingest)
		}
	}
}

func TestNodeStatsExactOnEveryExit(t *testing.T) {
	const n = 1003 // not a multiple of the batch size: EOS flushes a partial batch
	// Every hundredth event is stale, so Late has something to count.
	events := mkEvents(tQ, 1, minutesWithLate(n, 0), nil)

	// build wires src -> stage -> sink under a registry; stage and sink count
	// their own calls, the figures NodeStats and the registry are held to.
	// stage runs hook on every record.
	type graph struct {
		env               *Environment
		reg               *obs.Registry
		stageCalls, sinkN atomic.Int64
	}
	build := func(cfg Config, hook func(call int64)) *graph {
		cfg.BatchSize, cfg.ChannelCapacity = 8, 16
		cfg.Metrics = obs.NewRegistry()
		g := &graph{env: NewEnvironment(cfg), reg: cfg.Metrics}
		apply(g.env.Source("src", events, false), "stage", func(_ int, r *Record, out *Collector) {
			if c := g.stageCalls.Add(1); hook != nil {
				hook(c)
			}
			out.Emit(r)
		}).Sink("sink", func(int) Operator {
			return &funcOperator{fn: func(int, *Record, *Collector) { g.sinkN.Add(1) }}
		})
		return g
	}
	stats := func(g *graph) (src, stage, sink *NodeMetrics) {
		by := map[string]*NodeMetrics{}
		for _, m := range g.env.NodeStats() {
			by[m.Name] = m
		}
		return by["src"], by["stage"], by["sink"]
	}
	// The registry is fed by the same settle as NodeStats: on every exit it
	// holds the same In and Out, the late records among those taken in, and
	// one Proc sample per record handed to OnRecord — all of them when the
	// instance ran to its end, no more than In otherwise.
	checkRegistry := func(t *testing.T, g *graph, finished bool) {
		t.Helper()
		src, stage, sink := stats(g)
		ops := opSnapshots(g.reg)
		if got := ops["src/0"].Out; got != src.Out.Load() {
			t.Errorf("registry src Out = %d, NodeStats %d", got, src.Out.Load())
		}
		for _, c := range []struct {
			name string
			node *NodeMetrics
		}{{"stage/0", stage}, {"sink/0", sink}} {
			o, in := ops[c.name], c.node.In.Load()
			if o.In != in || o.Out != c.node.Out.Load() {
				t.Errorf("registry %s In/Out = %d/%d, NodeStats %d/%d", c.name, o.In, o.Out, in, c.node.Out.Load())
			}
			if want := lateAmong(in, 0); o.Late != want {
				t.Errorf("registry %s Late = %d, want %d of %d records", c.name, o.Late, want, in)
			}
			if o.ProcCount > in || (finished && o.ProcCount != in) {
				t.Errorf("registry %s ProcCount = %d with In = %d (finished: %v)", c.name, o.ProcCount, in, finished)
			}
		}
	}
	// An interrupted run: In is exact; Out counts the emits made before the
	// abort, so it lies between what the next node took in and the calls.
	checkInterrupted := func(t *testing.T, g *graph) {
		t.Helper()
		src, stage, sink := stats(g)
		calls, sunk := g.stageCalls.Load(), g.sinkN.Load()
		if stage.In.Load() != calls || sink.In.Load() != sunk {
			t.Fatalf("In: stage %d (called %d times), sink %d (called %d times)", stage.In.Load(), calls, sink.In.Load(), sunk)
		}
		if out := stage.Out.Load(); out < sunk || out > calls {
			t.Fatalf("stage Out = %d, want within [%d, %d]", out, sunk, calls)
		}
		if out := src.Out.Load(); out < calls || out > n {
			t.Fatalf("src Out = %d, want within [%d, %d]", out, calls, n)
		}
	}

	t.Run("normal", func(t *testing.T) {
		g := build(Config{}, nil)
		run(t, g.env)
		src, stage, sink := stats(g)
		for _, c := range []struct {
			name string
			got  int64
		}{
			{"src out", src.Out.Load()}, {"stage in", stage.In.Load()},
			{"stage out", stage.Out.Load()}, {"sink in", sink.In.Load()},
			{"stage calls", g.stageCalls.Load()}, {"sink calls", g.sinkN.Load()},
		} {
			if c.got != n {
				t.Errorf("%s = %d, want %d", c.name, c.got, n)
			}
		}
		checkRegistry(t, g, true)
	})

	t.Run("cancelled", func(t *testing.T) {
		reached, release := make(chan struct{}), make(chan struct{})
		g := build(Config{}, func(call int64) {
			if call == 100 {
				close(reached)
				<-release
			}
		})
		ctx, cancel := context.WithCancel(context.Background())
		errc := make(chan error, 1)
		go func() { errc <- g.env.Execute(ctx) }()
		<-reached
		cancel()
		close(release)
		if err := <-errc; !errors.Is(err, context.Canceled) {
			t.Fatalf("err = %v, want context.Canceled", err)
		}
		checkInterrupted(t, g)
		checkRegistry(t, g, false)
	})

	t.Run("chaos-killed", func(t *testing.T) {
		const at = 100
		inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Panic, Node: "stage", Instance: 0, AtHit: at})
		g := build(Config{Chaos: inj}, nil)
		err := g.env.Execute(context.Background())
		var f *OperatorFailure
		if !errors.As(err, &f) || f.Node != "stage" {
			t.Fatalf("err = %v, want an OperatorFailure of stage", err)
		}
		checkInterrupted(t, g)
		// The fault fires before the record is taken in: the instance dies
		// having processed, and emitted, exactly the records before it.
		_, stage, _ := stats(g)
		if in, out := stage.In.Load(), stage.Out.Load(); in != at-1 || out != at-1 {
			t.Fatalf("killed stage In/Out = %d/%d, want %d/%d", in, out, at-1, at-1)
		}
		checkRegistry(t, g, false)
	})
}

// exportedCounts is what the registry holds of one instance that may not
// depend on how its input was cut into batches.
type exportedCounts struct{ in, out, late, procCount int64 }

func TestRegistryCountsDoNotDependOnBatchSize(t *testing.T) {
	const n = 3000
	// One source instance feeds everything, so every receiver sees one
	// order; the stale events start late enough to be late on both join
	// ports at either batch size.
	minutes := minutesWithLate(n, n/3)
	events := make([]event.Event, n)
	for i, m := range minutes {
		events[i] = event.Event{Type: tQ, ID: int64(i % 4), TS: m * event.Minute, Value: float64(i % 10)}
	}
	byKey := func(r *Record) int64 { return r.Event.ID }
	runAt := func(batch int) map[string]exportedCounts {
		reg := obs.NewRegistry()
		env := NewEnvironment(Config{BatchSize: batch, Metrics: reg})
		res := NewResults(false, false)
		kept := env.Source("src", events, false).
			FilterMatch("σ", func(es []event.Event) bool { return es[0].Value >= 5 })
		kept.Connect2("join", kept, 2, byKey, byKey, NewWindowJoin(WindowJoinSpec{
			Window:    8 * event.Minute,
			Slide:     event.Minute,
			Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
		})).Sink("sink", res.Operator())
		t0 := time.Now()
		run(t, env)
		wall := time.Since(t0).Nanoseconds()

		got := map[string]exportedCounts{}
		for name, o := range opSnapshots(reg) {
			got[name] = exportedCounts{o.In, o.Out, o.Late, o.ProcCount}
			if o.ProcSum+o.WatermarkNanos > wall {
				t.Errorf("batch %d: %s spent %d ns on records and %d ns on watermarks in a run of %d ns",
					batch, name, o.ProcSum, o.WatermarkNanos, wall)
			}
		}
		if got["sink/0"].in != res.Total() || res.Total() == 0 {
			t.Fatalf("batch %d: registry sink In = %d, the sink saw %d", batch, got["sink/0"].in, res.Total())
		}
		return got
	}
	one, many := runAt(1), runAt(64)
	if len(one) != 5 || len(many) != len(one) {
		t.Fatalf("instances exported: %d and %d, want 5 (src, σ, join x 2, sink)", len(one), len(many))
	}
	for name, a := range one {
		if b := many[name]; a != b {
			t.Errorf("%s: in/out/late/procCount %+v at batch 1, %+v at batch 64", name, a, b)
		}
	}
	// The stale events all pass the filter, which counts them and hands them
	// on; each then reaches one join instance, once per port, and is dropped
	// at its input: counted in In and Late there, not in Proc.
	stale := lateAmong(n, n/3)
	if f := one["σ/0"]; f.late != stale || f.procCount != f.in {
		t.Errorf("σ: late %d of %d records, %d reached OnRecord; want %d late, all reaching", f.late, f.in, f.procCount, stale)
	}
	j0, j1 := one["join/0"], one["join/1"]
	if j0.late+j1.late != 2*stale {
		t.Errorf("join: late %d + %d, want %d", j0.late, j1.late, 2*stale)
	}
	for _, j := range []exportedCounts{j0, j1} {
		if j.procCount != j.in-j.late {
			t.Errorf("join: ProcCount = %d, want In - Late = %d", j.procCount, j.in-j.late)
		}
	}
}

// TestSnapshotWhileRunningReadsLastBatchBoundary: the shared counters settle
// once per consumed batch, so a snapshot taken while an instance sits inside
// a batch reads the end of the one before it, exactly — not the records
// already taken from the batch under way, nor nothing at all.
func TestSnapshotWhileRunningReadsLastBatchBoundary(t *testing.T) {
	const (
		batch  = 4096
		n      = 3 * batch
		holdAt = batch + 100
	)
	reg := obs.NewRegistry()
	// One watermark, after the last event: every batch carries batch events.
	env := NewEnvironment(Config{BatchSize: batch, WatermarkInterval: n, Metrics: reg})
	calls := 0
	entered, release := make(chan struct{}), make(chan struct{})
	env.Source("src", hopEvents(n), false).Sink("sink", func(int) Operator {
		return &funcOperator{fn: func(int, *Record, *Collector) {
			if calls++; calls == holdAt {
				close(entered)
				<-release
			}
		}}
	})
	errc := make(chan error, 1)
	go func() { errc <- env.Execute(context.Background()) }()

	<-entered
	o := opSnapshots(reg)["sink/0"]
	var node int64
	for _, m := range env.NodeStats() {
		if m.Name == "sink" {
			node = m.In.Load()
		}
	}
	close(release)
	if err := <-errc; err != nil {
		t.Fatalf("Execute: %v", err)
	}
	t.Logf("inside call %d of batches of %d: registry In %d, ProcCount %d; NodeMetrics.In %d", holdAt, batch, o.In, o.ProcCount, node)
	if o.In != batch || o.ProcCount != batch || node != batch {
		t.Errorf("registry In/ProcCount = %d/%d, NodeMetrics.In = %d inside call %d; want %d, the last batch boundary", o.In, o.ProcCount, node, holdAt, batch)
	}
	if in := opSnapshots(reg)["sink/0"].In; in != n {
		t.Fatalf("sink In = %d after the run, want %d", in, n)
	}
}

// stampedHop runs a full-speed, ingest-stamped source -> pass-all filter ->
// sink of n events at the default config with a registry attached, and
// returns how many distinct ingest stamps reached the sink and the
// registry's edges.
func stampedHop(t *testing.T, n int) (stamps int, edges []obs.EdgeSnapshot) {
	reg := obs.NewRegistry()
	env := NewEnvironment(Config{Metrics: reg})
	seen := map[int64]bool{}
	env.Source("src", hopEvents(n), true).
		FilterMatch("σ", func([]event.Event) bool { return true }).
		Sink("sink", func(int) Operator {
			return &funcOperator{fn: func(_ int, r *Record, _ *Collector) { seen[r.Event.Ingest] = true }}
		})
	run(t, env)
	return len(seen), reg.Snapshot().Edges
}

// defaultBatch is the batch size the count tests below expect the default
// config to mean; it is spelled out so that a changed default fails them.
const defaultBatch = 64

// TestFullSpeedSourceReadsClockPerBatch: a full-speed source reads the clock
// after each batch hand-off, not per event, so the stamps it gives out number
// about one per batch.
func TestFullSpeedSourceReadsClockPerBatch(t *testing.T) {
	const n = 20_000
	stamps, _ := stampedHop(t, n)
	t.Logf("%d events: %d distinct ingest stamps", n, stamps)
	if limit := 2 * n / defaultBatch; stamps > limit {
		t.Fatalf("%d distinct ingest stamps over %d events, want <= %d (2 per %d events)", stamps, n, limit, defaultBatch)
	}
}

// TestEdgesHandOffPerBatch: at the default config records cross every edge
// in full batches, one channel hand-off per defaultBatch records.
func TestEdgesHandOffPerBatch(t *testing.T) {
	const n = 20_000
	_, edges := stampedHop(t, n)
	if len(edges) != 2 {
		t.Fatalf("%d edges, want 2", len(edges))
	}
	for _, e := range edges {
		t.Logf("%s -> %s: %d hand-offs for %d records", e.From, e.To, e.Batches, e.Sent)
		if e.Sent < n || e.Batches*defaultBatch/2 > e.Sent {
			t.Errorf("%s -> %s: %d hand-offs for %d records, want >= %d records at <= 1 hand-off per %d", e.From, e.To, e.Batches, e.Sent, n, defaultBatch/2)
		}
	}
}

// BenchmarkSourceFilterHop measures the source -> edge -> filter hop alone:
// the filter discards all but 0.1 % of the events, or none, records cross one
// at a time or in the default batches of 64, and a metrics registry is
// attached or not.
func BenchmarkSourceFilterHop(b *testing.B) {
	const n = 100_000
	events := hopEvents(n)
	for _, pass := range []float64{1, 1000} {
		for _, batch := range []int{1, 64} {
			for _, registry := range []string{"off", "on"} {
				b.Run(fmt.Sprintf("pass=%g%%/batch=%d/registry=%s", pass/10, batch, registry), func(b *testing.B) {
					var allocs uint64
					b.ResetTimer()
					for i := 0; i < b.N; i++ {
						cfg := Config{BatchSize: batch}
						if registry == "on" {
							cfg.Metrics = obs.NewRegistry()
						}
						env := NewEnvironment(cfg)
						res := NewResults(false, false)
						env.Source("src", events, true).
							FilterMatch("σ", func(es []event.Event) bool { return es[0].Value < pass }).
							Sink("sink", res.Operator())
						allocs += mallocsDuring(func() {
							if err := env.Execute(context.Background()); err != nil {
								b.Fatal(err)
							}
						})
					}
					b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
					b.ReportMetric(float64(allocs)/float64(b.N)/n, "allocs/event")
				})
			}
		}
	}
}

// BenchmarkKeyedHop measures the source -> keyed edge -> filter hop: the
// same 0.1 % selection as BenchmarkSourceFilterHop, behind a partitioner that
// spreads the events over two filter instances, batches of 64.
func BenchmarkKeyedHop(b *testing.B) {
	const n = 100_000
	events := hopEvents(n)
	byKey := func(r *Record) int64 { return r.Event.ID }
	var allocs uint64
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		env := NewEnvironment(Config{BatchSize: 64})
		res := NewResults(false, false)
		env.Source("src", events, true).
			Process("σ", 2, byKey, func(int) Operator {
				return &filterOperator{pred: func(es []event.Event) bool { return es[0].Value < 1 }}
			}).
			Sink("sink", res.Operator())
		allocs += mallocsDuring(func() {
			if err := env.Execute(context.Background()); err != nil {
				b.Fatal(err)
			}
		})
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/n, "ns/event")
	b.ReportMetric(float64(allocs)/float64(b.N)/n, "allocs/event")
}
