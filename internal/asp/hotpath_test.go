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
)

// Record-path contract tests: what a source -> filter hop may allocate, what
// an ingest stamp means now that a full-speed source reads the clock per
// batch hand-off, and that the batch-settled node counters are exact however
// an instance exits.

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

// stampedArrival is what a recording sink saw of one event.
type stampedArrival struct {
	ingest, at int64
}

// recordingSink returns a sink operator that notes every event's ingest
// stamp and arrival time; on its first record it closes entered and then
// waits for release (nil channels skip both).
func recordingSink(got *[]stampedArrival, entered, release chan struct{}) func(int) Operator {
	return func(int) Operator {
		return &funcOperator{fn: func(_ int, r Record, _ *Collector) {
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
	events := mkEvents(tQ, 1, firstMinutes(n), nil)

	// build wires src -> stage -> sink; stage and sink count their own calls,
	// the figures NodeStats is held to. stage runs hook on every record.
	type graph struct {
		env               *Environment
		stageCalls, sinkN atomic.Int64
	}
	build := func(cfg Config, hook func(call int64)) *graph {
		cfg.BatchSize, cfg.ChannelCapacity = 8, 16
		g := &graph{env: NewEnvironment(cfg)}
		g.env.Source("src", events, false).
			Apply("stage", func(_ int, r Record, out *Collector) {
				if c := g.stageCalls.Add(1); hook != nil {
					hook(c)
				}
				out.Emit(r)
			}).
			Sink("sink", func(int) Operator {
				return &funcOperator{fn: func(int, Record, *Collector) { g.sinkN.Add(1) }}
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
	})
}

// BenchmarkSourceFilterHop measures the source -> edge -> filter hop alone:
// the filter discards all but 0.1 % of the events, or none, and records
// cross one at a time or in the default batches of 64.
func BenchmarkSourceFilterHop(b *testing.B) {
	const n = 100_000
	events := hopEvents(n)
	for _, pass := range []float64{1, 1000} {
		for _, batch := range []int{1, 64} {
			b.Run(fmt.Sprintf("pass=%g%%/batch=%d", pass/10, batch), func(b *testing.B) {
				var allocs uint64
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					env := NewEnvironment(Config{BatchSize: batch})
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
