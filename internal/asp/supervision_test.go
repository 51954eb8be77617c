package asp

import (
	"context"
	"errors"
	"runtime"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/chaos"
)

// Supervised-execution tests: panics in operator and source code must become
// structured OperatorFailures with full attribution, never process crashes;
// wedged instances must be named by the shutdown deadline; quarantined
// records must leave the stream through the dead-letter hook.

func TestOperatorPanicBecomesFailure(t *testing.T) {
	before := runtime.NumGoroutine()
	env := NewEnvironment(Config{})
	res := NewResults(false, true)
	src := env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2, 3}, []float64{5, 50, 7, 70}), false)
	apply(src, "map", func(_ int, r *Record, out *Collector) {
		if r.Event.Value == 50 {
			panic("bad record")
		}
		out.Emit(r)
	}).Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	var f *OperatorFailure
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *OperatorFailure", err)
	}
	if f.Node != "map" || f.Instance != 0 || f.Source {
		t.Fatalf("failure misattributed: %+v", f)
	}
	if f.Panic != "bad record" {
		t.Fatalf("Panic = %v, want the panic value", f.Panic)
	}
	if !strings.Contains(string(f.Stack), "goroutine") {
		t.Fatal("failure carries no stack trace")
	}
	if !strings.Contains(f.RecordSummary, "id=1") || !strings.Contains(f.RecordSummary, "value=50") {
		t.Fatalf("RecordSummary = %q, want the offending record", f.RecordSummary)
	}
	if f.RecordKey == "" || !strings.HasPrefix(f.RecordKey, "e:") {
		t.Fatalf("RecordKey = %q, want a stable event key", f.RecordKey)
	}
	if !f.Restartable() {
		t.Fatal("operator failures must be restartable")
	}
	goroutinesSettled(t, before)
}

func TestChaosPanicAtSource(t *testing.T) {
	before := runtime.NumGoroutine()
	inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Panic, Node: "src", Instance: 0, AtHit: 3})
	env := NewEnvironment(Config{Chaos: inj})
	res := NewResults(false, true)
	env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2, 3, 4}, nil), false).
		Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	var f *OperatorFailure
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *OperatorFailure", err)
	}
	if !f.Source || f.Node != "src" {
		t.Fatalf("failure misattributed: %+v", f)
	}
	var inj2 *chaos.Injected
	if !errors.As(asErr(f.Panic), &inj2) {
		t.Fatalf("Panic = %v, want *chaos.Injected", f.Panic)
	}
	if fires := inj.Fires(); len(fires) != 1 {
		t.Fatalf("fires = %v, want exactly one", fires)
	}
	goroutinesSettled(t, before)
}

// asErr coerces a recovered panic value into an error for errors.As.
func asErr(p any) error {
	if err, ok := p.(error); ok {
		return err
	}
	return nil
}

func TestChaosPanicFiresOnceAcrossRuns(t *testing.T) {
	// A shared injector keeps hit counters across executions, so a Times=1
	// fault does not re-fire on the rerun — the property supervised restart
	// relies on.
	inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Panic, Node: "map", Instance: 0, AtHit: 2})
	for attempt := 0; attempt < 2; attempt++ {
		env := NewEnvironment(Config{Chaos: inj})
		res := NewResults(false, true)
		apply(env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2}, nil), false), "map", forward).
			Sink("sink", res.Operator())
		err := env.Execute(context.Background())
		if attempt == 0 {
			var f *OperatorFailure
			if !errors.As(err, &f) {
				t.Fatalf("attempt 0: err = %v, want *OperatorFailure", err)
			}
			continue
		}
		if err != nil {
			t.Fatalf("attempt 1: fault re-fired: %v", err)
		}
		if res.Total() != 3 {
			t.Fatalf("attempt 1 delivered %d records, want 3", res.Total())
		}
	}
}

func TestShutdownTimeoutNamesStuckInstance(t *testing.T) {
	inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Stall, Node: "map", Instance: 0})
	env := NewEnvironment(Config{Chaos: inj, ShutdownTimeout: 50 * time.Millisecond, ChannelCapacity: 2})
	res := NewResults(false, false)
	apply(env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2, 3}, nil), false), "map", forward).
		Sink("sink", res.Operator())
	ctx, cancel := context.WithCancel(context.Background())
	go func() {
		time.Sleep(30 * time.Millisecond) // let the map instance wedge first
		cancel()
	}()
	err := env.Execute(ctx)
	var st *ErrShutdownTimeout
	if !errors.As(err, &st) {
		t.Fatalf("err = %v, want *ErrShutdownTimeout", err)
	}
	found := false
	for _, task := range st.Stuck {
		if strings.Contains(task, "map/0") {
			found = true
		}
	}
	if !found {
		t.Fatalf("Stuck = %v, want the wedged map instance", st.Stuck)
	}
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("timeout should wrap the teardown cause, got %v", err)
	}
	// Unblock the abandoned goroutine so it does not leak into other tests.
	inj.ReleaseStalls()
	goroutinesSettled(t, runtime.NumGoroutine())
}

func TestQuarantineDropsPoisonRecord(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3}, nil)
	poison := poisonKey(&Record{Kind: KindEvent, Event: events[2]})

	q := NewQuarantine()
	q.Add("map", poison)
	type drop struct {
		node string
		inst int
		key  string
	}
	var drops []drop
	q.OnDrop = func(node string, instance int, key, summary string) {
		drops = append(drops, drop{node, instance, key})
		if !strings.Contains(summary, "id=1") {
			t.Errorf("drop summary %q does not render the record", summary)
		}
	}

	env := NewEnvironment(Config{Quarantine: q})
	res := NewResults(false, true)
	apply(env.Source("src", events, false), "map", forward).
		Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Total() != 3 {
		t.Fatalf("delivered %d records, want 3 (one quarantined)", res.Total())
	}
	if len(drops) != 1 || drops[0] != (drop{"map", 0, poison}) {
		t.Fatalf("drops = %+v, want one at map/0 with the poison key", drops)
	}
}

func TestQuarantineAtSource(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3}, nil)
	poison := poisonKey(&Record{Kind: KindEvent, Event: events[1]})
	q := NewQuarantine()
	q.Add("src", poison)
	dropped := 0
	q.OnDrop = func(string, int, string, string) { dropped++ }

	env := NewEnvironment(Config{Quarantine: q})
	res := NewResults(false, true)
	env.Source("src", events, false).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if res.Total() != 3 || dropped != 1 {
		t.Fatalf("delivered %d, dropped %d; want 3 and 1", res.Total(), dropped)
	}
}

func TestChaosRecordKeyFault(t *testing.T) {
	events := mkEvents(tQ, 1, []int64{0, 1, 2, 3}, nil)
	key := poisonKey(&Record{Kind: KindEvent, Event: events[3]})
	inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Panic, Node: "map", Instance: -1, RecordKey: key})
	env := NewEnvironment(Config{Chaos: inj})
	res := NewResults(false, true)
	apply(env.Source("src", events, false), "map", forward).
		Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	var f *OperatorFailure
	if !errors.As(err, &f) {
		t.Fatalf("err = %v, want *OperatorFailure", err)
	}
	if f.RecordKey != key {
		t.Fatalf("RecordKey = %q, want %q — chaos fired on the wrong record", f.RecordKey, key)
	}
}
