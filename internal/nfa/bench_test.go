package nfa_test

import (
	"runtime"
	"testing"

	"cep2asp/internal/cep"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// iter4 compiles the benchmark's iter_nfa program (Fig. 4 ITER4, keyed by
// sensor id) and generates its stream: 128 sensors' velocity readings.
func iter4(tb testing.TB) (*nfa.Program, []event.Event) {
	pat, err := sea.Parse(`PATTERN ITER(QnVVelocity v, 4)
		WHERE v.value <= 1.6 AND v[i].id == v[i+1].id
		WITHIN 90 MINUTES SLIDE 1 MINUTE`)
	if err != nil {
		tb.Fatal(err)
	}
	prog, err := cep.Compile(pat, nfa.SkipTillAnyMatch, func(e event.Event) int64 { return e.ID })
	if err != nil {
		tb.Fatal(err)
	}
	_, events := workload.QnV(workload.QnVConfig{Sensors: 128, Minutes: 2000, Seed: 1})
	return prog, events
}

// stepITER4 feeds the stream to a fresh machine with a watermark every 64
// events, the engine's default cadence.
func stepITER4(tb testing.TB, prog *nfa.Program, events []event.Event, emit nfa.Emit) *nfa.Machine {
	m, err := nfa.NewMachine(prog)
	if err != nil {
		tb.Fatal(err)
	}
	for j, e := range events {
		m.OnEvent(e, emit)
		if (j+1)%64 == 0 {
			m.OnWatermark(e.TS-1, emit)
		}
	}
	return m
}

// BenchmarkMachineITER4 steps the iter_nfa program over its stream. 98.4 %
// of the events fail every stage's accept (v.value <= 1.6) and cost one
// predicate call; TestITER4PredicateCallsPerEvent counts its calls and
// allocations.
func BenchmarkMachineITER4(b *testing.B) {
	prog, events := iter4(b)
	matches := 0
	emit := func(*event.Match) { matches++ }
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		stepITER4(b, prog, events, emit)
	}
	if matches == 0 {
		b.Fatal("no matches: the workload is inert")
	}
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
}

// TestITER4PredicateCallsPerEvent counts the work BenchmarkMachineITER4
// times: every Accept and Pred of the program is wrapped in a counter. The
// iteration's four stages share one accept, so an event costs one call,
// plus one adjacency check per live partial it could extend; an event that
// no stage accepts never reaches the key function; and the automaton
// allocates for new partials and key groups only, not per event.
func TestITER4PredicateCallsPerEvent(t *testing.T) {
	prog, events := iter4(t)
	calls, keys := 0, 0
	count := func(p nfa.StagePred) nfa.StagePred {
		if p == nil {
			return nil
		}
		return func(es []event.Event) bool { calls++; return p(es) }
	}
	counted := *prog
	counted.Stages = append([]nfa.Stage(nil), prog.Stages...)
	for k := range counted.Stages {
		counted.Stages[k].Accept = count(counted.Stages[k].Accept)
		counted.Stages[k].Pred = count(counted.Stages[k].Pred)
	}
	counted.Key = func(e event.Event) int64 { keys++; return prog.Key(e) }

	matches := 0
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	m := stepITER4(t, &counted, events, func(*event.Match) { matches++ })
	runtime.ReadMemStats(&after)
	perEvent := float64(calls) / float64(len(events))
	mallocs := float64(after.Mallocs-before.Mallocs) / float64(len(events))
	t.Logf("%d events: %.3f predicate calls and %.3f mallocs per event, %d matches", len(events), perEvent, mallocs, matches)
	if perEvent > 1.1 || mallocs > 0.25 || matches != 1902 {
		t.Fatalf("%.3f predicate calls and %.3f mallocs per event, %d matches; want <= 1.1, <= 0.25 and 1902", perEvent, mallocs, matches)
	}

	rejected := events[len(events)-1]
	rejected.ID, rejected.Value = 1<<40, 99 // a fresh key, failing v.value <= 1.6
	keys = 0
	m.OnEvent(rejected, func(*event.Match) {})
	if keys != 0 {
		t.Fatalf("a rejected event of a fresh key called Program.Key %d times, want 0", keys)
	}
}
