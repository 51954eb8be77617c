package asp_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/cep"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// The record contract of OnRecord: r points into the inbound batch and is
// valid only for the call. Every operator that keeps records must keep
// copies. lender makes the OnRecord calls of the operator it wraps. In reuse
// mode it lends one Record variable for all of them and overwrites it with
// garbage after each. Otherwise it lends a fresh record per call. An
// operator that kept the pointer, or a view into the record such as
// Record.Events, emits something else in the first mode than in the second.

var (
	tOwnA = event.RegisterType("OwnA")
	tOwnB = event.RegisterType("OwnB")
	tOwnC = event.RegisterType("OwnC")
)

var ownGarbage = asp.Record{
	Kind: asp.KindMatch, TS: -7, Port: 1, Src: 9, TraceNs: -7,
	Event: event.Event{Type: tOwnC, ID: -7, TS: -7, Value: -7, Ingest: -7, AuxTS: -7},
	Match: event.NewMatch(event.Event{Type: tOwnC, ID: -8, TS: -8, Value: -8}),
}

type lender struct {
	inner asp.Operator
	reuse bool
	rec   asp.Record
}

func (l *lender) OnRecord(port int, r *asp.Record, out *asp.Collector) {
	if !l.reuse {
		fresh := *r
		l.inner.OnRecord(port, &fresh, out)
		return
	}
	l.rec = *r
	l.inner.OnRecord(port, &l.rec, out)
	l.rec = ownGarbage
}

func (l *lender) OnWatermark(wm event.Time, out *asp.Collector) { l.inner.OnWatermark(wm, out) }
func (l *lender) OnClose(out *asp.Collector)                    { l.inner.OnClose(out) }

// ownStream is n events of one type, a minute apart with every fourth one
// sharing its predecessor's timestamp, over four keys.
func ownStream(rng *rand.Rand, typ event.Type, n int) []event.Event {
	out := make([]event.Event, n)
	ts := event.Time(rng.Intn(3))
	for i := range out {
		if i%4 != 3 {
			ts += event.Minute * event.Time(1+rng.Intn(2))
		}
		out[i] = event.Event{Type: typ, ID: int64(rng.Intn(4)), TS: ts, Value: float64(rng.Intn(100))}
	}
	return out
}

// renderMatch spells out everything a kept copy must preserve.
func renderMatch(m *event.Match) string {
	s := fmt.Sprintf("[%d,%d]", m.TsB, m.TsE)
	for _, e := range m.Events {
		s += fmt.Sprintf(" %d/%d/%d/%g/%d", e.Type, e.ID, e.TS, e.Value, e.AuxTS)
	}
	return s
}

func TestOperatorsKeepCopiesOfLentRecords(t *testing.T) {
	const n = 240
	byKey := func(r *asp.Record) int64 { return r.Events()[0].ID }
	window := 5 * event.Minute
	pat, err := sea.Parse(`PATTERN SEQ(OwnA a, OwnB b) WHERE a.value < b.value WITHIN 5 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	prog, err := cep.Compile(pat, nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	nfaOp, err := cep.NewOperator(prog)
	if err != nil {
		t.Fatal(err)
	}
	type lend func(func(int) asp.Operator) func(int) asp.Operator
	// Each case's operators take matches, events or both; every case ends in
	// a lent Results sink with Keep.
	cases := map[string]func(a, b, c *asp.Stream, lent lend) *asp.Stream{
		"interval join, twice": func(a, b, c *asp.Stream, lent lend) *asp.Stream {
			pred := func(l, r []event.Event) bool { return l[0].Value < r[0].Value }
			ab := a.Connect2("⋈i ab", b, 2, byKey, byKey, lent(asp.NewIntervalJoin(asp.IntervalJoinSpec{
				Lower: 0, Upper: window, LeftKey: byKey, RightKey: byKey, Predicate: pred,
			})))
			return ab.Connect2("⋈i abc", c, 2, byKey, byKey, lent(asp.NewIntervalJoin(asp.IntervalJoinSpec{
				Lower: -window, Upper: window, LeftKey: byKey, RightKey: byKey, Predicate: pred,
			})))
		},
		"window join": func(a, b, c *asp.Stream, lent lend) *asp.Stream {
			return a.Connect2("⋈w", b, 2, byKey, byKey, lent(asp.NewWindowJoin(asp.WindowJoinSpec{
				Window: window, Slide: event.Minute, LeftKey: byKey, RightKey: byKey,
				Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
			})))
		},
		"NSEQ": func(a, b, c *asp.Stream, lent lend) *asp.Stream {
			return a.Union("∪", b).Process("nseq", 2, byKey, lent(asp.NewNextOccurrence(asp.NextOccurrenceSpec{
				T1: tOwnA, T2: tOwnB, Window: window, Key: byKey,
			})))
		},
		"window aggregate": func(a, b, c *asp.Stream, lent lend) *asp.Stream {
			return a.Process("γ", 2, byKey, lent(asp.NewWindowAggregate(asp.WindowAggregateSpec{
				Window: window, Slide: event.Minute, Key: byKey, MinCount: 2,
			})))
		},
		"NFA operator": func(a, b, c *asp.Stream, lent lend) *asp.Stream {
			return a.Union("∪", b).Process("nfa", 1, nil, lent(nfaOp))
		},
	}
	rng := rand.New(rand.NewSource(5))
	as, bs, cs := ownStream(rng, tOwnA, n), ownStream(rng, tOwnB, n), ownStream(rng, tOwnC, n)
	for name, build := range cases {
		run := func(reuse bool) []string {
			lent := func(newOp func(int) asp.Operator) func(int) asp.Operator {
				return func(i int) asp.Operator { return &lender{inner: newOp(i), reuse: reuse} }
			}
			env := asp.NewEnvironment(asp.Config{WatermarkInterval: 4})
			res := asp.NewResults(false, true)
			out := build(env.Source("a", as, false), env.Source("b", bs, false), env.Source("c", cs, false), lent)
			out.Sink("sink", lent(res.Operator()))
			if err := env.Execute(context.Background()); err != nil {
				t.Fatalf("%s: %v", name, err)
			}
			got := make([]string, 0, len(res.Matches()))
			for _, m := range res.Matches() {
				got = append(got, renderMatch(m))
			}
			slices.Sort(got)
			return got
		}
		fresh, reused := run(false), run(true)
		if len(fresh) == 0 {
			t.Fatalf("%s: no output: the case tests nothing", name)
		}
		if !slices.Equal(fresh, reused) {
			i := 0
			for i < min(len(fresh), len(reused)) && fresh[i] == reused[i] {
				i++
			}
			t.Errorf("%s: %d outputs with a fresh record per call, %d with one reused record; first difference at %d",
				name, len(fresh), len(reused), i)
		}
	}
}
