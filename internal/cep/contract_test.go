package cep

import (
	"bytes"
	"context"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
)

// Contract tests for the operator around the automaton: what the reorder
// buffer costs, that neither it nor the watermark cadence shows in the match
// set, that a snapshot's buffer restores whatever order it was saved in,
// that testing single-alias conjuncts on the event alone changes no match,
// and that shedding the reorder buffer never fabricates one.

// interleave merges n time-ordered sources the way a union delivers them:
// batch records of one source, then batch of the next.
func interleave(sources, perSource, batch int) []event.Event {
	var out []event.Event
	for at := 0; at < perSource; at += batch {
		for s := 0; s < sources; s++ {
			for i := at; i < at+batch && i < perSource; i++ {
				out = append(out, event.Event{ID: int64(s), TS: event.Time(i)})
			}
		}
	}
	return out
}

// reorder pushes the events and, after every round of batches, pops what a
// watermark at the slowest source's last timestamp releases.
func reorder(h *eventHeap, events []event.Event, sources, batch int, pop func(event.Event)) {
	for i, e := range events {
		h.push(e)
		if (i+1)%(sources*batch) == 0 {
			for len(*h) > 0 && (*h)[0].TS <= e.TS {
				pop(h.pop())
			}
		}
	}
}

func TestReorderBufferOrderAndAllocs(t *testing.T) {
	const sources, perSource, batch = 3, 640, 64
	events := interleave(sources, perSource, batch)
	var h eventHeap
	last := event.Time(-1)
	popped := 0
	check := func(e event.Event) {
		if e.TS < last {
			t.Fatalf("popped %d after %d", e.TS, last)
		}
		last = e.TS
		popped++
	}
	reorder(&h, events, sources, batch, check)
	if popped != len(events) || len(h) != 0 {
		t.Fatalf("popped %d of %d events, %d left", popped, len(events), len(h))
	}
	// The slice has grown to its working size: pushes and pops only move
	// events inside it from here on.
	if n := testing.AllocsPerRun(10, func() { reorder(&h, events, sources, batch, func(event.Event) {}) }); n != 0 {
		t.Errorf("push + pop of %d events: %v allocs, want 0", len(events), n)
	}
}

// TestOracleEquivalenceAnyCadence: two sources per type, so equal
// timestamps meet in the reorder buffer in whatever order the union
// delivers them — under skip-till-any-match neither that nor the watermark
// cadence may show: every run equals the formal semantics.
func TestOracleEquivalenceAnyCadence(t *testing.T) {
	byID := func(e event.Event) int64 { return e.ID }
	cases := []struct {
		name string
		psl  string
		key  func(event.Event) int64
	}{
		{"seq", `PATTERN SEQ(OEA a, OEB b, OEB c) WHERE a.value <= c.value
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, nil},
		{"seq/keyed", `PATTERN SEQ(OEA a, OEB b, OEB c) WHERE a.id == b.id AND b.id == c.id AND a.value <= c.value
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, byID},
		{"nseq", `PATTERN SEQ(OEA a, !OEX x, OEB b) WHERE x.value > 40
			WITHIN 8 MINUTES SLIDE 1 MINUTE`, nil},
		{"nseq/keyed", `PATTERN SEQ(OEA a, !OEX x, OEB b) WHERE a.id == b.id AND x.id == a.id AND x.value > 40
			WITHIN 8 MINUTES SLIDE 1 MINUTE`, byID},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			pat := mustPattern(t, c.psl)
			total := 0
			for trial := 0; trial < 8; trial++ {
				rng := rand.New(rand.NewSource(int64(900 + trial)))
				streams := map[string][]event.Event{}
				var all []event.Event
				for _, name := range []string{"OEA", "OEB", "OEX"} {
					typ, _ := event.LookupType(name)
					for id := int64(1); id <= 2; id++ {
						s := genStream(rng, typ, 40, 60)
						for i := range s {
							s[i].ID = id
						}
						streams[fmt.Sprintf("%s%d", name, id)] = s
						all = append(all, s...)
					}
				}
				want := sortedKeys(sea.Evaluate(pat, all))
				total += len(want)
				for _, interval := range []int{1, 64, 1 << 20} {
					got := sortedKeys(runFCEPAt(t, pat, c.key, interval, streams))
					if !equalKeySets(want, got) {
						t.Fatalf("trial %d, watermark every %d: fcep %d matches, oracle %d", trial, interval, len(got), len(want))
					}
				}
			}
			if total == 0 {
				t.Fatal("the oracle found no match on any trial; the streams are inert")
			}
		})
	}
}

// TestRestoreBufferAnyOrder: the snapshot holds the buffer as a plain
// slice, in heap order when this operator wrote it — but a restore must not
// depend on that.
func TestRestoreBufferAnyOrder(t *testing.T) {
	prog, err := Compile(mustPattern(t, `PATTERN SEQ(CA a, CB b) WITHIN 10 MIN`), nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	ta, _ := event.LookupType("CA")
	tb, _ := event.LookupType("CB")
	rng := rand.New(rand.NewSource(4))
	sorted := append(genStream(rng, ta, 60, 200), genStream(rng, tb, 60, 200)...)
	sort.SliceStable(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })

	var heaped eventHeap
	for _, e := range sorted {
		heaped.push(e)
	}
	shuffled := append([]event.Event(nil), sorted...)
	rng.Shuffle(len(shuffled), func(i, j int) { shuffled[i], shuffled[j] = shuffled[j], shuffled[i] })

	drain := func(buffer []event.Event) (order []event.Time, matches []string) {
		m, err := nfa.NewMachine(prog)
		if err != nil {
			t.Fatal(err)
		}
		ms, err := m.Snapshot()
		if err != nil {
			t.Fatal(err)
		}
		var data bytes.Buffer
		if err := gob.NewEncoder(&data).Encode(cepOpState{Buffer: buffer, Machine: ms}); err != nil {
			t.Fatal(err)
		}
		mk, err := NewOperator(prog)
		if err != nil {
			t.Fatal(err)
		}
		o := mk(0).(*cepOperator)
		if err := o.RestoreState(data.Bytes()); err != nil {
			t.Fatal(err)
		}
		if got := o.BufferedState(); got != int64(len(buffer)) {
			t.Fatalf("BufferedState = %d after restore, want %d", got, len(buffer))
		}
		var out []*event.Match
		emit := func(ma *event.Match) { out = append(out, ma) }
		for len(o.buffer) > 0 {
			e := o.buffer.pop()
			order = append(order, e.TS)
			o.machine.OnEvent(e, emit)
		}
		return order, sortedKeys(out)
	}

	wantOrder, wantMatches := drain(sorted)
	if !sort.SliceIsSorted(wantOrder, func(i, j int) bool { return wantOrder[i] < wantOrder[j] }) || len(wantMatches) == 0 {
		t.Fatalf("sorted buffer drained out of order or found no match (%d matches)", len(wantMatches))
	}
	for name, buffer := range map[string][]event.Event{"heap": heaped, "shuffled": shuffled} {
		order, matches := drain(buffer)
		if !slices.Equal(order, wantOrder) || !slices.Equal(matches, wantMatches) {
			t.Errorf("%s-ordered buffer drained %d events into %d matches, the sorted one %d into %d",
				name, len(order), len(matches), len(wantOrder), len(wantMatches))
		}
	}
}

// reorderSink keeps the benchmark's pops observable.
var reorderSink event.Time

// BenchmarkCEPOperatorReorder times the reorder buffer as OnRecord and
// OnWatermark drive it: batches of 64 records per source, released once
// every source has delivered its batch.
func BenchmarkCEPOperatorReorder(b *testing.B) {
	for _, sources := range []int{1, 3} {
		b.Run(fmt.Sprintf("sources=%d", sources), func(b *testing.B) {
			const perSource, batch = 6400, 64
			events := interleave(sources, perSource, batch)
			var h eventHeap
			pop := func(e event.Event) { reorderSink += e.TS }
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reorder(&h, events, sources, batch, pop)
			}
			b.StopTimer()
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N*len(events)), "ns/event")
		})
	}
}

// acceptSoup is a seeded stream of n events over the named types (a name
// listed twice is drawn twice as often), keys 1-2 and minute timestamps
// drawn with replacement, so equal timestamps of two types or two keys sit
// side by side. No two events share type, key and timestamp: a match key
// could not tell them apart.
func acceptSoup(seed int64, n int, names ...string) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	type slot struct {
		typ event.Type
		id  int64
		ts  event.Time
	}
	used := map[slot]bool{}
	var out []event.Event
	for len(out) < n {
		sl := slot{event.RegisterType(names[rng.Intn(len(names))]), 1 + rng.Int63n(2), rng.Int63n(int64(n/2)) * event.Minute}
		if used[sl] {
			continue
		}
		used[sl] = true
		out = append(out, event.Event{Type: sl.typ, ID: sl.id, TS: sl.ts, Value: float64(rng.Intn(100))})
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// foldAccepts returns a copy of prog whose stages test their Accept as the
// first conjunct of their Pred, on the candidate's last event: the program
// as it was before accepts were hoisted out of the candidate.
func foldAccepts(prog *nfa.Program) *nfa.Program {
	ref := *prog
	ref.Stages = slices.Clone(prog.Stages)
	for k := range ref.Stages {
		acc, pred := ref.Stages[k].Accept, ref.Stages[k].Pred
		if acc == nil {
			continue
		}
		ref.Stages[k].Accept = nil
		ref.Stages[k].Pred = func(es []event.Event) bool {
			return acc(es[len(es)-1:]) && (pred == nil || pred(es))
		}
	}
	return &ref
}

// stepMachine feeds the time-ordered events to a fresh machine with a
// watermark after every cadence events and returns the sorted match keys.
func stepMachine(t *testing.T, prog *nfa.Program, events []event.Event, cadence int) []string {
	t.Helper()
	m, err := nfa.NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	for i, e := range events {
		m.OnEvent(e, emit)
		if (i+1)%cadence == 0 {
			m.OnWatermark(e.TS-1, emit) // ties of e may follow
		}
	}
	m.OnWatermark(event.MaxWatermark, emit)
	return sortedKeys(out)
}

// TestAcceptPreservesMatchSets: hoisting single-alias conjuncts into
// Stage.Accept is invisible. Under every policy, keyed and unkeyed, at
// watermark cadences 1 and 64, the compiled program emits the match
// multiset of the same program with each accept folded back into its stage
// predicate, and under skip-till-any-match also the formal semantics'. The
// streams put events that fail a filter between the constituents of live
// partials, which strict contiguity must still see.
func TestAcceptPreservesMatchSets(t *testing.T) {
	byID := func(e event.Event) int64 { return e.ID }
	patterns := []struct {
		name, psl string
		types     []string
	}{
		{"seq", `PATTERN SEQ(OEA a, OEB b, OEB c)
			WHERE a.value < 60 AND c.value >= 20 AND a.id == b.id AND b.id == c.id AND a.value <= c.value
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, []string{"OEA", "OEB", "OEB"}},
		{"iter3", `PATTERN ITER(OEV v, 3) WHERE v.value <= 70 AND v[i].id == v[i+1].id
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, []string{"OEV", "OEV", "OEV", "OEA"}},
		{"iter4", `PATTERN ITER(OEV v, 4) WHERE v.value <= 80 AND v[i].id == v[i+1].id
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, []string{"OEV", "OEV", "OEV", "OEA"}},
		{"nseq", `PATTERN SEQ(OEA a, !OEX x, OEB b)
			WHERE b.value < 70 AND x.value > 40 AND a.id == b.id AND x.id == a.id
			WITHIN 6 MINUTES SLIDE 1 MINUTE`, []string{"OEA", "OEB", "OEX"}},
	}
	for _, pc := range patterns {
		pat := mustPattern(t, pc.psl)
		for _, policy := range []nfa.Policy{nfa.SkipTillAnyMatch, nfa.SkipTillNextMatch, nfa.StrictContiguity} {
			for _, keyed := range []bool{false, true} {
				t.Run(fmt.Sprintf("%s/%s/keyed=%v", pc.name, policy, keyed), func(t *testing.T) {
					var key func(event.Event) int64
					if keyed {
						key = byID
					}
					prog, err := Compile(pat, policy, key)
					if err != nil {
						t.Fatal(err)
					}
					if !slices.ContainsFunc(prog.Stages, func(s nfa.Stage) bool { return s.Accept != nil }) {
						t.Fatal("no stage has an accept: the test compares a program with itself")
					}
					ref := foldAccepts(prog)
					total := 0
					for seed := int64(1); seed <= 6; seed++ {
						events := acceptSoup(seed, 160, pc.types...)
						var oracle []string
						if policy == nfa.SkipTillAnyMatch {
							oracle = sortedKeys(sea.Evaluate(pat, events))
						}
						for _, cadence := range []int{1, 64} {
							got := stepMachine(t, prog, events, cadence)
							want := stepMachine(t, ref, events, cadence)
							if !slices.Equal(got, want) {
								t.Fatalf("seed %d, cadence %d: %d matches, %d with the accepts folded into the stage predicates",
									seed, cadence, len(got), len(want))
							}
							if oracle != nil && !slices.Equal(got, oracle) {
								t.Fatalf("seed %d, cadence %d: %d matches, the formal semantics %d", seed, cadence, len(got), len(oracle))
							}
							total += len(got)
						}
					}
					if total == 0 {
						t.Fatal("no matches on any seed; the streams are inert")
					}
				})
			}
		}
	}
}

// TestShedBufferKeepsSubset replays one out-of-order source into the
// operator under a per-operator budget of 5 that drains to 2. A burst of
// another key fills the reorder buffer while b@5 waits in it; the shed drops
// b@5 before a@3 arrives, so a@3 and b@7 reach the automaton without the
// event between them. Under skip-till-any-match that only loses matches;
// under strict contiguity and skip-till-next-match b@5 consumes a@3's
// partial, so (a@3, b@7) is not a match of the full input, and dropping b@5
// would fabricate it. The shed run must emit a subset of the unshed run.
func TestShedBufferKeepsSubset(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(CA a, CB b) WITHIN 10 MINUTES`)
	ta, tb, tz := event.RegisterType("CA"), event.RegisterType("CB"), event.RegisterType("CZ")
	at := func(typ event.Type, id, minute int64) event.Event {
		return event.Event{Type: typ, ID: id, TS: minute * event.Minute}
	}
	events := []event.Event{
		at(tb, 1, 5), at(tz, 2, 6), at(tz, 2, 6), at(tz, 2, 6), at(tz, 2, 6),
		at(ta, 1, 3), at(tb, 1, 7),
	}
	run := func(t *testing.T, policy nfa.Policy, budget int64) (map[string]bool, *asp.Environment) {
		prog, err := Compile(pat, policy, func(e event.Event) int64 { return e.ID })
		if err != nil {
			t.Fatal(err)
		}
		op, err := NewOperator(prog)
		if err != nil {
			t.Fatal(err)
		}
		cfg := asp.Config{WatermarkInterval: 1}
		if budget > 0 {
			cfg.Overload = overload.Spec{
				Budget: overload.Budget{PerOperator: budget, LowWater: 0.5},
				Policy: overload.Shed,
			}
		}
		env := asp.NewEnvironment(cfg)
		res := asp.NewResults(true, true)
		env.SourceOutOfOrder("src", events, false, 3*event.Minute).
			Process("fcep", 1, nil, op).Sink("sink", res.Operator())
		if err := env.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		set := map[string]bool{}
		for _, m := range res.Matches() {
			set[m.Key()] = true
		}
		return set, env
	}
	for _, policy := range []nfa.Policy{nfa.SkipTillAnyMatch, nfa.SkipTillNextMatch, nfa.StrictContiguity} {
		t.Run(policy.String(), func(t *testing.T) {
			full, _ := run(t, policy, 0)
			shed, env := run(t, policy, 5)
			for k := range shed {
				if !full[k] {
					t.Fatalf("the shed run emitted %s, which the unshed run (%d matches) does not", k, len(full))
				}
			}
			if policy == nfa.SkipTillAnyMatch && (env.ShedRecords() == 0 || len(shed) >= len(full)) {
				t.Fatalf("shed %d records, kept %d of %d matches: the budget never dropped b@5",
					env.ShedRecords(), len(shed), len(full))
			}
		})
	}
}
