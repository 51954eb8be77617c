package cep

import (
	"bytes"
	"encoding/gob"
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// Contract tests for the operator around the automaton: what the reorder
// buffer costs, that neither it nor the watermark cadence shows in the match
// set, and that a snapshot's buffer restores whatever order it was saved in.

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
