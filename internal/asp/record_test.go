package asp

import (
	"testing"

	"cep2asp/internal/event"
)

func TestRecordEvents(t *testing.T) {
	e := event.Event{Type: tQ, ID: 1, TS: 5}
	r := EventRecord(e)
	got := r.Events()
	if len(got) != 1 || got[0] != e || &got[0] != &r.Event {
		t.Fatalf("event record: Events() = %v, want a one-element view of r.Event", got)
	}
	m := event.NewMatch(e, event.Event{Type: tV, ID: 1, TS: 9})
	rm := MatchRecord(9, m)
	if got := rm.Events(); len(got) != 2 || &got[0] != &m.Events[0] {
		t.Fatalf("match record: Events() = %v, want the match's own slice", got)
	}
	if n := testing.AllocsPerRun(100, func() { got = r.Events(); got = rm.Events() }); n != 0 {
		t.Fatalf("Events() allocates %v times per call pair", n)
	}
}

func TestRecordSpan(t *testing.T) {
	r := EventRecord(event.Event{Type: tQ, TS: 7})
	if b, x := r.Span(); b != 7 || x != 7 {
		t.Fatalf("event span = %d,%d", b, x)
	}
	rm := MatchRecord(11, event.NewMatch(event.Event{TS: 3}, event.Event{TS: 11}))
	if b, x := rm.Span(); b != 3 || x != 11 {
		t.Fatalf("match span = %d,%d", b, x)
	}
}

func TestRecordToMatch(t *testing.T) {
	e := event.Event{Type: tQ, TS: 7}
	r := EventRecord(e)
	m := r.ToMatch()
	if len(m.Events) != 1 || m.Events[0] != e {
		t.Fatalf("ToMatch of event = %v", m)
	}
	existing := event.NewMatch(e)
	if rm := MatchRecord(7, existing); rm.ToMatch() != existing {
		t.Fatal("ToMatch of match should return the same composite")
	}
}

func TestRecordIngest(t *testing.T) {
	r := EventRecord(event.Event{Type: tQ, TS: 7, Ingest: 42})
	if got := r.Ingest(); got != 42 {
		t.Fatalf("event ingest = %d", got)
	}
	rm := MatchRecord(0, event.NewMatch(event.Event{Ingest: 5}, event.Event{Ingest: 99}))
	if got := rm.Ingest(); got != 99 {
		t.Fatalf("match ingest = %d", got)
	}
}

func TestHashPartitionSpreadsKeys(t *testing.T) {
	part := HashPartition(func(r *Record) int64 { return r.Event.ID })
	counts := make([]int, 8)
	for id := int64(0); id < 800; id++ {
		r := EventRecord(event.Event{ID: id})
		idx := part(&r, 8)
		if idx < 0 || idx >= 8 {
			t.Fatalf("partition index %d out of range", idx)
		}
		counts[idx]++
	}
	for i, c := range counts {
		if c < 50 || c > 150 {
			t.Fatalf("instance %d received %d of 800 keys; poor spread %v", i, c, counts)
		}
	}
	// Stability: the same key always routes identically.
	r := EventRecord(event.Event{ID: 42})
	first := part(&r, 8)
	for i := 0; i < 10; i++ {
		if part(&r, 8) != first {
			t.Fatal("HashPartition not deterministic")
		}
	}
}

func TestSinglePartitionAlwaysZero(t *testing.T) {
	part := SinglePartition()
	for id := int64(0); id < 10; id++ {
		r := EventRecord(event.Event{ID: id})
		if got := part(&r, 4); got != 0 {
			t.Fatalf("SinglePartition routed to %d", got)
		}
	}
}

func TestResultsAccessors(t *testing.T) {
	res := NewResults(true, true)
	e1 := event.Event{Type: tQ, ID: 1, TS: 5, Ingest: 1}
	r1 := EventRecord(e1)
	res.add(&r1)
	res.add(&r1) // duplicate
	if res.Total() != 2 || res.Unique() != 1 {
		t.Fatalf("total/unique = %d/%d", res.Total(), res.Unique())
	}
	if len(res.Keys()) != 1 {
		t.Fatalf("keys = %v", res.Keys())
	}
	if res.AvgLatency() <= 0 || res.MaxLatency() < res.AvgLatency() {
		t.Fatalf("latency accessors inconsistent: %v / %v", res.AvgLatency(), res.MaxLatency())
	}
	// Keep=false retains nothing.
	res2 := NewResults(false, false)
	res2.add(&r1)
	if len(res2.Matches()) != 0 || res2.Total() != 1 {
		t.Fatalf("discarding sink kept matches: %v", res2.Matches())
	}
}
