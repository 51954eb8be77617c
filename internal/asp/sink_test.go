package asp

import (
	"testing"

	"cep2asp/internal/event"
)

// TestResultsDuplicateDoesNotAllocate adds records a dedup sink has already
// seen, a match and a single event, with latency samples: the key is built
// in a buffer the sink owns and probes the set as bytes, so a duplicate
// costs no allocation.
func TestResultsDuplicateDoesNotAllocate(t *testing.T) {
	r := NewResults(true, true)
	m := event.NewMatch(event.Event{Type: tQ, ID: 1, TS: 5, Ingest: 1}, event.Event{Type: tV, ID: 2, TS: 7, Ingest: 2})
	recs := []Record{MatchRecord(m.TsE, m), EventRecord(event.Event{Type: tQ, ID: 3, TS: 9, Ingest: 3})}
	addAll := func() {
		for i := range recs {
			r.add(&recs[i])
		}
	}
	addAll()
	if allocs := testing.AllocsPerRun(100, addAll); allocs != 0 {
		t.Fatalf("%.1f allocations per two duplicate records, want 0", allocs)
	}
	if r.Total() != 2*102 || r.Unique() != 2 {
		t.Fatalf("Total %d Unique %d, want %d and 2", r.Total(), r.Unique(), 2*102)
	}
}
