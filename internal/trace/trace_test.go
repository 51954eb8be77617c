package trace

import (
	"bytes"
	"encoding/json"
	"math"
	"testing"

	"cep2asp/internal/event"
)

func TestSamplingDeterministicAndProportional(t *testing.T) {
	tr := New(0.25, 0)
	tr2 := New(0.25, 1)
	n, sampled := 20000, 0
	for i := 0; i < n; i++ {
		e := event.Event{Type: 1, ID: int64(i % 64), TS: int64(i)}
		id, ok := tr.Sample(e)
		id2, ok2 := tr2.Sample(e)
		if id != id2 || ok != ok2 {
			t.Fatalf("sampling not deterministic across tracers: %x/%v vs %x/%v", id, ok, id2, ok2)
		}
		if id == 0 {
			t.Fatal("trace ID 0 is reserved for untraced records")
		}
		if ok {
			sampled++
		}
	}
	frac := float64(sampled) / float64(n)
	if frac < 0.20 || frac > 0.30 {
		t.Fatalf("sampled fraction %.3f far from configured 0.25", frac)
	}
}

func TestRateEdges(t *testing.T) {
	if New(0, 0) != nil || New(-1, 0) != nil || New(math.NaN(), 0) != nil {
		t.Fatal("non-positive rates must return the nil (disabled) tracer")
	}
	all := New(1, 0)
	for i := 0; i < 1000; i++ {
		if _, ok := all.Sample(event.Event{Type: 2, ID: int64(i), TS: int64(i)}); !ok {
			t.Fatal("rate 1.0 must sample every event")
		}
	}
}

func TestSummaryBreakdown(t *testing.T) {
	tr := New(1, 0)
	// One trace: source -> op (queue 10us, proc 5us) -> net 20us.
	tr.Add(Span{Trace: 7, Kind: KindSource, Name: "src", StartNs: 1000})
	tr.Add(Span{Trace: 7, Kind: KindOp, Name: "σ", StartNs: 12_000, DurNs: 5_000, QueueNs: 10_000})
	tr.Add(Span{Trace: 7, Kind: KindNet, Name: "net:w0>w1", StartNs: 17_000, DurNs: 20_000})
	// Barrier spans must not join the e2e distribution.
	tr.Add(Span{Trace: 3, Kind: KindBarrier, Name: "checkpoint-3", StartNs: 0, DurNs: 1_000_000})

	s := tr.Summarize()
	if s.Spans != 4 || s.Traces != 1 {
		t.Fatalf("got %d spans / %d traces, want 4 / 1", s.Spans, s.Traces)
	}
	if s.QueueNs != 10_000 || s.ProcNs != 5_000 || s.NetNs != 20_000 {
		t.Fatalf("breakdown queue=%d proc=%d net=%d", s.QueueNs, s.ProcNs, s.NetNs)
	}
	if got := int64(s.E2EMax); got != 36_000 {
		t.Fatalf("e2e max %d, want 36000 (1000 .. 37000)", got)
	}
}

func TestDrainAndMerge(t *testing.T) {
	worker := New(1, 1)
	worker.Add(Span{Trace: 1, Kind: KindOp, Name: "a"})
	worker.Add(Span{Trace: 2, Kind: KindOp, Name: "b"})
	got := worker.Drain()
	if len(got) != 2 || len(worker.Spans()) != 0 {
		t.Fatalf("drain returned %d spans, left %d", len(got), len(worker.Spans()))
	}
	for _, s := range got {
		if s.Worker != 1 {
			t.Fatalf("span not stamped with worker index: %+v", s)
		}
	}
	coord := New(1, 0)
	coord.AddBatch(got)
	if len(coord.Spans()) != 2 {
		t.Fatalf("merged %d spans, want 2", len(coord.Spans()))
	}
	if coord.Spans()[0].Worker != 1 {
		t.Fatal("AddBatch must preserve the remote worker stamp")
	}
}

func TestWriteChromeIsValidJSON(t *testing.T) {
	tr := New(1, 0)
	tr.Add(Span{Trace: 9, Kind: KindOp, Name: "⋈w", Instance: 2, StartNs: 5_000, DurNs: 2_000, QueueNs: 500})
	tr.Add(Span{Trace: 9, Kind: KindMatch, Name: "match", StartNs: 8_000, Links: []uint64{1, 2}})
	var buf bytes.Buffer
	if err := tr.WriteChrome(&buf); err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(buf.Bytes(), &events); err != nil {
		t.Fatalf("not valid JSON: %v\n%s", err, buf.String())
	}
	if len(events) != 2 {
		t.Fatalf("got %d events, want 2", len(events))
	}
	for _, ev := range events {
		if ev["ph"] != "X" || ev["name"] == "" {
			t.Fatalf("malformed chrome event: %v", ev)
		}
	}
}

func TestSpanCapCountsDropped(t *testing.T) {
	tr := New(1, 0)
	tr.maxSpans = 4
	for i := 0; i < 10; i++ {
		tr.Add(Span{Trace: uint64(i + 1), Kind: KindOp})
	}
	if len(tr.Spans()) != 4 {
		t.Fatalf("kept %d spans, want cap 4", len(tr.Spans()))
	}
	if tr.Dropped() != 6 {
		t.Fatalf("dropped %d, want 6", tr.Dropped())
	}
}

func TestMatchIDDeterministic(t *testing.T) {
	evs := []event.Event{{Type: 1, ID: 2, TS: 3}, {Type: 4, ID: 5, TS: 6}}
	if MatchID(evs) != MatchID(evs) {
		t.Fatal("MatchID must be deterministic")
	}
	if MatchID(evs) == MatchID(evs[:1]) {
		t.Fatal("MatchID should depend on the constituent set")
	}
}
