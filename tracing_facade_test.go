package cep2asp

import (
	"context"
	"encoding/json"
	"os"
	"path/filepath"
	"testing"
)

func TestJobWithTracing(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(20, 120, 1)
	out := filepath.Join(t.TempDir(), "trace.json")
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithTracing(1, out).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique == 0 {
		t.Fatal("expected matches")
	}
	tr := stats.Trace
	if tr.Spans == 0 || tr.Traces == 0 {
		t.Fatalf("rate-1 tracing recorded nothing: %+v", tr)
	}
	// At rate 1 every event the sources' fused selections pass is its own
	// trace identity, and every unique match contributes one more (its
	// MatchID attribution span). An event a selection drops never leaves
	// its source and is no trace of the summary.
	passed := 0
	for _, e := range q {
		if e.Value >= 80 {
			passed++
		}
	}
	for _, e := range v {
		if e.Value <= 20 {
			passed++
		}
	}
	if want := passed + int(stats.Unique); tr.Traces != want {
		t.Fatalf("traced %d identities, want %d (%d of %d events passed + %d matches)",
			tr.Traces, want, passed, stats.Events, stats.Unique)
	}
	if tr.E2EP99 < tr.E2EP50 || tr.E2EMax < tr.E2EP99 {
		t.Fatalf("e2e percentiles not monotone: %+v", tr)
	}

	// The exported file must be valid Chrome trace-event JSON with match
	// spans linking back to their constituents (match attribution).
	raw, err := os.ReadFile(out)
	if err != nil {
		t.Fatal(err)
	}
	var events []map[string]any
	if err := json.Unmarshal(raw, &events); err != nil {
		t.Fatalf("trace file is not valid JSON: %v", err)
	}
	var matches, linked int
	for _, ev := range events {
		if ev["cat"] != "match" {
			continue
		}
		matches++
		if args, ok := ev["args"].(map[string]any); ok {
			if links, ok := args["links"].([]any); ok && len(links) > 0 {
				linked++
			}
		}
	}
	if matches == 0 {
		t.Fatal("trace has no match spans despite matches being found")
	}
	if linked == 0 {
		t.Fatal("no match span links back to its constituent traces")
	}
}

func TestWithTracingValidatesRate(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := NewJob(pattern).WithTracing(1.5, "").Run(context.Background()); err == nil {
		t.Fatal("rate outside [0,1] must be a configuration error")
	}
	// Rate 0 is the disabled plane: no spans, no error.
	q, v := GenerateQnV(2, 30, 1)
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).AddStream("QnVVelocity", v).
		WithTracing(0, "").Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Trace.Spans != 0 {
		t.Fatalf("disabled tracing recorded %d spans", stats.Trace.Spans)
	}
}
