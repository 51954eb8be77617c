package asp

import (
	"testing"
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/trace"
)

// TestTraceSpanCausality runs a fully sampled pipeline and checks the
// causal structure of the emitted spans: every traced source event opens
// with a source span, every operator hop's queue wait begins no earlier
// than the upstream handoff, and durations/queue waits are non-negative.
func TestTraceSpanCausality(t *testing.T) {
	tr := trace.New(1, 0)
	env := NewEnvironment(Config{Trace: tr})
	const n = 300
	minutes := make([]int64, n)
	for i := range minutes {
		minutes[i] = int64(i)
	}
	res := NewResults(false, false)
	apply(env.Source("src", mkEvents(tQ, 1, minutes, nil), false), "stage", forward).
		Sink("sink", res.Operator())
	run(t, env)
	if res.Total() != n {
		t.Fatalf("sink saw %d records, want %d", res.Total(), n)
	}

	spans := tr.Spans()
	var sources int
	srcStart := make(map[uint64]int64) // trace -> source span start
	stageSpan := make(map[uint64]trace.Span)
	var sinkSpans []trace.Span
	for _, s := range spans {
		if s.DurNs < 0 || s.QueueNs < 0 {
			t.Fatalf("negative time in span %+v", s)
		}
		switch s.Kind {
		case trace.KindSource:
			sources++
			if s.Trace == 0 {
				t.Fatalf("source span without trace identity: %+v", s)
			}
			srcStart[s.Trace] = s.StartNs
		case trace.KindOp:
			if s.Name == "stage" {
				stageSpan[s.Trace] = s
			} else {
				sinkSpans = append(sinkSpans, s)
			}
		}
	}
	if sources != n {
		t.Fatalf("rate-1 sampling produced %d source spans for %d events", sources, n)
	}
	if len(stageSpan) != n || len(sinkSpans) != n {
		t.Fatalf("%d stage and %d sink spans for %d events", len(stageSpan), len(sinkSpans), n)
	}
	// Causality: an op span's queue wait starts at the upstream hand-off
	// (StartNs - QueueNs). The stage's hand-off is the source's emit: after
	// the source span opened and strictly before the stage took the record —
	// a queue wait clamped to zero means the stamp was overwritten while the
	// stage ran. The stage forwards the record it was lent; the sink's
	// hand-off is the stage's emit, after the stage took the record and
	// before the sink did. (Span ends are not compared: StartNs is a wall
	// clock reading, DurNs a monotonic one.)
	for tid, f := range stageSpan {
		start, ok := srcStart[tid]
		if !ok {
			t.Fatalf("stage span for unknown trace %x: %+v", tid, f)
		}
		if handoff := f.StartNs - f.QueueNs; handoff < start || handoff >= f.StartNs {
			t.Fatalf("stage hand-off %d outside [source start %d, stage start %d) (%+v)", handoff, start, f.StartNs, f)
		}
	}
	for _, s := range sinkSpans {
		f, ok := stageSpan[s.Trace]
		if !ok {
			t.Fatalf("sink span for a trace the stage did not see: %+v", s)
		}
		if handoff := s.StartNs - s.QueueNs; handoff < f.StartNs || handoff >= s.StartNs {
			t.Fatalf("sink hand-off %d outside [stage start %d, sink start %d) (%+v)", handoff, f.StartNs, s.StartNs, s)
		}
	}
	sum := tr.Summarize()
	if sum.Traces != n {
		t.Fatalf("summary found %d traces, want %d", sum.Traces, n)
	}
	if sum.E2EP50 < 0 || sum.E2EP99 < sum.E2EP50 || sum.E2EMax < sum.E2EP99 {
		t.Fatalf("e2e quantiles not monotone: p50=%v p99=%v max=%v", sum.E2EP50, sum.E2EP99, sum.E2EMax)
	}
}

// TestTracedEmitLeavesRecordUntouched: Emit copies a record into the batch
// and stamps Port, Src and the tracing hand-off on the copy only. The record
// an operator forwards is the one the instance loop lent it, whose own
// stamp the loop reads after OnRecord for the span's queue wait.
func TestTracedEmitLeavesRecordUntouched(t *testing.T) {
	e := &edge{port: 1, partition: SinglePartition(), chans: []chan []Record{make(chan []Record, 1)}}
	c := &Collector{
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: e, srcID: 3, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		batch:   16,
		pool:    newBatchPool(16, nil),
		tracer:  trace.New(1, 0),
	}
	// As the inbound batch delivered it: port 0 from sender 7, handed off at 1234.
	r := EventRecord(event.Event{Type: tQ, ID: 1, TS: 5})
	r.Port, r.Src, r.TraceNs = 0, 7, 1234
	before := r
	c.cur, c.curSet = &r, true
	c.Emit(&r)
	if r != before {
		t.Fatalf("Emit wrote the caller's record: %+v, was %+v", r, before)
	}
	out := c.senders[0].pending[0]
	if len(out) != 1 {
		t.Fatalf("%d records pending, want 1", len(out))
	}
	if got := out[0]; got.Port != 1 || got.Src != 3 || got.TraceNs <= 1234 || got.Event != r.Event {
		t.Fatalf("batch copy = %+v, want the record on port 1 from sender 3 with a fresh hand-off stamp", got)
	}
}

// TestTraceDisabledAddsNothing: the disabled tracer is a nil pointer all
// the way down — records stay untraced and no spans accumulate.
func TestTraceDisabledAddsNothing(t *testing.T) {
	var tr *trace.Tracer // = trace.New(0, 0)
	env := NewEnvironment(Config{Trace: tr})
	res := NewResults(false, false)
	env.Source("src", mkEvents(tQ, 1, []int64{0, 1, 2}, nil), false).
		Sink("sink", res.Operator())
	run(t, env)
	if got := tr.Spans(); len(got) != 0 {
		t.Fatalf("disabled tracer holds %d spans", len(got))
	}
}

// TestBarrierSpansPerCheckpoint: a checkpointing run must publish barrier
// spans (alignment and completion) carrying the checkpoint ID as their
// trace identity.
func TestBarrierSpansPerCheckpoint(t *testing.T) {
	tr := trace.New(1, 0)
	env := NewEnvironment(Config{
		Trace:      tr,
		Checkpoint: &CheckpointSpec{Store: checkpoint.NewMemStore(), Interval: 5 * time.Millisecond},
	})
	res := NewResults(false, false)
	minutes := make([]int64, 2000)
	for i := range minutes {
		minutes[i] = int64(i)
	}
	env.Source("src", mkEvents(tQ, 1, minutes, nil), false).
		Filter("filter", func(e event.Event) bool { time.Sleep(10 * time.Microsecond); return true }).
		Sink("sink", res.Operator())
	run(t, env)
	stats := env.CheckpointStats()
	if len(stats) == 0 {
		t.Skip("no checkpoint completed within the run")
	}
	byKind := make(map[string]int)
	ids := make(map[uint64]bool)
	for _, s := range tr.Spans() {
		if s.Kind != trace.KindBarrier {
			continue
		}
		byKind[s.Name]++
		ids[s.Trace] = true
	}
	if len(ids) == 0 {
		t.Fatal("checkpointing run produced no barrier spans")
	}
	for _, st := range stats {
		if !ids[uint64(st.ID)] {
			t.Fatalf("completed checkpoint %d has no barrier span; spans by name: %v", st.ID, byKind)
		}
	}
}
