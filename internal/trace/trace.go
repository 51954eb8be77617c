// Package trace provides the end-to-end tracing plane of the engine: a
// sampled subset of source events is followed through every operator hop,
// network frame, and match derivation, yielding per-hop queue/processing/
// network spans that are exportable as Chrome trace-event JSON
// (chrome://tracing, Perfetto) and summarizable as an end-to-end latency
// breakdown.
//
// Sampling is deterministic: the trace identity of an event is a hash of
// its (type, id, event-time) tuple, and the event is sampled iff that hash
// falls below rate * 2^64. Two executions of the same workload therefore
// trace exactly the same records — equivalence tests and A/B runs stay
// reproducible — and any hop can recompute a record's trace ID from the
// payload alone, so the hot-path record only needs to carry one extra
// timestamp, not a full context struct.
package trace

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"sort"
	"sync"
	"time"

	"cep2asp/internal/event"
)

// Span kinds. A span's Kind selects the Chrome trace category and the
// bucket it contributes to in the Summary breakdown.
const (
	KindSource  = "source"  // event admitted at a source (sampling decision)
	KindOp      = "op"      // one operator hop: queue wait + processing
	KindNet     = "net"     // one network hop between worker processes
	KindMatch   = "match"   // a match derived; Links name contributing traces
	KindBarrier = "barrier" // checkpoint machinery: propagation, alignment, completion
)

// Span is one timed segment of a trace. StartNs/DurNs are wall-clock
// UnixNano values; QueueNs is the portion of the hop spent waiting in the
// receiving instance's input queue (op spans only).
type Span struct {
	Trace    uint64   // trace identity (checkpoint ID for barrier spans)
	Kind     string   // one of the Kind* constants
	Name     string   // node name, "net:wA>wB", "checkpoint-N", ...
	Worker   int      // producing worker process (0 single-process)
	Instance int      // operator instance, where applicable
	StartNs  int64    // wall-clock start, UnixNano
	DurNs    int64    // duration
	QueueNs  int64    // input-queue wait preceding the hop (op spans)
	Links    []uint64 // contributing trace IDs (match spans)
}

// EndNs returns the span's wall-clock end.
func (s Span) EndNs() int64 { return s.StartNs + s.DurNs }

// ID computes the deterministic trace identity of an event: a splitmix64
// mix of its type, producer ID, and event time. The same event hashes to
// the same identity in every process of a cluster.
func ID(e event.Event) uint64 {
	h := mix(uint64(e.Type))
	h = mix(h ^ uint64(e.ID))
	h = mix(h ^ uint64(e.TS))
	if h == 0 { // 0 means "untraced" throughout; remap the pathological hash
		h = 1
	}
	return h
}

// MatchID derives a trace identity for a composite from its constituents,
// so a match span's own trace is as deterministic as its inputs'.
func MatchID(events []event.Event) uint64 {
	var h uint64 = 0x9E3779B97F4A7C15
	for _, e := range events {
		h = mix(h ^ ID(e))
	}
	if h == 0 {
		h = 1
	}
	return h
}

// mix is the splitmix64 finalizer: a cheap, well-dispersed 64-bit mix.
func mix(x uint64) uint64 {
	x += 0x9E3779B97F4A7C15
	x = (x ^ (x >> 30)) * 0xBF58476D1CE4E5B9
	x = (x ^ (x >> 27)) * 0x94D049BB133111EB
	return x ^ (x >> 31)
}

// DefaultMaxSpans bounds a tracer's buffered spans; the cap exists so a
// high sampling rate on a long run degrades to a truncated trace (with a
// Dropped count) instead of unbounded memory growth.
const DefaultMaxSpans = 1 << 20

// Tracer collects spans for one process. A nil *Tracer is the disabled
// state everywhere: every hot-path call site gates on one pointer
// comparison before touching it.
type Tracer struct {
	rate      float64
	threshold uint64 // sample iff ID(e) < threshold
	worker    int
	maxSpans  int

	mu      sync.Mutex
	spans   []Span
	dropped int64
}

// New creates a tracer sampling the given fraction of source events
// (clamped to [0,1]) on behalf of the given worker index. A rate <= 0
// returns nil — the disabled tracer — so callers can pass the configured
// rate straight through.
func New(rate float64, worker int) *Tracer {
	if rate <= 0 || math.IsNaN(rate) {
		return nil
	}
	t := &Tracer{rate: rate, worker: worker, maxSpans: DefaultMaxSpans}
	f := rate * float64(math.MaxUint64)
	if rate >= 1 || f >= float64(math.MaxUint64) {
		t.threshold = math.MaxUint64
	} else {
		t.threshold = uint64(f)
	}
	return t
}

// Rate is the sample rate the tracer was created with; 0 for the nil
// tracer. New(t.Rate(), w) samples exactly the events t samples.
func (t *Tracer) Rate() float64 {
	if t == nil {
		return 0
	}
	return t.rate
}

// Sample decides whether an event is traced and returns its trace ID.
// Deterministic: the decision depends only on the event's identity and the
// configured rate.
func (t *Tracer) Sample(e event.Event) (uint64, bool) {
	id := ID(e)
	if t.threshold == math.MaxUint64 {
		return id, true
	}
	return id, id < t.threshold
}

// Add records one span.
func (t *Tracer) Add(s Span) {
	s.Worker = t.worker
	t.mu.Lock()
	if len(t.spans) >= t.maxSpans {
		t.dropped++
	} else {
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// AddBatch merges spans collected elsewhere (a remote worker's Drain) into
// this tracer, preserving their Worker stamps. Nil-safe.
func (t *Tracer) AddBatch(spans []Span) {
	if t == nil || len(spans) == 0 {
		return
	}
	t.mu.Lock()
	for _, s := range spans {
		if len(t.spans) >= t.maxSpans {
			t.dropped += int64(len(spans))
			break
		}
		t.spans = append(t.spans, s)
	}
	t.mu.Unlock()
}

// Drain removes and returns all buffered spans — the federation push path:
// workers periodically drain into a control-plane message, the coordinator
// AddBatches them into its own tracer.
func (t *Tracer) Drain() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	out := t.spans
	t.spans = nil
	t.mu.Unlock()
	return out
}

// Spans returns a copy of the buffered spans. Nil-safe.
func (t *Tracer) Spans() []Span {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Span, len(t.spans))
	copy(out, t.spans)
	return out
}

// Dropped returns the number of spans discarded at the buffer cap. Nil-safe.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Summary is the end-to-end latency breakdown of a trace: how much of the
// traced records' lifetime went to input queues, operator processing, and
// network hops, plus the distribution of per-trace end-to-end latency
// (first span start to last span end of each trace identity).
type Summary struct {
	Spans int
	// Traces counts the trace identities in the end-to-end distribution:
	// those with a span past their source.
	Traces  int
	Dropped int64
	// Aggregate time across all op/net spans.
	QueueNs int64
	ProcNs  int64
	NetNs   int64
	// Per-trace end-to-end wall time distribution.
	E2EP50 time.Duration
	E2EP99 time.Duration
	E2EMax time.Duration
}

// Summarize computes the latency breakdown over the buffered spans.
// Barrier spans are excluded from the per-trace end-to-end distribution
// (their Trace field is a checkpoint ID, not a record trace), and so are
// traces of records that never left their source (a source span alone: a
// fused selection dropped the record), which have no end-to-end time.
func (t *Tracer) Summarize() Summary {
	spans := t.Spans()
	sum := Summary{Spans: len(spans), Dropped: t.Dropped()}
	type bounds struct {
		first, last int64
		left        bool // a span past the source
	}
	traces := make(map[uint64]*bounds)
	for _, s := range spans {
		switch s.Kind {
		case KindOp:
			sum.QueueNs += s.QueueNs
			sum.ProcNs += s.DurNs
		case KindNet:
			sum.NetNs += s.DurNs
		}
		if s.Kind == KindBarrier || s.Trace == 0 {
			continue
		}
		b := traces[s.Trace]
		if b == nil {
			b = &bounds{first: s.StartNs, last: s.EndNs()}
			traces[s.Trace] = b
		}
		b.first = min(b.first, s.StartNs)
		b.last = max(b.last, s.EndNs())
		b.left = b.left || s.Kind != KindSource
	}
	e2e := make([]int64, 0, len(traces))
	for _, b := range traces {
		if b.left {
			e2e = append(e2e, b.last-b.first)
		}
	}
	if sum.Traces = len(e2e); len(e2e) == 0 {
		return sum
	}
	sort.Slice(e2e, func(i, j int) bool { return e2e[i] < e2e[j] })
	quant := func(q float64) time.Duration {
		i := int(q * float64(len(e2e)-1))
		return time.Duration(e2e[i])
	}
	sum.E2EP50 = quant(0.50)
	sum.E2EP99 = quant(0.99)
	sum.E2EMax = time.Duration(e2e[len(e2e)-1])
	return sum
}

// chromeEvent is one Chrome trace-event ("X" complete events only). ts and
// dur are microseconds; pid groups by worker process, tid by node/instance.
type chromeEvent struct {
	Name string         `json:"name"`
	Cat  string         `json:"cat"`
	Ph   string         `json:"ph"`
	TS   float64        `json:"ts"`
	Dur  float64        `json:"dur"`
	PID  int            `json:"pid"`
	TID  int            `json:"tid"`
	Args map[string]any `json:"args,omitempty"`
}

// WriteChrome writes the buffered spans in Chrome trace-event JSON (the
// array form), loadable in chrome://tracing or https://ui.perfetto.dev.
// Spans are sorted by start time; pid is the worker index and tid a stable
// small integer per node/instance lane.
func (t *Tracer) WriteChrome(w io.Writer) error {
	spans := t.Spans()
	sort.Slice(spans, func(i, j int) bool { return spans[i].StartNs < spans[j].StartNs })
	lanes := make(map[string]int)
	events := make([]chromeEvent, 0, len(spans))
	for _, s := range spans {
		lane := fmt.Sprintf("w%d/%s/%d", s.Worker, s.Name, s.Instance)
		tid, ok := lanes[lane]
		if !ok {
			tid = len(lanes) + 1
			lanes[lane] = tid
		}
		args := map[string]any{"trace": fmt.Sprintf("%016x", s.Trace)}
		if s.QueueNs > 0 {
			args["queue_us"] = float64(s.QueueNs) / 1e3
		}
		if len(s.Links) > 0 {
			links := make([]string, len(s.Links))
			for i, l := range s.Links {
				links[i] = fmt.Sprintf("%016x", l)
			}
			args["links"] = links
		}
		dur := float64(s.DurNs) / 1e3
		if dur <= 0 {
			// chrome://tracing hides zero-width complete events; keep every
			// span visible at the 1us floor.
			dur = 1
		}
		events = append(events, chromeEvent{
			Name: s.Name,
			Cat:  s.Kind,
			Ph:   "X",
			TS:   float64(s.StartNs) / 1e3,
			Dur:  dur,
			PID:  s.Worker,
			TID:  tid,
			Args: args,
		})
	}
	enc := json.NewEncoder(w)
	return enc.Encode(events)
}

// WriteFile writes the Chrome trace to path, creating parent directories.
func (t *Tracer) WriteFile(path string) error {
	if dir := filepath.Dir(path); dir != "." && dir != "" {
		if err := os.MkdirAll(dir, 0o755); err != nil {
			return err
		}
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	if err := t.WriteChrome(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}
