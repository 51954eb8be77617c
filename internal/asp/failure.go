package asp

import (
	"fmt"
	"strings"
	"sync"
	"time"

	"cep2asp/internal/event"
)

// OperatorFailure is the structured form of a panic isolated inside one
// operator or source instance: instead of crashing the process, the engine
// recovers the panic, cancels the run with this failure as the cause, and
// drains the rest of the graph cleanly. Supervisors recognize it as
// restartable (internal/supervise) and, when the same record keeps
// crashing the job, use its poison key to quarantine the record.
type OperatorFailure struct {
	// Node and Instance locate the failed operator instance; Task is its
	// stable cross-restart identifier (graph position, name, instance).
	Node     string
	Instance int
	Task     string
	// Source marks failures inside a source instance.
	Source bool
	// Panic is the recovered panic value and Stack the goroutine stack at
	// recovery time.
	Panic any
	Stack []byte
	// RecordSummary renders the data record whose processing panicked
	// ("" when the panic fired outside record processing, e.g. during a
	// window firing); RecordKey is the record's stable poison identity.
	RecordSummary string
	RecordKey     string
}

func (f *OperatorFailure) Error() string {
	var b strings.Builder
	kind := "operator"
	if f.Source {
		kind = "source"
	}
	fmt.Fprintf(&b, "asp: %s %s/%d panicked: %v", kind, f.Node, f.Instance, f.Panic)
	if f.RecordSummary != "" {
		fmt.Fprintf(&b, " (processing %s)", f.RecordSummary)
	}
	return b.String()
}

// Restartable implements supervise.RestartableError: a panic is isolated
// to one instance and the job may be rebuilt and replayed from the latest
// checkpoint.
func (f *OperatorFailure) Restartable() bool { return true }

// PoisonKey implements supervise.PoisonError.
func (f *OperatorFailure) PoisonKey() string { return f.RecordKey }

// poisonKey derives a record's stable identity across restarts: replayed
// records carry the same content, while engine-level fields (Src, Port)
// shift with the rebuilt topology. Control records have no identity.
func poisonKey(r *Record) string {
	switch r.Kind {
	case KindEvent:
		e := r.Event
		return fmt.Sprintf("e:%d:%d:%d:%g", e.Type, e.ID, e.TS, e.Value)
	case KindMatch:
		return "m:" + r.Match.Key()
	}
	return ""
}

// summarize renders a record for failure reports and dead letters.
func summarize(r *Record) string {
	switch r.Kind {
	case KindEvent:
		e := r.Event
		return fmt.Sprintf("event{type=%s id=%d ts=%d value=%g}", event.TypeName(e.Type), e.ID, e.TS, e.Value)
	case KindMatch:
		return fmt.Sprintf("match{%s}", r.Match.Key())
	case KindWatermark:
		return fmt.Sprintf("watermark{%d}", r.TS)
	case KindBarrier:
		return fmt.Sprintf("barrier{%d}", r.TS)
	case KindEOS:
		return "eos"
	}
	return fmt.Sprintf("record{kind=%d}", r.Kind)
}

// Quarantine holds the poison records a supervisor has dead-lettered: data
// records whose processing panicked repeatedly across restarts. Operator
// instances consult it before processing — a quarantined record is dropped
// and reported through OnDrop instead of crashing the job again.
//
// Add is safe between executions (the supervisor quarantines records
// before rebuilding the graph); instances snapshot the per-node key set at
// startup.
type Quarantine struct {
	// OnDrop, when set, observes each dropped record from the dropping
	// instance's goroutine: the dead-letter routing hook.
	OnDrop func(node string, instance int, key, summary string)

	mu    sync.RWMutex
	nodes map[string]map[string]struct{}
}

// NewQuarantine creates an empty quarantine.
func NewQuarantine() *Quarantine {
	return &Quarantine{nodes: make(map[string]map[string]struct{})}
}

// Add quarantines one record key at one node: every instance of the node
// drops records with that poison key on sight.
func (q *Quarantine) Add(node, key string) {
	if q == nil || key == "" {
		return
	}
	q.mu.Lock()
	defer q.mu.Unlock()
	keys := q.nodes[node]
	if keys == nil {
		keys = make(map[string]struct{})
		q.nodes[node] = keys
	}
	keys[key] = struct{}{}
}

// Len returns the total number of quarantined (node, key) entries.
func (q *Quarantine) Len() int {
	if q == nil {
		return 0
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	n := 0
	for _, keys := range q.nodes {
		n += len(keys)
	}
	return n
}

// keysFor returns the node's quarantined key set, or nil when the node has
// none — the common case, which instances detect with one nil check.
func (q *Quarantine) keysFor(node string) map[string]struct{} {
	if q == nil {
		return nil
	}
	q.mu.RLock()
	defer q.mu.RUnlock()
	keys := q.nodes[node]
	if len(keys) == 0 {
		return nil
	}
	out := make(map[string]struct{}, len(keys))
	for k := range keys {
		out[k] = struct{}{}
	}
	return out
}

// hasQuarantined reports whether key k (non-empty) is in the snapshot set.
func hasQuarantined(keys map[string]struct{}, k string) bool {
	if k == "" {
		return false
	}
	_, ok := keys[k]
	return ok
}

// ErrShutdownTimeout reports a teardown that could not complete: after the
// run was cancelled or failed, one or more operator instances did not
// return within the configured shutdown deadline (wedged in user code, a
// chaos stall, or an unbounded loop). The stuck goroutines are abandoned —
// the process survives, but their task IDs are reported so the wedge is
// diagnosable.
type ErrShutdownTimeout struct {
	// Timeout is the deadline that expired.
	Timeout time.Duration
	// Stuck lists the task IDs of the instances still running.
	Stuck []string
	// Cause is the error that initiated teardown, if any.
	Cause error
}

func (e *ErrShutdownTimeout) Error() string {
	msg := fmt.Sprintf("asp: shutdown deadline %v exceeded; stuck instances: %s",
		e.Timeout, strings.Join(e.Stuck, ", "))
	if e.Cause != nil {
		msg += fmt.Sprintf(" (teardown initiated by: %v)", e.Cause)
	}
	return msg
}

// Unwrap exposes the teardown cause to errors.Is/As.
func (e *ErrShutdownTimeout) Unwrap() error { return e.Cause }
