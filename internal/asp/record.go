// Package asp implements the analytical stream processing substrate: a
// from-scratch dataflow engine in the style of the systems the paper builds
// on (Flink's DataStream API, §2 "Processing Model"). Queries are directed
// graphs of operators between sources and sinks; operators run as one or
// more parallel instances (task slots) connected by bounded channels, which
// provide backpressure; event-time watermarks drive window firing.
//
// The engine provides exactly the operator vocabulary the paper's mapping
// targets (Table 1): filter (selection), map (projection), union, sliding
// window join with arbitrary θ predicates, interval join (optimization O1),
// sliding window aggregation (optimization O2), hash partitioning by key
// (optimization O3), plus the NSEQ next-occurrence UDF operator of §4.1.
package asp

import (
	"unsafe"

	"cep2asp/internal/event"
)

// RecordKind discriminates the payload of a Record.
type RecordKind uint8

const (
	// KindEvent carries a single event (the zero-allocation fast path).
	KindEvent RecordKind = iota
	// KindMatch carries a composite (partial or complete pattern match).
	KindMatch
	// KindWatermark carries a watermark: no later record on this channel
	// will have an event time <= TS.
	KindWatermark
	// KindEOS signals that one upstream sender is exhausted.
	KindEOS
	// KindBarrier carries a checkpoint barrier: TS holds the checkpoint
	// ID. Operators align barriers across all input senders, snapshot
	// their state, and forward the barrier downstream (aligned-barrier
	// checkpointing, internal/checkpoint).
	KindBarrier
)

// Record is the unit flowing through channels between operator instances.
// Port identifies the logical input (0 = left/only, 1 = right) and Src the
// upstream sender, which watermark merging needs to take the minimum across
// all senders.
type Record struct {
	Kind  RecordKind
	TS    event.Time
	Event event.Event
	Match *event.Match
	Port  uint8
	Src   uint16
	// TraceNs carries the end-to-end tracing context: non-zero iff the
	// record is sampled (internal/trace decides deterministically from the
	// payload), holding the wall-clock UnixNano of the last hop handoff so
	// the next hop can attribute queue/network wait. The trace identity
	// itself is not carried — any hop recomputes it from the payload
	// (trace.ID / trace.MatchID), keeping the per-record cost of disabled
	// tracing at one zero-valued field. Barrier records reuse the field as
	// their send timestamp for barrier-propagation latency.
	TraceNs int64
}

// EventRecord wraps a single event, timestamped with its event time.
func EventRecord(e event.Event) Record {
	return Record{Kind: KindEvent, TS: e.TS, Event: e}
}

// MatchRecord wraps a composite with an explicitly assigned event time.
// After a decomposed join the assigned time is the later of the two joined
// records' times (above the input watermark); ordering constraints between
// constituents are expressed as predicates over the constituents themselves
// (§4.2.2).
func MatchRecord(ts event.Time, m *event.Match) Record {
	return Record{Kind: KindMatch, TS: ts, Match: m}
}

// Events returns the record's constituent events where they lie: the
// match's own slice for a composite, a one-element view of r.Event for a
// single event. The view is read-only and valid only as long as r is.
func (r *Record) Events() []event.Event {
	if r.Kind == KindMatch {
		return r.Match.Events
	}
	return unsafe.Slice(&r.Event, 1)
}

// Span returns the first and last constituent event times.
func (r *Record) Span() (tsB, tsE event.Time) {
	if r.Kind == KindMatch {
		return r.Match.TsB, r.Match.TsE
	}
	return r.Event.TS, r.Event.TS
}

// ToMatch converts the record payload into a composite, allocating for
// single events.
func (r *Record) ToMatch() *event.Match {
	if r.Kind == KindMatch {
		return r.Match
	}
	return event.NewMatch(r.Event)
}

// Ingest returns the wall-clock creation time relevant for detection
// latency: the latest constituent's ingest time.
func (r *Record) Ingest() int64 {
	if r.Kind == KindMatch {
		return r.Match.Ingest()
	}
	return r.Event.Ingest
}

// KeyFn extracts the partitioning key of a record. The translator compiles
// key functions from equi-join attributes (optimization O3); a nil KeyFn
// means all records share one key (a single global window, §5.1.2). The
// record is borrowed for the call.
type KeyFn func(*Record) int64
