// Package event defines the data and time model shared by both stream
// processing paradigms implemented in this repository: plain analytical
// stream processing (ASP) tuples and complex event processing (CEP) events.
//
// Following the paper (§2, "Data Model"), an event is a tuple with a creation
// timestamp, and both paradigms share one schema. The paper's evaluation uses
// a common POJO schema (id, lat, lon, ts, value) plus a child class per
// measurement type; we mirror that with a fixed struct carrying a Type tag.
// Composite events (pattern matches) are represented by Match, a tuple
// ce(e1..en, tsB, tsE) as defined in §2.
package event

import (
	"bytes"
	"fmt"
	"math"
	"strconv"
	"strings"
	"time"
)

// Type identifies an event type T ∈ ε (the universe of event types).
// Types are small integers so operators can switch on them cheaply; the
// registry in types.go maps them to names.
type Type int32

// Time is an event timestamp in milliseconds since an arbitrary epoch.
// Event time is discrete and strictly increasing per producer (§2).
type Time = int64

// Millisecond-based duration helpers. The paper specifies windows in
// minutes; generators emit one tuple per sensor per minute (QnV) or per
// 3-5 minutes (AQ).
const (
	Millisecond Time = 1
	Second           = 1000 * Millisecond
	Minute           = 60 * Second
	Hour             = 60 * Minute
)

// DurationToMillis converts a time.Duration to the engine's millisecond
// time unit, rounding down.
func DurationToMillis(d time.Duration) Time { return Time(d / time.Millisecond) }

// Event is a single stream tuple. It instantiates exactly the schema the
// paper's evaluation uses for all sources (§5.1.3): a sensor ID, coordinates,
// the event-time timestamp, and one measurement value, tagged with its event
// type.
//
// Two auxiliary fields extend the schema for engine-internal purposes:
//
//   - Ingest records the wall-clock creation time of the tuple
//     (nanoseconds); the paper derives detection latency from creation time
//     because all data is produced in the cloud (§5.1.3, "Metrics").
//   - AuxTS holds a derived timestamp attribute. The NSEQ mapping (§4.1,
//     "Negated Sequence") attaches an attribute ats to every T1 event: the
//     timestamp of the next T2 occurrence, or e1.ts+W if none occurred.
type Event struct {
	Type   Type
	ID     int64
	Lat    float64
	Lon    float64
	TS     Time
	Value  float64
	Ingest int64
	AuxTS  Time
}

// Attr names addressable from pattern predicates.
const (
	AttrID    = "id"
	AttrLat   = "lat"
	AttrLon   = "lon"
	AttrTS    = "ts"
	AttrValue = "value"
	AttrAuxTS = "ats"
)

// Field is one attribute of Event, resolved from its name once: reading it
// is a switch on a small integer, not on a string.
type Field uint8

const (
	fieldID Field = iota
	fieldLat
	fieldLon
	fieldTS
	fieldValue
	fieldAuxTS
)

// fieldNames holds the attribute names in Field order.
var fieldNames = [...]string{AttrID, AttrLat, AttrLon, AttrTS, AttrValue, AttrAuxTS}

// Accessor resolves an attribute name addressable from pattern predicates.
// Unknown names return ok=false. Compiled predicates, partition keys and
// projections resolve their attributes here once and read them with Of or
// Key.
func Accessor(name string) (f Field, ok bool) {
	for i, n := range fieldNames {
		if n == name {
			return Field(i), true
		}
	}
	return 0, false
}

// Of reads f of e as a float64 (the predicate expression language is
// numeric).
func (f Field) Of(e *Event) float64 {
	switch f {
	case fieldID:
		return float64(e.ID)
	case fieldLat:
		return e.Lat
	case fieldLon:
		return e.Lon
	case fieldTS:
		return float64(e.TS)
	case fieldValue:
		return e.Value
	}
	return float64(e.AuxTS)
}

// Key is f of e as a partition key, the one every keyed operator uses: the
// id is its own key; any other attribute keys integral values by the
// integer and fractional ones by their bit pattern, so 1.2 and 1.7 do not
// share a key.
func (f Field) Key(e *Event) int64 {
	if f == fieldID {
		return e.ID
	}
	v := f.Of(e)
	if v == math.Trunc(v) {
		return int64(v)
	}
	return int64(math.Float64bits(v))
}

// String renders the event for logs and test failure messages.
func (e Event) String() string {
	return fmt.Sprintf("%s{id=%d ts=%d value=%g}", TypeName(e.Type), e.ID, e.TS, e.Value)
}

// Match is a composite event ce(e1,...,en, tsB, tsE): the ordered list of
// events that participated in a pattern match, together with the timestamps
// of the first and last occurred event (§2). Matches are also the unit
// flowing between consecutive joins when a nested pattern is decomposed
// (§4.2.2).
type Match struct {
	Events []Event
	TsB    Time // min event time over Events
	TsE    Time // max event time over Events
}

// NewMatch builds a match from its constituents, computing TsB/TsE.
func NewMatch(events ...Event) *Match {
	m := &Match{Events: events}
	m.recompute()
	return m
}

func (m *Match) recompute() {
	if len(m.Events) == 0 {
		m.TsB, m.TsE = 0, 0
		return
	}
	m.TsB, m.TsE = m.Events[0].TS, m.Events[0].TS
	for _, e := range m.Events[1:] {
		if e.TS < m.TsB {
			m.TsB = e.TS
		}
		if e.TS > m.TsE {
			m.TsE = e.TS
		}
	}
}

// WrapMatch builds a match that takes ownership of the given constituent
// slice — no copy — computing TsB/TsE. The caller must not retain or mutate
// the slice afterwards; join operators use it to assemble matches into
// recycled buffers without copying each side's constituents again.
func WrapMatch(events []Event) *Match {
	m := &Match{Events: events}
	m.recompute()
	return m
}

// Ingest returns the maximum wall-clock creation time over the match's
// constituents; detection latency is sink-time minus this value (§5.1.3).
func (m *Match) Ingest() int64 {
	var max int64
	for _, e := range m.Events {
		if e.Ingest > max {
			max = e.Ingest
		}
	}
	return max
}

// keyPartMax is the longest "type:id:ts" part of a Match key: an int32, two
// int64s and two colons. keyStackParts parts fit the stack buffers of
// AppendKey and Key.
const (
	keyPartMax    = 11 + 20 + 20 + 2
	keyStackParts = 8
)

// Key returns a canonical identity for duplicate elimination: the sorted
// list of constituent identities (type, id, timestamp). Two matches over
// the same event set are duplicates regardless of constituent order, which
// makes keys stable under join reordering (§4.2.2); sliding windows produce
// duplicates whenever a match fits several overlapping windows (§3.1.4,
// second impact).
//
// The format is a checkpoint contract — sink and window-join snapshots
// persist keys — so it never changes: the parts "type:id:ts" in decimal,
// sorted as strings ("10:…" before "9:…") and joined by "|". Up to
// keyStackParts constituents cost one allocation, the returned string.
func (m *Match) Key() string {
	var buf [keyStackParts * (keyPartMax + 1)]byte
	return string(AppendKey(buf[:0], m.Events))
}

// AppendKey appends the Key of a match over evs to dst. A caller that probes
// a set of keys before inserting uses it to pay for a string only on insert:
// a map index m[string(b)] does not allocate.
func AppendKey(dst []byte, evs []Event) []byte {
	var textBuf [keyStackParts * keyPartMax]byte
	var spanBuf [keyStackParts][2]int
	text, spans := textBuf[:0], spanBuf[:0]
	for i := range evs {
		e := &evs[i]
		lo := len(text)
		text = strconv.AppendInt(text, int64(e.Type), 10)
		text = append(text, ':')
		text = strconv.AppendInt(text, e.ID, 10)
		text = append(text, ':')
		text = strconv.AppendInt(text, e.TS, 10)
		spans = append(spans, [2]int{lo, len(text)})
	}
	// Insertion sort by part text: arities are small.
	for i := 1; i < len(spans); i++ {
		s, j := spans[i], i
		for ; j > 0 && bytes.Compare(text[spans[j-1][0]:spans[j-1][1]], text[s[0]:s[1]]) > 0; j-- {
			spans[j] = spans[j-1]
		}
		spans[j] = s
	}
	for i, s := range spans {
		if i > 0 {
			dst = append(dst, '|')
		}
		dst = append(dst, text[s[0]:s[1]]...)
	}
	return dst
}

// String renders the match for logs and test failures.
func (m *Match) String() string {
	parts := make([]string, len(m.Events))
	for i, e := range m.Events {
		parts[i] = e.String()
	}
	return fmt.Sprintf("ce[%s; tsB=%d tsE=%d]", strings.Join(parts, ", "), m.TsB, m.TsE)
}
