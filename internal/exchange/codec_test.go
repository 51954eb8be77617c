package exchange

import (
	"bytes"
	"encoding/binary"
	"math"
	"math/rand"
	"reflect"
	"strings"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
)

var testStreamNames = []string{"CodecTypeA", "CodecTypeB", "CodecTypeC"}

func testTable() *TypeTable { return NewTypeTable(testStreamNames) }

// randEvent draws an event over the table's types with adversarial
// timestamp spreads (delta coding must survive negative deltas, extremes).
func randEvent(rng *rand.Rand, table *TypeTable) event.Event {
	ts := rng.Int63n(1<<40) - 1<<39
	return event.Event{
		Type:   table.toLocal[rng.Intn(len(table.toLocal))],
		ID:     rng.Int63n(1 << 32),
		Lat:    rng.NormFloat64() * 90,
		Lon:    rng.NormFloat64() * 180,
		Value:  rng.Float64() * 100,
		TS:     ts,
		Ingest: rng.Int63(),
		AuxTS:  ts + rng.Int63n(1<<20) - 1<<19,
	}
}

func randRecord(rng *rand.Rand, table *TypeTable) asp.Record {
	r := asp.Record{
		Port: uint8(rng.Intn(4)),
		Src:  uint16(rng.Intn(1 << 10)),
		TS:   rng.Int63n(1<<40) - 1<<39,
	}
	switch rng.Intn(5) {
	case 0:
		r.Kind = asp.KindWatermark
	case 1:
		r.Kind = asp.KindEOS
	case 2:
		r.Kind = asp.KindBarrier
		r.TS = rng.Int63n(1 << 20) // barrier IDs are small positives
	case 3:
		r.Kind = asp.KindMatch
		n := 1 + rng.Intn(6)
		events := make([]event.Event, n)
		for i := range events {
			events[i] = randEvent(rng, table)
		}
		r.Match = event.WrapMatch(events)
	default:
		r.Kind = asp.KindEvent
		r.Event = randEvent(rng, table)
	}
	if rng.Intn(3) == 0 {
		// Sampled records carry the trace handoff timestamp.
		r.TraceNs = 1 + rng.Int63()
	}
	return r
}

func recordsEqual(t *testing.T, want, got asp.Record) {
	t.Helper()
	if want.Kind != got.Kind || want.Port != got.Port || want.Src != got.Src || want.TS != got.TS {
		t.Fatalf("record header mismatch: want %+v got %+v", want, got)
	}
	if want.TraceNs != got.TraceNs {
		t.Fatalf("trace context mismatch: want %d got %d", want.TraceNs, got.TraceNs)
	}
	switch want.Kind {
	case asp.KindEvent:
		if want.Event != got.Event {
			t.Fatalf("event mismatch:\nwant %+v\ngot  %+v", want.Event, got.Event)
		}
	case asp.KindMatch:
		if !reflect.DeepEqual(want.Match.Events, got.Match.Events) {
			t.Fatalf("match constituents mismatch:\nwant %+v\ngot  %+v", want.Match.Events, got.Match.Events)
		}
		if want.Match.TsB != got.Match.TsB || want.Match.TsE != got.Match.TsE {
			t.Fatalf("match interval mismatch: want [%d,%d] got [%d,%d]",
				want.Match.TsB, want.Match.TsE, got.Match.TsB, got.Match.TsE)
		}
	}
}

// downgrade rewrites a freshly encoded v3 payload to the layout the
// pre-checksum versions 1 and 2 used, by stripping the crc and seq fields:
// everything after them is byte-identical across versions.
func downgrade(t *testing.T, payload []byte, version byte) []byte {
	t.Helper()
	if payload[0] != frameVersion {
		t.Fatalf("downgrade wants a v%d payload, got v%d", frameVersion, payload[0])
	}
	_, n := binary.Uvarint(payload[5:]) // seq field
	if n <= 0 {
		t.Fatal("v3 payload without a decodable seq")
	}
	return append([]byte{version}, payload[5+n:]...)
}

// TestFrameRoundTripProperty: encode→decode is the identity for random
// batches of every record kind, including nested match constituents, and
// the sequence number survives the trip.
func TestFrameRoundTripProperty(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		nodeID := rng.Intn(64)
		target := rng.Intn(16)
		seq := rng.Uint64() >> uint(rng.Intn(64)) // small and huge seqs alike
		batch := make([]asp.Record, rng.Intn(32))
		for i := range batch {
			batch[i] = randRecord(rng, table)
		}
		frame, err := AppendFrame(nil, table, seq, nodeID, target, batch)
		if err != nil {
			t.Fatalf("trial %d: encode: %v", trial, err)
		}
		n := binary.LittleEndian.Uint32(frame)
		if int(n) != len(frame)-4 {
			t.Fatalf("trial %d: length prefix %d, frame body %d", trial, n, len(frame)-4)
		}
		hdr, got, err := DecodeFrame(frame[4:], table)
		if err != nil {
			t.Fatalf("trial %d: decode: %v", trial, err)
		}
		if hdr.NodeID != nodeID || hdr.Target != target {
			t.Fatalf("trial %d: addressed (%d,%d), decoded (%d,%d)", trial, nodeID, target, hdr.NodeID, hdr.Target)
		}
		if hdr.Seq != seq {
			t.Fatalf("trial %d: seq %d in, %d out", trial, seq, hdr.Seq)
		}
		if len(got) != len(batch) {
			t.Fatalf("trial %d: %d records in, %d out", trial, len(batch), len(got))
		}
		for i := range batch {
			recordsEqual(t, batch[i], got[i])
		}
	}
}

// TestFrameAppendsToDst: AppendFrame appends after existing bytes (the
// transport reuses one buffer per connection).
func TestFrameAppendsToDst(t *testing.T) {
	table := testTable()
	prefix := []byte("existing")
	frame, err := AppendFrame(append([]byte(nil), prefix...), table, 9, 3, 1, []asp.Record{{Kind: asp.KindEOS, Src: 2}})
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.HasPrefix(frame, prefix) {
		t.Fatalf("dst prefix clobbered: %q", frame[:len(prefix)])
	}
	n := binary.LittleEndian.Uint32(frame[len(prefix):])
	if int(n) != len(frame)-len(prefix)-4 {
		t.Fatalf("length prefix %d, body %d", n, len(frame)-len(prefix)-4)
	}
	if _, _, err := DecodeFrame(frame[len(prefix)+4:], table); err != nil {
		t.Fatalf("appended frame does not decode: %v", err)
	}
}

// TestFrameSpecialFloats: NaN and infinities survive the trip bit-exactly.
func TestFrameSpecialFloats(t *testing.T) {
	table := testTable()
	e := event.Event{Type: table.toLocal[0], Lat: math.NaN(), Lon: math.Inf(1), Value: math.Inf(-1), TS: 5}
	frame, err := AppendFrame(nil, table, 0, 0, 0, []asp.Record{{Kind: asp.KindEvent, TS: 5, Event: e}})
	if err != nil {
		t.Fatal(err)
	}
	_, got, err := DecodeFrame(frame[4:], table)
	if err != nil {
		t.Fatal(err)
	}
	g := got[0].Event
	if !math.IsNaN(g.Lat) || !math.IsInf(g.Lon, 1) || !math.IsInf(g.Value, -1) {
		t.Fatalf("special floats corrupted: %+v", g)
	}
}

// TestChecksumDetectsBitFlips: flipping any single bit anywhere in a
// payload, the version byte included, must be rejected — this is the wire-
// corruption guarantee netcorrupt chaos leans on.
func TestChecksumDetectsBitFlips(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(99))
	batch := make([]asp.Record, 8)
	for i := range batch {
		batch[i] = randRecord(rng, table)
	}
	frame, err := AppendFrame(nil, table, 7, 1, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]
	for off := 0; off < len(payload); off++ {
		bad := append([]byte(nil), payload...)
		bad[off] ^= 1 << uint(rng.Intn(8))
		if _, _, err := DecodeFrame(bad, table); err == nil {
			t.Fatalf("bit flip at payload byte %d went undetected", off)
		}
	}
}

// TestEncodeRejectsForeignType: an event type outside the job's stream
// list is a structured error, not silent corruption.
func TestEncodeRejectsForeignType(t *testing.T) {
	table := testTable()
	foreign := event.RegisterType("CodecForeignType")
	_, err := AppendFrame(nil, table, 0, 0, 0, []asp.Record{{Kind: asp.KindEvent, Event: event.Event{Type: foreign}}})
	if err == nil {
		t.Fatal("encoding a foreign event type should fail")
	}
}

// TestDecodeRejectsCorruption: version skew — including genuine frames of
// the pre-checksum versions 1 and 2 — truncation and trailing garbage all
// yield errors, never panics or silent data.
func TestDecodeRejectsCorruption(t *testing.T) {
	table := testTable()
	rng := rand.New(rand.NewSource(11))
	batch := make([]asp.Record, 8)
	for i := range batch {
		batch[i] = randRecord(rng, table)
	}
	frame, err := AppendFrame(nil, table, 0, 1, 0, batch)
	if err != nil {
		t.Fatal(err)
	}
	payload := frame[4:]

	bad := append([]byte(nil), payload...)
	bad[0] = frameVersion + 1
	if _, _, err := DecodeFrame(bad, table); err == nil {
		t.Error("version skew accepted")
	}
	for _, version := range []byte{0, 1, 2} {
		_, _, err := DecodeFrame(downgrade(t, payload, version), table)
		if err == nil || !strings.Contains(err.Error(), "frame version") {
			t.Errorf("v%d frame: err = %v, want the version error", version, err)
		}
	}
	for cut := 1; cut < len(payload); cut += 7 {
		if _, got, err := DecodeFrame(payload[:cut], table); err == nil && len(got) == len(batch) {
			t.Errorf("truncation at %d accepted with full batch", cut)
		}
	}
	if _, _, err := DecodeFrame(append(append([]byte(nil), payload...), 0xFF), table); err == nil {
		t.Error("trailing garbage accepted")
	}
}

// FuzzDecodeFrame drives the decoder with arbitrary payloads: it must
// never panic, must reject every payload whose version byte is not the
// current one, and whatever it accepts must re-encode to an equivalent
// decode (decode∘encode∘decode = decode).
func FuzzDecodeFrame(f *testing.F) {
	table := testTable()
	rng := rand.New(rand.NewSource(3))
	seed := func(version byte, trace bool) []byte {
		batch := make([]asp.Record, rng.Intn(6))
		for j := range batch {
			batch[j] = randRecord(rng, table)
			if !trace {
				batch[j].TraceNs = 0
			}
		}
		frame, err := AppendFrame(nil, table, uint64(rng.Intn(1<<30)), rng.Intn(8), rng.Intn(4), batch)
		if err != nil {
			f.Fatal(err)
		}
		payload := append([]byte(nil), frame[4:]...)
		if version == frameVersion {
			return payload
		}
		_, n := binary.Uvarint(payload[5:])
		return append([]byte{version}, payload[5+n:]...)
	}
	for i := 0; i < 8; i++ {
		f.Add(seed(frameVersion, true))
	}
	// Old-version seeds, which must be rejected: stripping crc+seq yields
	// genuine v2/v1 frames.
	for i := 0; i < 4; i++ {
		f.Add(seed(2, true))
		f.Add(seed(1, false))
	}
	f.Add([]byte{})
	f.Add([]byte{frameVersion})
	f.Add([]byte{1})
	f.Fuzz(func(t *testing.T, payload []byte) {
		hdr, batch, err := DecodeFrame(payload, table)
		if err != nil {
			return
		}
		if payload[0] != frameVersion {
			t.Fatalf("version %d frame accepted", payload[0])
		}
		frame, err := AppendFrame(nil, table, hdr.Seq, hdr.NodeID, hdr.Target, batch)
		if err != nil {
			t.Fatalf("decoded batch failed to re-encode: %v", err)
		}
		hdr2, batch2, err := DecodeFrame(frame[4:], table)
		if err != nil {
			t.Fatalf("re-encoded frame failed to decode: %v", err)
		}
		if hdr2.NodeID != hdr.NodeID || hdr2.Target != hdr.Target || len(batch2) != len(batch) {
			t.Fatalf("re-decode drifted: (%d,%d,%d) vs (%d,%d,%d)",
				hdr.NodeID, hdr.Target, len(batch), hdr2.NodeID, hdr2.Target, len(batch2))
		}
	})
}
