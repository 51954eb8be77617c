// Package exchange is the distributed execution layer: it moves the
// engine's []Record batches — events, composite matches, watermarks,
// checkpoint barriers and EOS markers — between worker processes over TCP,
// assigns graph instances to workers, and drives distributed job start,
// checkpointing and recovery. The asp engine stays network-free: it sees
// the exchange only through the asp.Transport interface.
package exchange

import (
	"encoding/binary"
	"fmt"
	"hash/crc32"
	"math"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
)

// frameVersion is bumped on any change to the frame or record layout; a
// decoder refuses frames of any other version instead of misreading them.
// Version 3 carries the optional per-record trace context (kindTraceFlag),
// the CRC32-C checksum and the per-connection-stream frame sequence number,
// the integrity layer of the network fault tolerance design (corrupted
// frames are rejected, lost or duplicated frames show up as sequence gaps at
// the receiver).
const frameVersion = 3

// castagnoli is the CRC32-C polynomial table (the iSCSI/ext4 checksum,
// hardware-accelerated on amd64/arm64). The checksum covers everything
// after the crc field itself, so any bit flip in seq, addressing or records
// is caught before the payload is interpreted.
var castagnoli = crc32.MakeTable(crc32.Castagnoli)

// kindTraceFlag marks a record whose kind byte is followed (after the ts
// varint) by a uvarint trace timestamp (asp.Record.TraceNs). Record kinds
// occupy the low bits; the flag rides the top bit.
const kindTraceFlag = 0x80

// TypeTable translates event types between their process-local registry
// values and stable wire identifiers. Type registries grow in registration
// order, so two processes generally disagree about the numeric value of
// "QnVQuantity"; the job spec's stream list fixes a canonical order, and
// the wire carries the index into it (1-based; 0 is reserved).
type TypeTable struct {
	toWire  map[event.Type]uint64
	toLocal []event.Type // index = wire id - 1
}

// NewTypeTable builds the table for the given canonical stream type names,
// registering each name in the process-local registry (idempotently).
func NewTypeTable(names []string) *TypeTable {
	t := &TypeTable{
		toWire:  make(map[event.Type]uint64, len(names)),
		toLocal: make([]event.Type, len(names)),
	}
	for i, name := range names {
		lt := event.RegisterType(name)
		t.toWire[lt] = uint64(i + 1)
		t.toLocal[i] = lt
	}
	return t
}

// Frame layout (data plane), after the 4-byte little-endian length prefix:
//
//	version  1 byte
//	crc32c   4 bytes LE — CRC32-C over every following byte
//	seq      uvarint    — frame sequence number, continuous per
//	                      sender/peer stream across reconnects, so the
//	                      receiver can tell a healed reset (seq continues)
//	                      from in-flight loss or duplication (seq jumps)
//	nodeID   uvarint   — graph node of the receiving instance
//	target   uvarint   — instance index within the node
//	count    uvarint   — records in the batch
//	records  count × record
//
// Record layout:
//
//	kind     1 byte    — asp.RecordKind; top bit = kindTraceFlag
//	port     1 byte
//	src      uvarint   — sender ID for watermark merging
//	ts       varint    — record timestamp (watermark time / barrier ID)
//	tracens  uvarint   — only when kindTraceFlag is set: trace handoff
//	                     timestamp (UnixNano), non-zero iff sampled
//	body     kind-dependent:
//	           KindEvent:  1 event (timestamps delta-coded against ts)
//	           KindMatch:  uvarint n, then n constituent events
//	           KindWatermark / KindEOS / KindBarrier: empty
//
// Event layout: type uvarint (wire id), ts varint (delta from base), id
// varint, lat/lon/value 8-byte LE float bits, ingest varint, auxts varint
// (delta from base).

// AppendFrame encodes one batch addressed to (nodeID, target) with the
// given stream sequence number and appends the complete frame — length
// prefix, checksum included — to dst.
func AppendFrame(dst []byte, table *TypeTable, seq uint64, nodeID, target int, batch []asp.Record) ([]byte, error) {
	start := len(dst)
	dst = append(dst, 0, 0, 0, 0) // length back-patched below
	dst = append(dst, frameVersion)
	dst = append(dst, 0, 0, 0, 0) // crc32c back-patched below
	body := len(dst)
	dst = binary.AppendUvarint(dst, seq)
	dst = binary.AppendUvarint(dst, uint64(nodeID))
	dst = binary.AppendUvarint(dst, uint64(target))
	dst = binary.AppendUvarint(dst, uint64(len(batch)))
	for i := range batch {
		var err error
		dst, err = appendRecord(dst, table, &batch[i])
		if err != nil {
			return nil, err
		}
	}
	binary.LittleEndian.PutUint32(dst[start:], uint32(len(dst)-start-4))
	binary.LittleEndian.PutUint32(dst[start+5:], crc32.Checksum(dst[body:], castagnoli))
	return dst, nil
}

func appendRecord(dst []byte, table *TypeTable, r *asp.Record) ([]byte, error) {
	kind := byte(r.Kind)
	if r.TraceNs != 0 {
		kind |= kindTraceFlag
	}
	dst = append(dst, kind, r.Port)
	dst = binary.AppendUvarint(dst, uint64(r.Src))
	dst = binary.AppendVarint(dst, int64(r.TS))
	if r.TraceNs != 0 {
		dst = binary.AppendUvarint(dst, uint64(r.TraceNs))
	}
	switch r.Kind {
	case asp.KindEvent:
		return appendEvent(dst, table, r.Event, r.TS)
	case asp.KindMatch:
		dst = binary.AppendUvarint(dst, uint64(len(r.Match.Events)))
		for _, e := range r.Match.Events {
			var err error
			dst, err = appendEvent(dst, table, e, r.TS)
			if err != nil {
				return nil, err
			}
		}
		return dst, nil
	case asp.KindWatermark, asp.KindEOS, asp.KindBarrier:
		return dst, nil
	}
	return nil, fmt.Errorf("exchange: cannot encode record kind %d", r.Kind)
}

func appendEvent(dst []byte, table *TypeTable, e event.Event, base event.Time) ([]byte, error) {
	wire, ok := table.toWire[e.Type]
	if !ok {
		return nil, fmt.Errorf("exchange: event type %s is not in the job's stream list", event.TypeName(e.Type))
	}
	dst = binary.AppendUvarint(dst, wire)
	dst = binary.AppendVarint(dst, int64(e.TS-base))
	dst = binary.AppendVarint(dst, e.ID)
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Lat))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Lon))
	dst = binary.LittleEndian.AppendUint64(dst, math.Float64bits(e.Value))
	dst = binary.AppendVarint(dst, e.Ingest)
	dst = binary.AppendVarint(dst, int64(e.AuxTS-base))
	return dst, nil
}

// decoder walks one frame payload (everything after the length prefix).
type decoder struct {
	buf []byte
	off int
	err error
}

func (d *decoder) fail(format string, args ...any) {
	if d.err == nil {
		d.err = fmt.Errorf("exchange: "+format, args...)
	}
}

func (d *decoder) byte() byte {
	if d.err != nil {
		return 0
	}
	if d.off >= len(d.buf) {
		d.fail("frame truncated at byte %d", d.off)
		return 0
	}
	b := d.buf[d.off]
	d.off++
	return b
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad uvarint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail("bad varint at byte %d", d.off)
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) float() float64 {
	if d.err != nil {
		return 0
	}
	if d.off+8 > len(d.buf) {
		d.fail("frame truncated at byte %d", d.off)
		return 0
	}
	v := math.Float64frombits(binary.LittleEndian.Uint64(d.buf[d.off:]))
	d.off += 8
	return v
}

func (d *decoder) event(table *TypeTable, base event.Time) event.Event {
	var e event.Event
	wire := d.uvarint()
	if d.err == nil {
		if wire == 0 || wire > uint64(len(table.toLocal)) {
			d.fail("unknown wire type id %d", wire)
		} else {
			e.Type = table.toLocal[wire-1]
		}
	}
	e.TS = base + event.Time(d.varint())
	e.ID = d.varint()
	e.Lat = d.float()
	e.Lon = d.float()
	e.Value = d.float()
	e.Ingest = d.varint()
	e.AuxTS = base + event.Time(d.varint())
	return e
}

// maxFrameRecords bounds the decoded batch size, protecting the receiver
// from a corrupt or hostile count field before any allocation happens.
const maxFrameRecords = 1 << 20

// FrameHeader is the addressing and integrity metadata of one decoded
// frame.
type FrameHeader struct {
	NodeID, Target int
	Seq            uint64
}

// DecodeFrame decodes one frame payload (after the length prefix) into its
// header and record batch, verifying the checksum first. The batch is
// freshly allocated; receivers recycle it through the engine's batch pool.
func DecodeFrame(payload []byte, table *TypeTable) (hdr FrameHeader, batch []asp.Record, err error) {
	if len(payload) == 0 {
		return hdr, nil, fmt.Errorf("exchange: empty frame")
	}
	if payload[0] != frameVersion {
		return hdr, nil, fmt.Errorf("exchange: frame version %d, want %d", payload[0], frameVersion)
	}
	if len(payload) < 5 {
		return hdr, nil, fmt.Errorf("exchange: frame truncated before checksum")
	}
	want := binary.LittleEndian.Uint32(payload[1:5])
	if got := crc32.Checksum(payload[5:], castagnoli); got != want {
		return hdr, nil, fmt.Errorf("exchange: frame checksum mismatch: crc32c %08x, frame claims %08x — payload corrupted on the wire", got, want)
	}
	d := &decoder{buf: payload, off: 5}
	hdr.Seq = d.uvarint()
	hdr.NodeID = int(d.uvarint())
	hdr.Target = int(d.uvarint())
	count := d.uvarint()
	if d.err == nil && count > maxFrameRecords {
		d.fail("frame claims %d records", count)
	}
	if d.err != nil {
		return hdr, nil, d.err
	}
	batch = make([]asp.Record, 0, count)
	for i := uint64(0); i < count && d.err == nil; i++ {
		var r asp.Record
		kind := d.byte()
		traced := kind&kindTraceFlag != 0
		r.Kind = asp.RecordKind(kind &^ kindTraceFlag)
		r.Port = d.byte()
		r.Src = uint16(d.uvarint())
		r.TS = event.Time(d.varint())
		if traced {
			r.TraceNs = int64(d.uvarint())
		}
		switch r.Kind {
		case asp.KindEvent:
			r.Event = d.event(table, r.TS)
		case asp.KindMatch:
			n := d.uvarint()
			if d.err == nil && n > maxFrameRecords {
				d.fail("match claims %d constituents", n)
				break
			}
			events := make([]event.Event, 0, n)
			for j := uint64(0); j < n && d.err == nil; j++ {
				events = append(events, d.event(table, r.TS))
			}
			if d.err == nil {
				r.Match = event.WrapMatch(events)
			}
		case asp.KindWatermark, asp.KindEOS, asp.KindBarrier:
		default:
			d.fail("unknown record kind %d", r.Kind)
		}
		if d.err == nil {
			batch = append(batch, r)
		}
	}
	if d.err != nil {
		return hdr, nil, d.err
	}
	if d.off != len(payload) {
		return hdr, nil, fmt.Errorf("exchange: %d trailing bytes after frame", len(payload)-d.off)
	}
	return hdr, batch, nil
}
