package asp

import (
	"cep2asp/internal/event"
)

// Operator is the unit of computation of a dataflow node. One Operator
// value is created per parallel instance, so implementations need no
// internal locking: the engine serializes all calls to a given instance.
type Operator interface {
	// OnRecord processes one data record arriving on the given port. r
	// points into the inbound batch and is valid only during the call: an
	// operator keeps a copy (*r), never r, and never writes through it.
	// Collector.Emit(r) forwards it.
	OnRecord(port int, r *Record, out *Collector)
	// OnWatermark is invoked when the instance's merged input watermark
	// advances to wm; window operators fire completed windows here. The
	// engine forwards the watermark downstream after this call returns.
	OnWatermark(wm event.Time, out *Collector)
	// OnClose is invoked once after all inputs reached end-of-stream and a
	// final MaxWatermark has been delivered; remaining state should flush.
	OnClose(out *Collector)
}

// WatermarkHolder is implemented by operators that may emit records with
// event times earlier than their input watermark (e.g. the NSEQ
// next-occurrence operator, which releases T1 events only once their
// absence interval is decided). The engine forwards
// min(input watermark, Hold()) downstream.
type WatermarkHolder interface {
	// Hold returns the earliest event time the operator may still emit,
	// minus one, or event.MaxWatermark when nothing is held.
	Hold() event.Time
}

// Snapshotter is implemented by stateful operators that participate in
// aligned-barrier checkpointing. SnapshotState is invoked by the engine
// once the instance has aligned a barrier across all input senders — no
// other call is concurrent with it — and must return a self-contained
// serialization of the instance's state. RestoreState is invoked once,
// before any record is delivered, when the engine recovers from a
// checkpoint. Operators not implementing Snapshotter are treated as
// stateless: they acknowledge checkpoints with empty state.
type Snapshotter interface {
	SnapshotState() ([]byte, error)
	RestoreState(data []byte) error
}

// BaseOperator provides no-op OnWatermark and OnClose for stateless
// operators; embed it and implement OnRecord.
type BaseOperator struct{}

// OnWatermark implements Operator.
func (BaseOperator) OnWatermark(event.Time, *Collector) {}

// OnClose implements Operator.
func (BaseOperator) OnClose(*Collector) {}

// passOperator forwards records unchanged; union nodes use it, the actual
// merge being performed by the engine's multi-sender channels.
type passOperator struct{ BaseOperator }

func (passOperator) OnRecord(_ int, r *Record, out *Collector) { out.Emit(r) }

// funcOperator adapts a plain function as an operator, for tests.
type funcOperator struct {
	BaseOperator
	fn func(port int, r *Record, out *Collector)
}

func (f *funcOperator) OnRecord(port int, r *Record, out *Collector) { f.fn(port, r, out) }
