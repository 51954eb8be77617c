package exchange

import (
	"encoding/gob"
	"io"
	"log/slog"
	"net"
	"slices"
	"sync"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/trace"
)

// The control plane is a single long-lived TCP connection per worker,
// carrying gob-encoded Envelopes. A distributed job runs in three phases so
// that no worker dials a peer that has not built its graph yet:
//
//	worker → coordinator   Hello      (once, on join)
//	coordinator → workers  Prepare    (job spec) … workers reply Ready
//	coordinator → workers  Connect    … workers dial peers, reply Connected
//	coordinator → workers  Start      … workers run, reply Done
//
// While a job runs, workers forward checkpoint acknowledgements (Ack,
// Finish) upstream and the coordinator broadcasts checkpoint barriers
// (Barrier) and aborts (Abort) downstream. Every per-attempt message
// carries the attempt number so messages of a superseded attempt are
// discarded instead of corrupting the next one.

// noLog swallows records from components whose owner did not configure a
// logger; the huge level threshold filters everything before formatting.
var noLog = slog.New(slog.NewTextHandler(io.Discard, &slog.HandlerOptions{Level: slog.Level(127)}))

// MsgKind discriminates control-plane envelopes.
type MsgKind int

const (
	MsgHello MsgKind = iota + 1
	MsgPrepare
	MsgReady
	MsgConnect
	MsgConnected
	MsgStart
	MsgBarrier
	MsgAck
	MsgFinish
	MsgDone
	MsgAbort
	MsgStats
)

func (k MsgKind) String() string {
	switch k {
	case MsgHello:
		return "hello"
	case MsgPrepare:
		return "prepare"
	case MsgReady:
		return "ready"
	case MsgConnect:
		return "connect"
	case MsgConnected:
		return "connected"
	case MsgStart:
		return "start"
	case MsgBarrier:
		return "barrier"
	case MsgAck:
		return "ack"
	case MsgFinish:
		return "finish"
	case MsgDone:
		return "done"
	case MsgAbort:
		return "abort"
	case MsgStats:
		return "stats"
	}
	return "msg(?)"
}

// Envelope is the one gob-encoded control-plane message type; which fields
// are meaningful depends on Kind. A flat struct keeps the wire format free
// of gob interface registration.
type Envelope struct {
	Kind    MsgKind
	Attempt int

	// Hello.
	Name     string
	DataAddr string

	// Prepare.
	Spec *JobSpec

	// Barrier and Ack: the checkpoint ID.
	CheckpointID int64
	// Ack / Finish: the acknowledging task and its serialized state.
	Task    string
	State   []byte
	PauseNs int64

	// Ready / Connected / Done: the phase outcome ("" = success).
	Err string
	// Done: whether the reported failure is restartable (worker-side
	// errors.As against supervise.RestartableError, flattened because the
	// concrete error types do not survive gob).
	Restartable bool

	// Stats: periodic metrics-federation push from a running worker.
	Stats *WorkerStats
}

// WorkerStats is one worker's periodic observability push: a full registry
// snapshot (histograms ship their bucket state for exact merging), process
// resource gauges, and the trace spans collected since the last push. The
// coordinator folds these into the /cluster/* surface and its job tracer.
type WorkerStats struct {
	Worker     int
	Name       string
	Attempt    int
	Goroutines int
	HeapBytes  uint64
	Snap       obs.Snapshot
	Spans      []trace.Span
}

// StreamSpec ships one input stream: its type name (the canonical identity
// across processes) and its full time-ordered event data. Event Type values
// inside Events are process-local to the sender; receivers rewrite them
// after registering Name locally.
type StreamSpec struct {
	Name   string
	Events []event.Event
}

// engineSettings carries the asp.Config values every worker must share for
// the graphs to be identical (same fingerprint, same task IDs) and to run
// under the same overload spec (budgets, policy, shed strategy, memory
// admission). The rest of asp.Config is process-local: each worker supplies
// its own registry, injector, tracer, logger, checkpoint wiring and
// distribution splice.
type engineSettings struct {
	ChannelCapacity   int
	WatermarkInterval int
	BatchSize         int
	Overload          overload.Spec
}

// config is the shared part of a worker's asp.Config.
func (e engineSettings) config() asp.Config {
	return asp.Config{
		ChannelCapacity:   e.ChannelCapacity,
		WatermarkInterval: e.WatermarkInterval,
		BatchSize:         e.BatchSize,
		Overload:          e.Overload,
	}
}

// planSpec ships one plan as SEA source plus the options it was translated
// under; every worker parses and translates it again, so all build the same
// graph.
type planSpec struct {
	Pattern string
	Opts    core.Options
	FCEP    bool
}

// JobSpec is everything a worker needs to build and run its slice of one
// attempt: the plans, the engine and build settings, the input streams and
// the worker topology. Shipped in Prepare.
type JobSpec struct {
	// Attempt numbers the coordinator's attempts, starting at 0; data
	// connections and per-attempt control messages are tagged with it.
	Attempt int
	// Me is the receiving worker's index; Workers lists every worker's
	// data-plane address, indexed by worker (0 = coordinator).
	Me      int
	Workers []string

	Plans   []planSpec
	Engine  engineSettings
	Streams []StreamSpec

	Lateness         event.Time
	KeepMatches      bool
	SourceRatePerSec float64

	// TraceRate is the end-to-end tracing sample rate (0 disables, 1 traces
	// everything). Sampling is deterministic by event identity, so every
	// worker samples the same records without coordination.
	TraceRate float64

	// Checkpointing makes workers run the remote checkpoint protocol
	// (acknowledgements forwarded to the coordinator); Snapshot, when
	// non-nil, is restored before running (recovery attempts).
	Checkpointing bool
	Snapshot      *checkpoint.Snapshot

	// Faults arms deterministic chaos injection on the receiving worker.
	// Only shipped on attempt 0: a fault that killed a worker must not
	// re-fire on the replacement during replay.
	Faults []chaos.Fault
}

// newJobSpec is the part of a JobSpec every process of one attempt shares:
// each plan as pattern text and options, the shared engine settings and the
// build settings of bc, and bc's streams in type-name order.
func newJobSpec(plans []*core.Plan, bc core.BuildConfig) *JobSpec {
	e := bc.Engine
	s := &JobSpec{
		Engine: engineSettings{
			ChannelCapacity:   e.ChannelCapacity,
			WatermarkInterval: e.WatermarkInterval,
			BatchSize:         e.BatchSize,
			Overload:          e.Overload,
		},
		Lateness:         bc.Lateness,
		KeepMatches:      bc.KeepMatches,
		SourceRatePerSec: bc.SourceRatePerSec,
		TraceRate:        e.Trace.Rate(),
		Checkpointing:    e.Checkpoint != nil,
	}
	for _, p := range plans {
		_, fcep := p.Root.(*core.CEPPlan)
		s.Plans = append(s.Plans, planSpec{Pattern: p.Pattern.String(), Opts: p.Opts, FCEP: fcep})
	}
	names := make([]string, 0, len(bc.Data))
	byName := make(map[string]event.Type, len(bc.Data))
	for t := range bc.Data {
		n := event.TypeName(t)
		names = append(names, n)
		byName[n] = t
	}
	slices.Sort(names)
	for _, n := range names {
		s.Streams = append(s.Streams, StreamSpec{Name: n, Events: bc.Data[byName[n]]})
	}
	return s
}

// ctrlConn wraps one control-plane connection with gob codecs. Sends are
// serialized by a mutex (the engine's ack forwarder and the worker's phase
// replies share the conn); receives happen from a single reader goroutine.
type ctrlConn struct {
	c   net.Conn
	dec *gob.Decoder

	wmu sync.Mutex
	enc *gob.Encoder
}

func newCtrlConn(c net.Conn) *ctrlConn {
	return &ctrlConn{c: c, dec: gob.NewDecoder(c), enc: gob.NewEncoder(c)}
}

func (cc *ctrlConn) send(e *Envelope) error {
	cc.wmu.Lock()
	defer cc.wmu.Unlock()
	return cc.enc.Encode(e)
}

func (cc *ctrlConn) recv() (*Envelope, error) {
	var e Envelope
	if err := cc.dec.Decode(&e); err != nil {
		return nil, err
	}
	return &e, nil
}

func (cc *ctrlConn) close() { cc.c.Close() }
