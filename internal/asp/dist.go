package asp

import (
	"fmt"
	"sync/atomic"
)

// Distributed execution support. The engine stays transport-agnostic: a
// DistSpec tells Execute which slice of the graph this process owns and
// hands it a Transport that moves record batches to and from the other
// worker processes. Everything else — graph shape, channel wiring, operator
// code, watermark merging, barrier alignment — is identical to a local run,
// because every worker builds the *same* graph and only spawns the
// instances it owns. Remote edges are spliced in behind the existing
// channel abstraction:
//
//   - A locally-owned instance whose node has remote senders receives their
//     records as decoded batches on its ordinary input channel, which the
//     Transport delivers into (Ingress).
//   - A remotely-owned instance with local senders is replaced by a proxy
//     channel drained by an egress pump goroutine that hands each batch to
//     the Transport (Egress). Senders are oblivious: they keep writing to
//     e.chans[target].
//
// Watermarks, EOS markers and checkpoint barriers flow through network
// edges unchanged, so event-time processing and aligned-barrier
// checkpointing extend to process granularity for free.

// DistSpec configures one worker process's slice of a distributed
// execution.
type DistSpec struct {
	// Worker is this process's worker index (0..N-1). By convention the
	// coordinator process participates as worker 0.
	Worker int
	// Workers is the total worker count; Owner must return values in
	// [0, Workers).
	Workers int
	// Owner assigns each (node, instance) to a worker. It must be a pure
	// function and identical across all workers of a job, or the workers
	// would disagree about who runs what.
	Owner func(node string, instance int) int
	// Transport moves record batches across process boundaries.
	Transport Transport
}

// Transport is the network exchange layer of a distributed execution
// (implemented by internal/exchange; the engine never imports net). Execute
// calls Ingress/Egress during graph wiring, before any instance starts.
type Transport interface {
	// Ingress registers the input channel of a locally-owned instance:
	// frames addressed to (nodeID, target) are decoded and delivered into
	// ch, blocking when it is full (backpressure extends over the
	// network). queued, when non-nil, is incremented by the record count
	// of each delivered batch (the shared queue-depth gauge).
	Ingress(node string, nodeID, target int, ch chan<- []Record, queued *atomic.Int64)
	// Egress returns a function transferring one batch to the remote
	// instance (nodeID, target) owned by worker owner. The returned
	// function is called from a single pump goroutine; it must not retain
	// the batch after returning.
	Egress(owner int, node string, nodeID, target int) (func(batch []Record) error, error)
}

// NetworkFailure reports a failed batch transfer on a network edge — a
// peer worker died or the connection broke mid-run. It is restartable: the
// supervisor replaces the dead worker and restores from the latest
// checkpoint, exactly like an in-process operator panic.
type NetworkFailure struct {
	// Node/Target identify the remote instance the transfer addressed;
	// Worker is the peer that owned it.
	Node   string
	Target int
	Worker int
	Err    error
}

func (e *NetworkFailure) Error() string {
	return fmt.Sprintf("asp: network send to %s/%d on worker %d: %v", e.Node, e.Target, e.Worker, e.Err)
}

func (e *NetworkFailure) Unwrap() error { return e.Err }

// Restartable marks the failure recoverable by a supervised restart.
func (e *NetworkFailure) Restartable() bool { return true }

// NodeInfo describes one graph node for placement and tooling.
type NodeInfo struct {
	ID          int
	Name        string
	Parallelism int
	Source      bool
}

// Nodes returns the graph's nodes in construction order. Placement
// functions and tests use it to locate nodes by name without reaching into
// engine internals.
func (env *Environment) Nodes() []NodeInfo {
	out := make([]NodeInfo, len(env.nodes))
	for i, n := range env.nodes {
		out[i] = NodeInfo{ID: n.id, Name: n.name, Parallelism: n.parallelism, Source: n.source != nil}
	}
	return out
}
