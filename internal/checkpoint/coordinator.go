package checkpoint

import (
	"sync"
	"time"
)

// Stat describes one completed checkpoint, for overhead reporting: the
// trigger-to-complete duration, the worst per-instance alignment stall, and
// the total serialized state size.
type Stat struct {
	ID          int64
	CompletedAt time.Time
	// Duration is the wall time from trigger to global completion.
	Duration time.Duration
	// AlignPause is the maximum barrier-alignment stall any single
	// operator instance reported: the time between its first and last
	// input barrier, during which records from already-aligned senders
	// were stashed instead of processed.
	AlignPause time.Duration
	// Bytes is the total serialized state across all tasks.
	Bytes int64
	// Tasks is the number of task acknowledgements folded into the
	// snapshot (finished tasks contribute their final state).
	Tasks int
}

// Coordinator drives the checkpoint protocol: it assigns checkpoint IDs,
// collects per-task acknowledgements carrying serialized state, and marks a
// checkpoint complete — persisting it to the store — only once every
// expected task has either acknowledged the checkpoint or finished.
//
// Finished tasks (exhausted sources, closed operators) auto-acknowledge all
// later checkpoints with their final state: a source that ended before
// barrier n was injected contributes its end-of-stream offset, which is
// consistent because every downstream operator treats the source's
// end-of-stream marker as an implicit barrier for all future checkpoints.
// At most one checkpoint is in flight at a time.
type Coordinator struct {
	// OnError, when set, receives store failures (disk full, ...); the
	// engine wires it to abort the run.
	OnError func(error)
	// OnComplete, when set, receives the Stat of every completed checkpoint
	// — the engine wires it to the tracing and metrics planes. Called with
	// the coordinator's lock held: the callback must not call back into the
	// coordinator.
	OnComplete func(Stat)

	mu          sync.Mutex
	store       Store
	fingerprint string
	expected    []string
	finished    map[string][]byte
	nextID      int64
	completed   int64
	pending     *pendingCheckpoint
	stats       []Stat
}

// Coordinator is the canonical AckSink: local runs acknowledge directly.
var _ AckSink = (*Coordinator)(nil)

type pendingCheckpoint struct {
	id       int64
	begun    time.Time
	acks     map[string][]byte
	maxPause time.Duration
	saving   bool // every task is in; the snapshot is being stored
}

// NewCoordinator creates a coordinator expecting acknowledgements from the
// given task IDs. base is the ID of the restored snapshot (0 for a fresh
// run); new checkpoints continue the sequence above it.
func NewCoordinator(store Store, fingerprint string, tasks []string, base int64) *Coordinator {
	return &Coordinator{
		store:       store,
		fingerprint: fingerprint,
		expected:    append([]string(nil), tasks...),
		finished:    make(map[string][]byte),
		nextID:      base + 1,
		completed:   base,
	}
}

// Begin starts the next checkpoint and returns its ID. It refuses (ok ==
// false) while another checkpoint is still in flight, bounding the protocol
// to one concurrent checkpoint.
func (c *Coordinator) Begin() (id int64, ok bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending != nil {
		return 0, false
	}
	id = c.nextID
	c.nextID++
	c.pending = &pendingCheckpoint{id: id, begun: time.Now(), acks: make(map[string][]byte)}
	c.maybeCompleteLocked()
	return id, true
}

// Ack records one task's snapshot for the in-flight checkpoint. pause is
// the task's barrier-alignment stall. Acks for non-pending IDs are dropped
// (they belong to a checkpoint aborted by a restart).
func (c *Coordinator) Ack(id int64, task string, state []byte, pause time.Duration) {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.pending == nil || c.pending.id != id {
		return
	}
	c.pending.acks[task] = state
	if pause > c.pending.maxPause {
		c.pending.maxPause = pause
	}
	c.maybeCompleteLocked()
}

// FinishTask marks a task as terminated with its final state; it counts as
// an acknowledgement for the in-flight and all future checkpoints.
func (c *Coordinator) FinishTask(task string, state []byte) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.finished[task] = state
	c.maybeCompleteLocked()
}

// maybeCompleteLocked assembles and persists the pending checkpoint once
// every expected task has acked or finished. A task that acked the pending
// checkpoint and then finished contributes its ack — the state at barrier
// time — not its final state. The checkpoint completes only once the store
// holds it; c.mu is released for the Save, so a slow store keeps the
// checkpoint in flight (Begin refuses) without blocking other callers.
func (c *Coordinator) maybeCompleteLocked() {
	p := c.pending
	if p == nil || p.saving {
		return
	}
	tasks := make(map[string][]byte, len(c.expected))
	for _, task := range c.expected {
		if st, ok := p.acks[task]; ok {
			tasks[task] = st
			continue
		}
		st, ok := c.finished[task]
		if !ok {
			return // still waiting on this task
		}
		tasks[task] = st
	}
	snap := &Snapshot{ID: p.id, Fingerprint: c.fingerprint, Tasks: tasks}
	p.saving = true
	c.mu.Unlock()
	err := c.store.Save(snap)
	c.mu.Lock()
	c.pending = nil
	if err != nil {
		if c.OnError != nil {
			c.OnError(err)
		}
		return
	}
	c.completed = p.id
	st := Stat{
		ID:          p.id,
		CompletedAt: time.Now(),
		Duration:    time.Since(p.begun),
		AlignPause:  p.maxPause,
		Bytes:       snap.Bytes(),
		Tasks:       len(tasks),
	}
	c.stats = append(c.stats, st)
	if c.OnComplete != nil {
		c.OnComplete(st)
	}
}

// Completed returns the highest completed checkpoint ID.
func (c *Coordinator) Completed() int64 {
	c.mu.Lock()
	defer c.mu.Unlock()
	return c.completed
}

// Stats returns the completed-checkpoint statistics in completion order.
func (c *Coordinator) Stats() []Stat {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]Stat, len(c.stats))
	copy(out, c.stats)
	return out
}
