package cep

import (
	"bytes"
	"encoding/gob"
	"unsafe"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
)

// NewOperator adapts an NFA program to an asp.Operator — the single unary
// CEP operator of the hybrid approach (§1, approach 2). Attach it with
// Stream.Process after unioning all involved input streams.
//
// The order-based automaton requires its input in event-time order, but the
// union of several sources interleaves by arrival. Like FlinkCEP under
// event time, the operator therefore buffers arriving events in a priority
// queue and feeds them to the automaton in timestamp order once the
// watermark passes — buffering that contributes to the operator's state
// footprint, exactly as the paper describes (§5.2.1: "this evaluation
// process requires buffering of events").
func NewOperator(prog *nfa.Program) (func(int) asp.Operator, error) {
	// Fail fast: building one machine validates the program.
	if _, err := nfa.NewMachine(prog); err != nil {
		return nil, err
	}
	return func(int) asp.Operator {
		m, _ := nfa.NewMachine(prog)
		o := &cepOperator{machine: m}
		o.emit = func(m *event.Match) { o.out.EmitMatch(m.TsE, m) }
		return o
	}, nil
}

// eventHeap is the reorder buffer: a binary min-heap by timestamp over the
// events themselves, so a push or pop moves events inside one slice and
// allocates only when the slice grows. Like any binary heap it is not
// stable: events of equal timestamp pop in no particular order.
type eventHeap []event.Event

func (h *eventHeap) push(e event.Event) {
	s := append(*h, e)
	*h = s
	i := len(s) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if s[parent].TS <= e.TS {
			break
		}
		s[i] = s[parent]
		i = parent
	}
	s[i] = e
}

// pop removes and returns the earliest event.
func (h *eventHeap) pop() event.Event {
	s := *h
	n := len(s) - 1
	top := s[0]
	*h = s[:n]
	if n > 0 {
		s[:n].down(0, s[n])
	}
	return top
}

// down sinks e from the hole at i to its place among the heap's children.
func (h eventHeap) down(i int, e event.Event) {
	n := len(h)
	for {
		c := 2*i + 1
		if c >= n {
			break
		}
		if r := c + 1; r < n && h[r].TS < h[c].TS {
			c = r
		}
		if h[c].TS >= e.TS {
			break
		}
		h[i] = h[c]
		i = c
	}
	h[i] = e
}

// init establishes the heap order over an arbitrarily ordered slice.
func (h eventHeap) init() {
	for i := len(h)/2 - 1; i >= 0; i-- {
		h.down(i, h[i])
	}
}

type cepOperator struct {
	machine *nfa.Machine
	buffer  eventHeap
	// emit forwards a match to out, the collector of the call in progress;
	// built once so a watermark does not allocate a closure.
	emit      nfa.Emit
	out       *asp.Collector
	lastState int64
	// bufLost bounds matches lost to reorder-buffer drops; lastLost is the
	// portion of the combined (machine + buffer) loss bound already flushed
	// to the collector's recall account.
	bufLost  float64
	lastLost float64
}

func (o *cepOperator) OnRecord(_ int, r *asp.Record, out *asp.Collector) {
	if r.Kind != asp.KindEvent {
		return // the CEP operator consumes plain events only
	}
	o.buffer.push(r.Event)
	// Charged at once, not netted per watermark: the budget is enforced
	// between watermarks on this count.
	out.AddState(1)
}

func (o *cepOperator) OnWatermark(wm event.Time, out *asp.Collector) {
	o.out = out
	var fed int64
	for len(o.buffer) > 0 && o.buffer[0].TS <= wm {
		o.machine.OnEvent(o.buffer.pop(), o.emit)
		fed++
	}
	if fed > 0 {
		out.AddState(-fed)
	}
	o.machine.OnWatermark(wm, o.emit)
	o.reportState(out)
}

func (o *cepOperator) OnClose(*asp.Collector) {}

// cepOpState is the gob snapshot DTO of a cepOperator: the reorder buffer
// plus the automaton's own serialized state.
type cepOpState struct {
	Buffer  []event.Event
	Machine []byte
}

// SnapshotState implements asp.Snapshotter.
func (o *cepOperator) SnapshotState() ([]byte, error) {
	ms, err := o.machine.Snapshot()
	if err != nil {
		return nil, err
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(cepOpState{Buffer: o.buffer, Machine: ms}); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// RestoreState implements asp.Snapshotter.
func (o *cepOperator) RestoreState(data []byte) error {
	var st cepOpState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	if err := o.machine.Restore(st.Machine); err != nil {
		return err
	}
	o.buffer = st.Buffer
	o.buffer.init()
	o.lastState = o.machine.StateSize()
	return nil
}

// BufferedState implements asp.StateCounter: reorder buffer plus automaton
// state, matching the AddState accounting of OnRecord/reportState.
func (o *cepOperator) BufferedState() int64 {
	return int64(len(o.buffer)) + o.machine.StateSize()
}

// Hold implements asp.WatermarkHolder: negated matches are emitted
// retrospectively with their (past) last-constituent timestamps.
func (o *cepOperator) Hold() event.Time { return o.machine.Hold() }

func (o *cepOperator) reportState(out *asp.Collector) {
	cur := o.machine.StateSize()
	if cur == o.lastState && o.machine.LostMatchBound()+o.bufLost == o.lastLost {
		return
	}
	if delta := cur - o.lastState; delta != 0 {
		out.AddState(delta)
		o.lastState = cur
	}
	o.flushLost(out)
	// The live state gauge (partial matches plus reorder buffer — the
	// paper's key memory signal for the monolithic NFA operator, §5.2.1,
	// Fig. 5) is published by the engine from StateStats after every
	// watermark, uniformly with the ASP window operators.
}

// StateStats implements asp.StateAccountant: the reorder buffer plus the
// automaton's units, with bytes approximated from the total constituent
// events held.
func (o *cepOperator) StateStats() asp.StateStats {
	return asp.StateStats{
		Records: int64(len(o.buffer)) + o.machine.StateSize(),
		Bytes: (int64(len(o.buffer)) + o.machine.StateElems()) *
			int64(unsafe.Sizeof(event.Event{})),
	}
}

// SetStateBudget implements asp.SelfShedder: skip-till-any-match state can
// multiply within a single OnEvent call, so the automaton caps itself at
// insertion time. The cap tracks the reorder buffer dynamically — buffer
// plus machine together never exceed max.
func (o *cepOperator) SetStateBudget(max, low int64, onShed func(int64)) {
	o.machine.SetBudget(
		func() int64 { return max - int64(len(o.buffer)) },
		func() int64 { return low - int64(len(o.buffer)) },
		onShed,
	)
}

// ShedOldest implements asp.Shedder for the engine's post-call checks:
// the automaton's oldest partials and pending matches go first, then —
// only for monotone programs (nfa.Machine.Monotone) — the oldest events
// still parked in the reorder buffer. Buffered events of any other program
// are never shed: a dropped blocker, or under strict contiguity or
// skip-till-next-match a dropped event that would have broken or consumed
// a partial, would fabricate matches, violating the subset property.
func (o *cepOperator) ShedOldest(target int64, out *asp.Collector) int64 {
	return o.shed(target, out, o.machine.ShedTo)
}

// ShedLowestValue implements asp.ValueShedder: the automaton evicts in
// completion-score order (hopeless partials first, near-complete ones
// last); the reorder-buffer fallback stays oldest-first — buffered events
// have not touched the automaton yet, so age is the only signal.
func (o *cepOperator) ShedLowestValue(target int64, out *asp.Collector) int64 {
	return o.shed(target, out, o.machine.ShedLowestValue)
}

// SetShedStrategy implements asp.ShedStrategySetter, switching the
// automaton's victim selection at runtime.
func (o *cepOperator) SetShedStrategy(patternAware bool) {
	o.machine.SetPatternAware(patternAware)
}

func (o *cepOperator) shed(target int64, out *asp.Collector, shedMachine func(int64) int64) int64 {
	var dropped int64
	msTarget := target - int64(len(o.buffer))
	if msTarget < 0 {
		msTarget = 0
	}
	if d := shedMachine(msTarget); d > 0 {
		o.lastState -= d // keep the reportState diff consistent
		out.AddState(-d)
		dropped += d
	}
	if o.machine.Monotone() {
		for int64(len(o.buffer))+o.machine.StateSize() > target && len(o.buffer) > 0 {
			o.bufLost += o.machine.LostEventBound(o.buffer.pop()) // the oldest event
			out.AddState(-1)
			dropped++
		}
	}
	o.flushLost(out)
	return dropped
}

// flushLost forwards the growth of the combined loss bound (automaton
// evictions plus reorder-buffer drops) to the collector's recall account.
func (o *cepOperator) flushLost(out *asp.Collector) {
	total := o.machine.LostMatchBound() + o.bufLost
	if d := total - o.lastLost; d > 0 {
		out.AddLostMatches(d)
		o.lastLost = total
	}
}
