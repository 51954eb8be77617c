package nfa

import (
	"bytes"
	"encoding/gob"
	"fmt"

	"cep2asp/internal/event"
)

// machineState is the gob snapshot DTO of a Machine: every group's partial
// matches, pending (negation-parked) matches and blocker buffers. The
// program itself is not serialized — a snapshot may only be restored into a
// machine compiled from the same program shape.
type machineState struct {
	Groups map[int64]*machineGroupState
}

type machineGroupState struct {
	Partials [][]*machinePartialState
	Pending  []*machinePendingState
	Blockers [][]event.Event
}

type machinePartialState struct {
	Events  []event.Event
	FirstTS event.Time
}

type machinePendingState struct {
	Events []event.Event
	LastTS event.Time
}

// Snapshot serializes the machine's full matching state. The caller must
// ensure no OnEvent/OnWatermark call is concurrent with it.
func (m *Machine) Snapshot() ([]byte, error) {
	st := machineState{Groups: make(map[int64]*machineGroupState, len(m.groups))}
	for key, g := range m.groups {
		gs := &machineGroupState{
			Partials: make([][]*machinePartialState, len(g.partials)),
			Pending:  make([]*machinePendingState, 0, len(g.pending)),
			Blockers: g.blockers,
		}
		for k, ps := range g.partials {
			out := make([]*machinePartialState, 0, len(ps))
			for _, p := range ps {
				if p.dead {
					continue // shed units are logically gone
				}
				out = append(out, &machinePartialState{Events: p.events, FirstTS: p.firstTS})
			}
			gs.Partials[k] = out
		}
		for _, pm := range g.pending {
			if pm.dead {
				continue
			}
			gs.Pending = append(gs.Pending, &machinePendingState{Events: pm.events, LastTS: pm.lastTS})
		}
		st.Groups[key] = gs
	}
	var buf bytes.Buffer
	if err := gob.NewEncoder(&buf).Encode(st); err != nil {
		return nil, err
	}
	return buf.Bytes(), nil
}

// Restore replaces the machine's state with a snapshot taken from a machine
// running the same program. StateSize is recomputed from the restored
// buffers; OnState is deliberately not invoked — the embedding operator
// re-accounts the budget itself after restoring.
func (m *Machine) Restore(data []byte) error {
	var st machineState
	if err := gob.NewDecoder(bytes.NewReader(data)).Decode(&st); err != nil {
		return err
	}
	groups := make(map[int64]*group, len(st.Groups))
	var count, elems int64
	nextDue, hold := event.MaxWatermark, event.MaxWatermark
	for key, gs := range st.Groups {
		if len(gs.Partials) != len(m.prog.Stages) || len(gs.Blockers) != len(m.prog.Negations) {
			return fmt.Errorf("nfa: snapshot shape (%d stages, %d negations) does not match program (%d stages, %d negations)",
				len(gs.Partials), len(gs.Blockers), len(m.prog.Stages), len(m.prog.Negations))
		}
		g := &group{
			partials: make([][]*partial, len(gs.Partials)),
			pending:  make([]*pendingMatch, len(gs.Pending)),
			blockers: gs.Blockers,
			due:      event.MaxWatermark,
		}
		if g.blockers == nil {
			g.blockers = make([][]event.Event, len(m.prog.Negations))
		}
		for k, ps := range gs.Partials {
			in := make([]*partial, len(ps))
			for i, p := range ps {
				in[i] = &partial{events: p.Events, firstTS: p.FirstTS, stage: k}
				g.due = min(g.due, p.FirstTS+m.prog.Window-1)
				count++
				elems += int64(len(p.Events))
			}
			g.partials[k] = in
		}
		for i, pm := range gs.Pending {
			g.pending[i] = &pendingMatch{events: pm.Events, lastTS: pm.LastTS}
			hold = min(hold, pm.LastTS-1)
			count++
			elems += int64(len(pm.Events))
		}
		for _, bs := range g.blockers {
			count += int64(len(bs))
			elems += int64(len(bs))
		}
		nextDue = min(nextDue, g.due)
		groups[key] = g
	}
	m.groups = groups
	m.stateCount = count
	m.elems = elems
	m.nextDue, m.hold = nextDue, hold
	if m.patternAware {
		// Rebuild the score heap over the restored state.
		m.patternAware = false
		m.heap = nil
		m.SetPatternAware(true)
	}
	return nil
}
