package nfa

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"testing"

	"cep2asp/internal/event"
)

// Contract tests for the record path: what an event costs in allocations,
// that the watermark cadence (and so which sweeps nextDue skips) never shows
// in the output or in StateSize, and that shedding from inside the stage
// loop touches each unit once.

func lastValue(max float64) StagePred {
	return func(es []event.Event) bool { return es[len(es)-1].Value <= max }
}

func iter3(policy Policy) *Program {
	st := Stage{Type: tA, Pred: lastValue(10)}
	return &Program{
		Name:   "iter3",
		Stages: []Stage{st, st, st},
		Window: 30 * event.Minute,
		Policy: policy,
		Key:    func(e event.Event) int64 { return e.ID },
	}
}

func TestRecordPathAllocations(t *testing.T) {
	emit := func(*event.Match) {}
	m, err := NewMachine(iter3(SkipTillAnyMatch))
	if err != nil {
		t.Fatal(err)
	}
	// Key 1 holds partials at stages 0 and 1; key 2 holds nothing.
	m.OnEvent(ev(tA, 0, 1), emit)
	m.OnEvent(ev(tA, 1, 1), emit)

	minute := int64(2)
	rejected := func(id int64) func() {
		return func() {
			e := ev(tA, minute, 99) // fails every stage predicate
			e.ID = id
			minute++
			m.OnEvent(e, emit)
		}
	}
	if n := testing.AllocsPerRun(200, rejected(2)); n != 0 {
		t.Errorf("rejected event of a key without state: %v allocs, want 0", n)
	}
	if n := testing.AllocsPerRun(200, rejected(1)); n != 0 {
		t.Errorf("rejected event tested against live partials: %v allocs, want 0", n)
	}
	if got := len(m.groups); got != 1 {
		t.Errorf("rejected events created groups: %d, want 1", got)
	}

	other := ev(tB, 0, 0)
	if n := testing.AllocsPerRun(200, func() { m.OnEvent(other, emit) }); n != 0 {
		t.Errorf("event of a type no stage accepts: %v allocs, want 0", n)
	}

	// An accepted stage-0 event of a fresh key: the partial and its events.
	// (AllocsPerRun truncates the mean, so the amortised growth of the
	// stage slice and the one group do not show.)
	fresh, err := NewMachine(seqAB(SkipTillAnyMatch))
	if err != nil {
		t.Fatal(err)
	}
	if n := testing.AllocsPerRun(500, func() { fresh.OnEvent(ev(tA, 0, 1), emit) }); n > 2 {
		t.Errorf("accepted stage-0 event: %v allocs, want <= 2", n)
	}

	// A watermark below nextDue has nothing to do.
	wm := event.Time(0)
	if n := testing.AllocsPerRun(200, func() { wm++; fresh.OnWatermark(wm, emit) }); n != 0 {
		t.Errorf("watermark below nextDue: %v allocs, want 0", n)
	}
	if fresh.StateSize() != 501 { // 500 runs + AllocsPerRun's warm-up call
		t.Errorf("StateSize = %d after early watermarks, want 501", fresh.StateSize())
	}
}

// liveUnits walks the machine and counts what StateSize should report,
// failing on any unit a sweep at wm should have removed.
func liveUnits(t *testing.T, m *Machine, wm event.Time, swept bool) int64 {
	t.Helper()
	var n int64
	for key, g := range m.groups {
		minFirst := wm
		for k, ps := range g.partials {
			seen := map[*partial]bool{}
			for _, p := range ps {
				if p.dead {
					continue
				}
				if seen[p] {
					t.Fatalf("key %d stage %d: partial listed twice", key, k)
				}
				seen[p] = true
				if swept && p.firstTS+m.prog.Window-1 <= wm {
					t.Fatalf("key %d stage %d: partial from %d survived the sweep at %d", key, k, p.firstTS, wm)
				}
				minFirst = min(minFirst, p.firstTS)
				n++
			}
		}
		for _, pm := range g.pending {
			if pm.dead {
				continue
			}
			if swept && pm.lastTS-1 <= wm {
				t.Fatalf("key %d: pending ending %d survived the sweep at %d", key, pm.lastTS, wm)
			}
			if pm.lastTS-1 < m.Hold() {
				t.Fatalf("key %d: Hold() = %d above pending ending %d", key, m.Hold(), pm.lastTS)
			}
			minFirst = min(minFirst, pm.events[0].TS)
			n++
		}
		for _, bs := range g.blockers {
			if swept && len(bs) > 0 && bs[0].TS <= minFirst {
				t.Fatalf("key %d: blocker at %d survived the sweep at %d", key, bs[0].TS, wm)
			}
			n += int64(len(bs))
		}
	}
	return n
}

// soup is a seeded stream of two sources merged by time, so events of equal
// timestamp sit side by side.
func soup(seed int64, n int) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	types := []event.Type{tA, tB, tC}
	var out []event.Event
	for src := 0; src < 2; src++ {
		ts := event.Time(0)
		for i := 0; i < n; i++ {
			ts += event.Time(rng.Int63n(3)) * event.Minute
			out = append(out, event.Event{
				Type: types[rng.Intn(3)], ID: int64(rng.Intn(3)), TS: ts,
				Value: float64(rng.Intn(100)),
			})
		}
	}
	sort.SliceStable(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

func sortedMatchKeys(ms []*event.Match) []string {
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

// runCadence feeds events with a watermark after every cadence events
// (0: only the final one) and checks StateSize against the walk after each.
func runCadence(t *testing.T, prog *Program, events []event.Event, cadence int) []string {
	t.Helper()
	m, err := NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	for i, e := range events {
		m.OnEvent(e, emit)
		if cadence > 0 && (i+1)%cadence == 0 {
			// Everything up to e.TS-1 is complete: ties of e may follow.
			wm := e.TS - 1
			m.OnWatermark(wm, emit)
			if got, want := m.StateSize(), liveUnits(t, m, wm, true); got != want {
				t.Fatalf("cadence %d, event %d: StateSize %d, walk counts %d", cadence, i, got, want)
			}
		}
	}
	m.OnWatermark(event.MaxWatermark, emit)
	if m.StateSize() != 0 || m.StateElems() != 0 || len(m.groups) != 0 {
		t.Fatalf("cadence %d: %d units, %d elems, %d groups after the final watermark",
			cadence, m.StateSize(), m.StateElems(), len(m.groups))
	}
	return sortedMatchKeys(out)
}

func TestWatermarkCadenceInvisible(t *testing.T) {
	for _, policy := range []Policy{SkipTillAnyMatch, SkipTillNextMatch, StrictContiguity} {
		for _, keyed := range []bool{false, true} {
			for _, negated := range []bool{false, true} {
				prog := &Program{
					Name:   "abc",
					Stages: []Stage{{Type: tA}, {Type: tC, Pred: lastValue(60)}, {Type: tC}},
					Window: 9 * event.Minute,
					Policy: policy,
				}
				if keyed {
					prog.Key = func(e event.Event) int64 { return e.ID }
				}
				if negated {
					prog.Negations = []Negation{{Type: tB, After: 0, Pred: lastValue(50)}}
				}
				name := fmt.Sprintf("%s/keyed=%v/negated=%v", policy, keyed, negated)
				t.Run(name, func(t *testing.T) {
					var total int
					for seed := int64(1); seed <= 6; seed++ {
						events := soup(seed, 150)
						want := runCadence(t, prog, events, 1)
						total += len(want)
						for _, cadence := range []int{64, 0} {
							got := runCadence(t, prog, events, cadence)
							if !slices.Equal(got, want) {
								t.Fatalf("seed %d: cadence %d found %d matches, cadence 1 found %d",
									seed, cadence, len(got), len(want))
							}
						}
					}
					if total == 0 {
						t.Fatal("no matches on any seed; the streams are inert")
					}
				})
			}
		}
	}
}

// TestShedMidLoopOnce drives admit() from inside the stage loop — a dense
// iteration, where one event extends many partials — under a cap of 16 and
// both strategies: the unit count must agree with a walk of the slices after
// every event (a unit shed twice, or listed twice after a compaction, breaks
// it) and the matches must be a sub-multiset of the unbudgeted run's.
func TestShedMidLoopOnce(t *testing.T) {
	const budget = 16
	for _, policy := range []Policy{SkipTillAnyMatch, SkipTillNextMatch} {
		for _, patternAware := range []bool{false, true} {
			t.Run(fmt.Sprintf("%s/patternAware=%v", policy, patternAware), func(t *testing.T) {
				prog := &Program{
					Name:   "iter4",
					Stages: []Stage{{Type: tA}, {Type: tA}, {Type: tA}, {Type: tA}},
					Window: 12 * event.Minute,
					Policy: policy,
					Key:    func(e event.Event) int64 { return e.ID },
				}
				var events []event.Event
				for _, e := range soup(5, 200) {
					if e.Type == tA {
						events = append(events, e)
					}
				}
				full := map[string]int{}
				for _, k := range runCadence(t, prog, events, 8) {
					full[k]++
				}

				m, err := NewMachine(prog)
				if err != nil {
					t.Fatal(err)
				}
				m.SetPatternAware(patternAware)
				var shed int64
				m.SetBudget(
					func() int64 { return budget },
					func() int64 { return budget / 2 },
					func(n int64) { shed += n },
				)
				var out []*event.Match
				emit := func(ma *event.Match) { out = append(out, ma) }
				for i, e := range events {
					m.OnEvent(e, emit)
					if got, want := m.StateSize(), liveUnits(t, m, 0, false); got != want || got > budget {
						t.Fatalf("event %d: StateSize %d, walk counts %d, budget %d", i, got, want, budget)
					}
					if (i+1)%8 == 0 {
						m.OnWatermark(e.TS-1, emit)
					}
				}
				m.OnWatermark(event.MaxWatermark, emit)
				if shed == 0 {
					t.Fatal("the cap never fired")
				}
				if m.StateSize() != 0 || m.StateElems() != 0 {
					t.Fatalf("%d units, %d elems after the final watermark", m.StateSize(), m.StateElems())
				}
				for _, k := range sortedMatchKeys(out) {
					if full[k]--; full[k] < 0 {
						t.Fatalf("match %s is not in the unbudgeted run (or more often than there)", k)
					}
				}
			})
		}
	}
}

func TestRestoreRecomputesDueAndHold(t *testing.T) {
	prog := &Program{
		Name:      "nseq",
		Stages:    []Stage{{Type: tA}, {Type: tC}},
		Negations: []Negation{{Type: tB, After: 0}},
		Window:    10 * event.Minute,
	}
	emit := func(*event.Match) {}
	m, _ := NewMachine(prog)
	m.OnEvent(ev(tA, 1, 0), emit)
	m.OnEvent(ev(tC, 3, 0), emit)
	data, err := m.Snapshot()
	if err != nil {
		t.Fatal(err)
	}
	r, _ := NewMachine(prog)
	if err := r.Restore(data); err != nil {
		t.Fatal(err)
	}
	if r.nextDue != m.nextDue || r.Hold() != m.Hold() || r.Hold() != 3*event.Minute-1 {
		t.Fatalf("restored nextDue %d hold %d, want %d and %d", r.nextDue, r.Hold(), m.nextDue, m.Hold())
	}
}
