package asp

import (
	"fmt"
	"math"
	"math/rand"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// stateCase is one State under the contract test: its factory, a count of
// its units taken from its groups rather than from its mirror counter, and
// a count of the units no strategy may shed.
type stateCase struct {
	name    string
	newOp   func(int) Operator
	recount func(State) int64
	unshed  func(State) int64
}

func stateCases() []stateCase {
	byID := func(r *Record) int64 { return r.Event.ID }
	none := func(State) int64 { return 0 }
	return []stateCase{{
		name:    "windowJoin",
		newOp:   NewWindowJoin(WindowJoinSpec{Window: 12, Slide: 3, LeftKey: byID, RightKey: byID, Predicate: ijPred}),
		recount: func(s State) int64 { return s.(*intervalJoin).state.records() },
		unshed:  none,
	}, {
		name:    "intervalJoin",
		newOp:   NewIntervalJoin(IntervalJoinSpec{Lower: -4, Upper: 10, LeftKey: byID, RightKey: byID, Predicate: ijPred}),
		recount: func(s State) int64 { return s.(*intervalJoin).state.records() },
		unshed:  none,
	}, {
		name:  "windowAggregate",
		newOp: NewWindowAggregate(WindowAggregateSpec{Window: 12, Slide: 3, Key: byID, MinCount: 2}),
		recount: func(s State) int64 {
			var n int64
			for _, panes := range s.(*windowAggregate).state {
				if len(panes) > 0 {
					n++
				}
			}
			return n
		},
		unshed: none,
	}, {
		name:    "nextOccurrence",
		newOp:   NewNextOccurrence(NextOccurrenceSpec{T1: tQ, T2: tV, Window: 12, Key: byID}),
		recount: func(s State) int64 { return noCount(s.(*nextOccurrence), true) },
		unshed:  func(s State) int64 { return noCount(s.(*nextOccurrence), false) },
	}}
}

// noCount counts a next-occurrence operator's buffered T2 events, and its
// pending T1 events too when pending is set.
func noCount(n *nextOccurrence, pending bool) int64 {
	var c int64
	for _, g := range n.state {
		c += int64(len(g[1].live()))
		if pending {
			c += int64(len(g[0].live()))
		}
	}
	return c
}

// TestStateContract drives each ASP State over a seeded, keyed two-port
// stream with interleaved per-port watermarks, as an instance's step does, and
// holds it to the State contract after every step: StateStats().Records
// equals the AddState total and a recount of the operator's groups; a
// snapshot restored into a fresh instance reports the same StateStats; and
// Shed under either strategy, applied to such a restored copy, accounts
// every unit it reports dropped and leaves at most its target or, above
// it, only units no strategy may shed.
func TestStateContract(t *testing.T) {
	const n = 150
	for _, sc := range stateCases() {
		for seed := int64(1); seed <= 2; seed++ {
			t.Run(fmt.Sprintf("%s/seed=%d", sc.name, seed), func(t *testing.T) {
				rng := rand.New(rand.NewSource(seed))
				in := [2][]Record{ijStream(rng, tQ, n, 0, false), ijStream(rng, tV, n, n, false)}
				op := sc.newOp(0)
				st := op.(State)
				col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
				restore := func(data []byte) State {
					s := sc.newOp(0).(State)
					if err := s.RestoreState(data); err != nil {
						t.Fatal(err)
					}
					return s
				}
				step, peak := 0, int64(0)
				check := func() {
					step++
					stats := st.StateStats()
					peak = max(peak, stats.Records)
					if rc := sc.recount(st); stats.Records != rc || col.env.StateSize() != rc {
						t.Fatalf("step %d: StateStats().Records = %d, AddState total = %d, recount = %d", step, stats.Records, col.env.StateSize(), rc)
					}
					data, err := st.SnapshotState()
					if err != nil {
						t.Fatal(err)
					}
					if got := restore(data).StateStats(); got != stats {
						t.Fatalf("step %d: restored StateStats %+v, snapshotted %+v", step, got, stats)
					}
					if step%8 != 0 {
						return
					}
					for _, by := range []overload.ShedStrategy{overload.OldestFirst, overload.PatternAware} {
						for _, target := range []int64{0, stats.Records / 2} {
							s := restore(data)
							out := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
							out.AddState(stats.Records)
							dropped := s.Shed(target, by, out)
							after := s.StateStats().Records
							if rc := sc.recount(s); after != rc || out.env.StateSize() != rc || dropped != stats.Records-after {
								t.Fatalf("step %d, %v to %d: %d of %d units dropped; StateStats().Records = %d, AddState total = %d, recount = %d",
									step, by, target, dropped, stats.Records, after, out.env.StateSize(), rc)
							}
							if after > target && after != sc.unshed(s) {
								t.Fatalf("step %d, %v to %d: %d units left, %d of them unsheddable", step, by, target, after, sc.unshed(s))
							}
						}
					}
				}
				var next [2]int
				wms := [2]event.Time{event.MinWatermark, event.MinWatermark}
				merged := event.MinWatermark
				for next[0] < n || next[1] < n {
					port := rng.Intn(2)
					if next[port] == n {
						port = 1 - port
					}
					r := in[port][next[port]]
					next[port]++
					op.OnRecord(port, &r, col)
					check()
					if next[port]%8 != 0 && next[port] != n {
						continue
					}
					wms[port] = sourceWatermark(r.TS, 0)
					if next[port] == n {
						wms[port] = event.MaxWatermark
					}
					if m := min(wms[0], wms[1]); m > merged {
						merged = m
						op.OnWatermark(m, col)
						check()
					}
				}
				if left := st.StateStats().Records; peak == 0 || left != 0 {
					t.Fatalf("peak %d units, %d left at end of stream", peak, left)
				}
			})
		}
	}
}

// TestNextOccurrenceShedsByStrategy sheds one of three pending T1 events:
// oldest-first the oldest, pattern-aware the newest, each charging the
// lost-match bound computed here by hand and moving the watermark hold to
// the earliest survivor. A target of zero then takes every pending T1 and
// leaves the T2 blocker.
func TestNextOccurrenceShedsByStrategy(t *testing.T) {
	const window = 100
	for _, tc := range []struct {
		by   overload.ShedStrategy
		shed event.Time // the pending T1 that goes
		left string     // the pending T1s that stay
	}{
		{overload.OldestFirst, 0, "[10 20]"},
		{overload.PatternAware, 20, "[0 10]"},
	} {
		op := NewNextOccurrence(NextOccurrenceSpec{T1: tQ, T2: tV, Window: window})(0).(*nextOccurrence)
		col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
		for _, e := range []event.Event{{Type: tQ, TS: 0}, {Type: tQ, TS: 10}, {Type: tQ, TS: 20}, {Type: tV, TS: 40}} {
			r := EventRecord(e)
			op.OnRecord(0, &r, col)
		}
		if dropped := op.Shed(3, tc.by, col); dropped != 1 {
			t.Fatalf("%v: shed %d pending T1 events to reach 3 units, want 1", tc.by, dropped)
		}
		var left []event.Time
		for _, e1 := range op.state[0][0].live() {
			left = append(left, e1.TS)
		}
		if got := fmt.Sprint(left); got != tc.left || op.Hold() != left[0]-1 {
			t.Fatalf("%v: pending %s with hold %d, want %s with hold %d", tc.by, got, op.Hold(), tc.left, left[0]-1)
		}
		// Four arrivals over [0, 40] are a rate of 3/40 per unit. The shed
		// T1's interval ends window-1 past its TS, shed+window-1-40 units
		// after the last arrival, and LossSafety pads the arrivals expected
		// in them.
		want := overload.LossSafety * (3.0 / 40) * float64(tc.shed+window-1-40)
		if got := col.env.LostMatchBound(); math.Abs(got-want) > 1e-9 {
			t.Fatalf("%v: charged %v lost matches, want %v", tc.by, got, want)
		}
		if dropped := op.Shed(0, tc.by, col); dropped != 2 || op.StateStats().Records != 1 || col.env.StateSize() != 1 || noCount(op, false) != 1 {
			t.Fatalf("%v: shedding to 0 dropped %d and left %d units, want both pending T1s gone and the T2 blocker kept", tc.by, dropped, op.StateStats().Records)
		}
	}
}

// TestNextOccurrenceEvictsDeadBlocker: a T2 the blocker predicate rejects
// for the one pending T1 leaves at the first watermark at or above it — no
// pending T1 needs it and every future T1 lies above it — while the T1,
// whose interval is still open, stays and holds the watermark. The hold
// starts open, before any T1 arrives.
func TestNextOccurrenceEvictsDeadBlocker(t *testing.T) {
	op := NewNextOccurrence(NextOccurrenceSpec{
		T1: tQ, T2: tV, Window: 100,
		Blocker: func(pair []event.Event) bool { return pair[1].Value > 50 },
	})(0).(*nextOccurrence)
	if op.Hold() != event.MaxWatermark {
		t.Fatalf("hold %d before any T1, want MaxWatermark", op.Hold())
	}
	col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
	for _, e := range []event.Event{{Type: tQ, TS: 0}, {Type: tV, TS: 50, Value: 10}} {
		r := EventRecord(e)
		op.OnRecord(0, &r, col)
	}
	op.OnWatermark(60, col)
	if got := op.StateStats().Records; got != 1 || col.env.StateSize() != 1 || noCount(op, false) != 0 || op.Hold() != -1 {
		t.Fatalf("after watermark 60: %d units (%d in the environment, %d T2s), hold %d; want the pending T1 alone, hold -1",
			got, col.env.StateSize(), noCount(op, false), op.Hold())
	}
}
