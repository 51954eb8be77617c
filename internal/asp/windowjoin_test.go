package asp

import (
	"maps"
	"math"
	"math/rand"
	"runtime"
	"slices"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// wjOracle is the brute-force window join: per pair of records under one
// key whose predicate holds, the windows [k·S, k·S+W) that hold both
// timestamps, found by intersecting their event.WindowsOf ranges. A pair
// with a shared window is expected once per such window under perWindow,
// else once.
func wjOracle(c ijCase, left, right []Record) map[ijPair]int {
	want := make(map[ijPair]int)
	for li := range left {
		for ri := range right {
			l, r := &left[li], &right[ri]
			lc, rc := l.Events(), r.Events()
			if c.keyed && ijKey(l) != ijKey(r) || !ijPred(lc, rc) {
				continue
			}
			lLo, lHi := event.WindowsOf(l.TS, c.window, c.slide)
			rLo, rHi := event.WindowsOf(r.TS, c.window, c.slide)
			n := min(lHi, rHi) - max(lLo, rLo) + 1
			if n <= 0 {
				continue
			}
			if !c.perWindow {
				n = 1
			}
			want[ijPair{int(lc[0].Value), int(rc[0].Value)}] = int(n)
		}
	}
	return want
}

// wjShuffle permutes a TS-sorted stream within runs of four records: the
// driver's watermarks stay below every record still to come, so the
// out-of-order records arrive above the watermark.
func wjShuffle(rng *rand.Rand, recs []Record) []Record {
	for i := 0; i < len(recs); i += 4 {
		run := recs[i:min(i+4, len(recs))]
		rng.Shuffle(len(run), func(a, b int) { run[a], run[b] = run[b], run[a] })
	}
	return recs
}

// wjSweep calls check on every case of the window-join property tests:
// seeded two-sided streams with ties and out-of-order arrivals, keyed and
// unkeyed, at S | W, tumbling and S ∤ W, intermediate and root, in runs of 1
// and 64 records with watermarks every 1 and 8. want is the case's
// brute-force output.
func wjSweep(t *testing.T, check func(seed int64, c ijCase, left, right []Record, want map[ijPair]int)) {
	const n = 300
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := wjShuffle(rng, ijStream(rng, tQ, n, 0, true))
		right := wjShuffle(rng, ijStream(rng, tV, n, n, false))
		for _, keyed := range []bool{false, true} {
			for _, ws := range [][2]event.Time{{12, 3}, {10, 10}, {10, 3}, {10, 4}} {
				for _, perWindow := range []bool{false, true} {
					c := ijCase{keyed: keyed, window: ws[0], slide: ws[1], perWindow: perWindow}
					want := wjOracle(c, left, right)
					if len(want) == 0 {
						t.Fatalf("%v: oracle found no pair: the streams test nothing", c)
					}
					for _, batch := range []int{1, 64} {
						for _, wmEvery := range []int{1, 8} {
							c.batch, c.wmEvery = batch, wmEvery
							check(seed, c, left, right, want)
						}
					}
				}
			}
		}
	}
}

// TestWindowJoinFireMatchesBruteForce holds the window join's output to the
// brute force on every sweep case: an intermediate stage must emit each
// qualifying pair exactly once and a root stage once per window holding
// both records.
func TestWindowJoinFireMatchesBruteForce(t *testing.T) {
	wjSweep(t, func(seed int64, c ijCase, left, right []Record, want map[ijPair]int) {
		d := newIJDriver(t, c)
		d.run(rand.New(rand.NewSource(seed)), left, right)
		if !maps.Equal(d.got, want) {
			t.Fatalf("seed %d %v: emitted %d distinct pairs, brute force %d, or some copy count differs", seed, c, len(d.got), len(want))
		}
	})
}

// TestWindowJoinEmitsEachPairOnArrival holds every emission of the sweep to
// the join's contract, which the driver checks: it leaves during the
// OnRecord call of its later record, never on a watermark, above the
// forwarded watermark (which, with no WatermarkHolder, is the input
// watermark), and the state returns to zero. A snapshot restored into a
// fresh operator mid-stream must not change the emitted sequence.
func TestWindowJoinEmitsEachPairOnArrival(t *testing.T) {
	wjSweep(t, func(seed int64, c ijCase, left, right []Record, _ map[ijPair]int) {
		if _, held := c.newOp()(0).(WatermarkHolder); held {
			t.Fatalf("%v: the window join holds the watermark back", c)
		}
		plain := newIJDriver(t, c)
		plain.run(rand.New(rand.NewSource(seed)), left, right)
		restored := newIJDriver(t, c)
		restored.atCall[len(left)] = (*ijDriver).restore
		restored.run(rand.New(rand.NewSource(seed)), left, right)
		if !slices.Equal(restored.seq, plain.seq) {
			t.Fatalf("seed %d %v: a mid-stream restore changed the emitted sequence", seed, c)
		}
	})
}

// wjStage is a window-join stage shaped like an inner stage of the ITER4
// chain: keys key groups, Window/Slide = 90, a time-order predicate. Its
// step feeds the next time unit — one left and one right record for each
// key whose turn it is, every unit when every = 1 — and a watermark. It
// returns after the stage reached its steady state.
func wjStage(keys, every int, perWindow bool) (step func(), emitted func() int64) {
	const window = 90
	op := NewWindowJoin(WindowJoinSpec{
		Window: window, Slide: 1,
		LeftKey: ijKey, RightKey: ijKey,
		Predicate: func(l, r []event.Event) bool { return l[len(l)-1].TS < r[0].TS },
		PerWindow: perWindow,
	})(0)
	col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
	ts := event.Time(0)
	in := make([]Record, 1) // the inbound batch: fed records are borrowed, never allocated
	step = func() {
		for k := 0; k < keys; k++ {
			if (int(ts)+k)%every == 0 {
				in[0] = EventRecord(event.Event{Type: tQ, ID: int64(k), TS: ts})
				op.OnRecord(0, &in[0], col)
				in[0] = EventRecord(event.Event{Type: tV, ID: int64(k), TS: ts})
				op.OnRecord(1, &in[0], col)
			}
		}
		op.OnWatermark(ts, col)
		ts++
	}
	for i := 0; i < 2*window; i++ {
		step()
	}
	return step, func() int64 { return col.out }
}

// TestWindowJoinAllocsPerPair bounds what a stage allocates per emitted
// pair — the constituent slice and the Match — and holds the root's extra
// per-window copies to no allocation at all: both stages see the same
// records and must allocate alike.
func TestWindowJoinAllocsPerPair(t *testing.T) {
	const runs = 20
	measure := func(perWindow bool) (allocs, emitted float64) {
		step, out := wjStage(8, 1, perWindow)
		before := out()
		allocs = testing.AllocsPerRun(runs, step)
		return allocs, float64(out()-before) / (runs + 1) // AllocsPerRun adds a warm-up call
	}
	once, pairs := measure(false)
	copied, emitted := measure(true)
	if pairs == 0 || emitted <= pairs {
		t.Fatalf("%.0f pairs and %.0f root records a step: the test measures nothing", pairs, emitted)
	}
	if perPair := once / pairs; perPair > 2 {
		t.Fatalf("%.2f allocations per emitted pair (%.0f a step, %.0f pairs), want at most 2", perPair, once, pairs)
	}
	if perCopy := (copied - once) / (emitted - pairs); perCopy > 0.01 {
		t.Fatalf("%.3f allocations per extra copy (%.0f a step with copies, %.0f without), want none", perCopy, copied, once)
	}
}

// BenchmarkWindowJoinArrival prices a stage with 64 key groups and
// Window/Slide = 90, with every time unit filled (dense), one in eight
// (sparse) and one in 64 (thin: about the 1.6 % of events ITER4's value
// filter passes), per emitted pair.
func BenchmarkWindowJoinArrival(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{{"dense", 1}, {"sparse", 8}, {"thin", 64}} {
		b.Run(bc.name, func(b *testing.B) {
			step, emitted := wjStage(64, bc.every, false)
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			before := emitted()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				step()
			}
			b.StopTimer()
			runtime.ReadMemStats(&m1)
			pairs := float64(emitted() - before)
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/pairs, "ns/pair")
			b.ReportMetric(float64(m1.Mallocs-m0.Mallocs)/pairs, "allocs/pair")
		})
	}
}

// TestWindowJoinShedChargesWindows sheds the globally oldest record of a
// window join and checks its lost-match charge by hand: the live records on
// the opposite side of its group plus the expected arrivals over its
// remaining life, times the ceil(W/S) windows a record lies in.
func TestWindowJoinShedChargesWindows(t *testing.T) {
	const window, slide = 10, 3
	op := NewWindowJoin(WindowJoinSpec{Window: window, Slide: slide, LeftKey: ijKey, RightKey: ijKey})(0).(*intervalJoin)
	col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
	feed := func(port, key int, tss ...event.Time) {
		for _, ts := range tss {
			r := EventRecord(event.Event{Type: [2]event.Type{tQ, tV}[port], ID: int64(key), TS: ts})
			op.OnRecord(port, &r, col)
		}
	}
	feed(0, 1, 2, 4) // key 1: left 2, 4
	feed(1, 1, 3, 7) // key 1: right 3, 7
	feed(0, 2, 5)    // key 2: left 5
	feed(1, 2, 4)    // key 2: right 4

	if dropped := op.Shed(op.state.records()-1, overload.OldestFirst, col); dropped != 1 {
		t.Fatalf("oldest-first dropped %d records, want the one at TS 2", dropped)
	}
	if live := op.state[1][0].live(); len(live) != 1 || live[0].TS != 4 {
		t.Fatalf("key 1 keeps left %v, want the record at TS 4 alone", live)
	}
	// TS 2 lies in the windows k = -2..0, starting at -6, -3 and 0; its
	// last partner is at 0·3+10-1 = 9, two past the max TS 7. Its group
	// holds two right records.
	const timeLeft = 2
	want := (2 + overload.ExpectedArrivals(op.rate[1].perTimeUnit(), timeLeft)) * ((window + slide - 1) / slide)
	if got := col.env.LostMatchBound(); math.Abs(got-want) > 1e-9 || got < 2*4 {
		t.Fatalf("charged %v lost matches, want %v", got, want)
	}
}
