package asp

import (
	"fmt"
	"math/rand"
	"runtime"
	"sort"
	"testing"

	"cep2asp/internal/event"
)

// wjCase is one configuration of the window-join contract test.
type wjCase struct {
	keyed          bool
	window, slide  event.Time
	dedup, restore bool
}

func (c wjCase) String() string {
	return fmt.Sprintf("keyed=%v/W=%d/S=%d/dedup=%v/restore=%v", c.keyed, c.window, c.slide, c.dedup, c.restore)
}

// wjStream generates n TS-sorted records for one input over [0, span),
// leaving out [gapLo, gapHi) so that whole windows are empty; at the sizes
// the test uses, many panes of a key group are empty too. Value carries a
// sequence number; ID is unique per record, so no two pairs share a dedup
// key, and names one of four key groups modulo 4 (wjKey). Every third left
// record is a two-constituent match, as the second join of a chain receives.
func wjStream(rng *rand.Rand, typ event.Type, n, seqBase int, matches bool) []Record {
	const span, gapLo, gapHi = 240, 100, 130
	tss := make([]int, 0, n)
	for len(tss) < n {
		if ts := rng.Intn(span); ts < gapLo || ts >= gapHi {
			tss = append(tss, ts)
		}
	}
	sort.Ints(tss)
	recs := make([]Record, n)
	for i, ts := range tss {
		e := event.Event{Type: typ, ID: int64(4*(seqBase+i) + rng.Intn(4)), TS: event.Time(ts), Value: float64(seqBase + i)}
		if matches && i%3 == 0 {
			first := e
			first.TS -= event.Time(rng.Intn(3))
			recs[i] = MatchRecord(e.TS, event.NewMatch(first, e))
		} else {
			recs[i] = EventRecord(e)
		}
	}
	return recs
}

// wjArrival is a record as the operator received it: its arrival rank on
// its side orders it within a pane.
type wjArrival struct {
	rec  Record
	rank int
}

// wjWindowPairs is the brute-force root join of one window: per key group,
// the predicate-qualifying pairs in (left pane, left arrival, right pane,
// right arrival) order.
func wjWindowPairs(c wjCase, ws event.Time, fed [2][]wjArrival) map[int64][]ijPair {
	var sides [2][]wjArrival
	for port := range fed {
		for _, a := range fed[port] {
			if a.rec.TS >= ws && a.rec.TS < ws+c.window {
				sides[port] = append(sides[port], a)
			}
		}
		sort.SliceStable(sides[port], func(x, y int) bool {
			px := event.PaneIndex(sides[port][x].rec.TS, c.slide)
			py := event.PaneIndex(sides[port][y].rec.TS, c.slide)
			return px < py || px == py && sides[port][x].rank < sides[port][y].rank
		})
	}
	want := make(map[int64][]ijPair)
	for _, l := range sides[0] {
		for _, r := range sides[1] {
			lc, rc := l.rec.Events(), r.rec.Events()
			key := wjGroup(c, lc)
			if key != wjGroup(c, rc) || !ijPred(lc, rc) {
				continue
			}
			want[key] = append(want[key], ijPair{int(lc[0].Value), int(rc[0].Value)})
		}
	}
	return want
}

func wjKey(r *Record) int64 { return r.Events()[0].ID % 4 }

func wjGroup(c wjCase, evs []event.Event) int64 {
	if !c.keyed {
		return 0
	}
	return evs[0].ID % 4
}

// TestWindowJoinFireMatchesBruteForce drives the sliding window join over
// seeded two-sided streams with gaps and empty panes, keyed and unkeyed, at
// S | W and tumbling, one slide of watermark at a time so that every
// OnWatermark fires at most one window. A root stage must emit, per firing
// and key group, exactly the predicate-qualifying pairs of that window in
// (left pane, left arrival, right pane, right arrival) order. A DedupEmits
// stage must emit the same sequence less the pairs an earlier window
// emitted — every qualifying pair exactly once — also when a snapshot is
// restored into a fresh operator mid-stream.
func TestWindowJoinFireMatchesBruteForce(t *testing.T) {
	const n = 160
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := wjStream(rng, tQ, n, 0, true)
		right := wjStream(rng, tV, n, n, false)
		for _, keyed := range []bool{false, true} {
			for _, ws := range [][2]event.Time{{6, 2}, {12, 3}, {4, 4}} {
				for _, dedup := range []bool{false, true} {
					for _, restore := range []bool{false, true} {
						c := wjCase{keyed: keyed, window: ws[0], slide: ws[1], dedup: dedup, restore: restore}
						wjRun(t, fmt.Sprintf("seed %d %v", seed, c), c, rand.New(rand.NewSource(seed)), left, right)
					}
				}
			}
		}
	}
}

func wjRun(t *testing.T, name string, c wjCase, rng *rand.Rand, left, right []Record) {
	spec := WindowJoinSpec{Window: c.window, Slide: c.slide, Predicate: ijPred, DedupEmits: c.dedup}
	if c.keyed {
		spec.LeftKey, spec.RightKey = wjKey, wjKey
	}
	newOp := NewWindowJoin(spec)
	op := newOp(0).(*windowJoin)
	env := NewEnvironment(Config{})
	ch := make(chan []Record, 1024)
	col := &Collector{
		env:     env,
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: &edge{chans: []chan []Record{ch}}, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		batch:   64,
		pool:    newBatchPool(64, nil),
	}
	drain := func() (got map[int64][]ijPair) {
		col.flush()
		got = make(map[int64][]ijPair)
		for {
			select {
			case b := <-ch:
				for _, r := range b {
					evs := r.Match.Events
					key := wjGroup(c, evs)
					got[key] = append(got[key], ijPair{int(evs[0].Value), int(evs[len(evs)-1].Value)})
				}
			default:
				return got
			}
		}
	}

	in := [2][]Record{left, right}
	var next [2]int
	var fed [2][]wjArrival
	emitted := make(map[ijPair]bool) // every pair emitted so far
	union := make(map[ijPair]bool)   // every pair some window qualifies
	// Window k starts at k*S and fires at watermark k*S+W-1. Each step feeds
	// the records above the last watermark up to that one — in shuffled
	// order within a side, interleaved across sides — and fires window k.
	// Once a window starts past the last record, every record has been fed
	// (S ≤ W) and every window holding one has fired.
	kLo := event.FloorDiv(-c.window, c.slide) + 1
	maxTS := max(left[len(left)-1].TS, right[len(right)-1].TS)
	for k := kLo; k*c.slide <= maxTS; k++ {
		wm := k*c.slide + c.window - 1
		var chunk [2][]Record
		for port := range in {
			for next[port] < len(in[port]) && in[port][next[port]].TS <= wm {
				chunk[port] = append(chunk[port], in[port][next[port]])
				next[port]++
			}
			rng.Shuffle(len(chunk[port]), func(a, b int) { chunk[port][a], chunk[port][b] = chunk[port][b], chunk[port][a] })
		}
		for len(chunk[0])+len(chunk[1]) > 0 {
			port := rng.Intn(2)
			if len(chunk[port]) == 0 {
				port = 1 - port
			}
			r := chunk[port][0]
			chunk[port] = chunk[port][1:]
			fed[port] = append(fed[port], wjArrival{r, len(fed[port])})
			op.OnRecord(port, &r, col)
		}
		if c.restore && k == kLo+20 {
			data, err := op.SnapshotState()
			if err != nil {
				t.Fatalf("%s: snapshot: %v", name, err)
			}
			op = newOp(0).(*windowJoin)
			if err := op.RestoreState(data); err != nil {
				t.Fatalf("%s: restore: %v", name, err)
			}
		}
		op.OnWatermark(wm, col)
		got := drain()

		want := wjWindowPairs(c, k*c.slide, fed)
		for key, pairs := range want {
			var kept []ijPair
			for _, p := range pairs {
				union[p] = true
				if !c.dedup || !emitted[p] {
					kept = append(kept, p)
				}
			}
			want[key] = kept
		}
		for key := range got {
			if len(want[key]) == 0 {
				t.Fatalf("%s: window %d emitted %v for key %d, want nothing", name, k, got[key], key)
			}
		}
		for key, pairs := range want {
			if fmt.Sprint(got[key]) != fmt.Sprint(pairs) {
				t.Fatalf("%s: window %d key %d emitted\n%v\nwant\n%v", name, k, key, got[key], pairs)
			}
			for _, p := range pairs {
				emitted[p] = true
			}
		}
		if got, want := env.StateSize(), op.BufferedState(); got != want {
			t.Fatalf("%s: AddState total = %d, BufferedState() = %d", name, got, want)
		}
	}
	op.OnWatermark(event.MaxWatermark, col)
	if got := drain(); len(got) != 0 {
		t.Fatalf("%s: the end-of-stream watermark emitted %v", name, got)
	}
	if len(union) == 0 || len(emitted) != len(union) {
		t.Fatalf("%s: %d distinct pairs emitted, %d qualify in some window", name, len(emitted), len(union))
	}
	if n := op.BufferedState(); n != 0 {
		t.Fatalf("%s: %d records or keys still buffered at end of stream", name, n)
	}
}

// wjFireStage is one deduplicating stage shaped like an inner stage of the
// ITER4 chain: keys key groups, Window/Slide = 90, a time-order predicate.
// Its step adds the next pane — one left and one right record for each key
// whose turn it is, every pane when every = 1 — and fires the window that
// pane completes. It returns after the stage reached its steady state.
func wjFireStage(keys, every int) (step func(), emitted func() int64) {
	const window = 90
	op := NewWindowJoin(WindowJoinSpec{
		Window: window, Slide: 1,
		LeftKey: ijKey, RightKey: ijKey,
		Predicate:  func(l, r []event.Event) bool { return l[len(l)-1].TS < r[0].TS },
		DedupEmits: true,
	})(0).(*windowJoin)
	col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
	ts := event.Time(0)
	step = func() {
		for k := 0; k < keys; k++ {
			if (int(ts)+k)%every == 0 {
				l := EventRecord(event.Event{Type: tQ, ID: int64(k), TS: ts})
				r := EventRecord(event.Event{Type: tV, ID: int64(k), TS: ts})
				op.OnRecord(0, &l, col)
				op.OnRecord(1, &r, col)
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

// TestWindowJoinFireAllocsPerPair bounds what a deduplicating stage
// allocates per emitted pair: the constituent slice, the Match, the dedup
// key string and the amortized growth of the dedup set. A pair that an
// earlier window already emitted — most of what an overlapping window
// finds — costs nothing.
func TestWindowJoinFireAllocsPerPair(t *testing.T) {
	step, emitted := wjFireStage(8, 1)
	const runs = 20
	before := emitted()
	allocs := testing.AllocsPerRun(runs, step)
	pairs := float64(emitted()-before) / (runs + 1) // AllocsPerRun adds a warm-up call
	if pairs == 0 {
		t.Fatal("the stage emitted nothing: the test measures nothing")
	}
	if perPair := allocs / pairs; perPair > 4 {
		t.Fatalf("%.2f allocations per emitted pair (%.0f per firing, %.0f pairs), want at most 4", perPair, allocs, pairs)
	}
}

// BenchmarkWindowJoinFire prices one firing of a deduplicating stage with
// 64 key groups and Window/Slide = 90, with every pane filled (dense) and
// with one pane in eight (sparse), per emitted pair.
func BenchmarkWindowJoinFire(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{{"dense", 1}, {"sparse", 8}} {
		b.Run(bc.name, func(b *testing.B) {
			step, emitted := wjFireStage(64, bc.every)
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
