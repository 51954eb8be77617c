package asp

import (
	"errors"
	"fmt"
	"math"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
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

// wjOut is an operator's output edge, drained by the test after each step.
type wjOut struct {
	env *Environment
	col *Collector
	ch  chan []Record
}

func newWJOut() *wjOut {
	o := &wjOut{env: NewEnvironment(Config{}), ch: make(chan []Record, 1024)}
	o.col = &Collector{
		env:     o.env,
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: &edge{chans: []chan []Record{o.ch}}, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		batch:   64,
		pool:    newBatchPool(64, nil),
	}
	return o
}

// drain returns the pairs emitted since the last call, by key group, in
// emission order.
func (o *wjOut) drain(c wjCase) map[int64][]ijPair {
	o.col.flush()
	got := make(map[int64][]ijPair)
	for {
		select {
		case b := <-o.ch:
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

// wjCheckState holds a window join to its layout and accounting between
// steps: every side ordered by pane, no record below the next window to
// fire (so none a fired window should have evicted), no emptied key group
// kept, and the record counter, a recount and the AddState total equal.
func wjCheckState(t *testing.T, name string, op *windowJoin, env *Environment) {
	t.Helper()
	if got, want := op.StateStats().Records, op.BufferedState(); got != want {
		t.Fatalf("%s: StateStats().Records = %d, BufferedState() = %d", name, got, want)
	}
	if got, want := env.StateSize(), op.BufferedState(); got != want {
		t.Fatalf("%s: AddState total = %d, BufferedState() = %d", name, got, want)
	}
	for key, g := range op.state {
		if len(g[0].live())+len(g[1].live()) == 0 {
			t.Fatalf("%s: key %d: an emptied group is retained", name, key)
		}
		for port := range g {
			live := g[port].live()
			for i, r := range live {
				if i > 0 && event.PaneIndex(r.TS, op.spec.Slide) < event.PaneIndex(live[i-1].TS, op.spec.Slide) {
					t.Fatalf("%s: key %d port %d: TS %d follows TS %d of a later pane", name, key, port, r.TS, live[i-1].TS)
				}
				if r.TS < op.nextFire {
					t.Fatalf("%s: key %d port %d: TS %d buffered below the next window start %d", name, key, port, r.TS, op.nextFire)
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
	o := newWJOut()
	col := o.col

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
		got := o.drain(c)

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
		wjCheckState(t, name, op, o.env)
	}
	op.OnWatermark(event.MaxWatermark, col)
	wjCheckState(t, name, op, o.env)
	if got := o.drain(c); len(got) != 0 {
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
// 64 key groups and Window/Slide = 90, with every pane filled (dense), with
// one pane in eight (sparse) and with one pane in 64 (thin: about the 1.6 %
// of events ITER4's value filter passes), per emitted pair.
func BenchmarkWindowJoinFire(b *testing.B) {
	for _, bc := range []struct {
		name  string
		every int
	}{{"dense", 1}, {"sparse", 8}, {"thin", 64}} {
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

// TestWindowJoinRestoresPaneSnapshot restores a snapshot written in the
// pane-map layout by hand — panes entered out of order, one key group
// one-sided, and S ∤ W with a record in the ragged last pane of a window —
// and fires it to the end: every window must emit, per key group, the
// pairs a join fed the same records uninterrupted emits, in the same order.
func TestWindowJoinRestoresPaneSnapshot(t *testing.T) {
	c := wjCase{keyed: true, window: 5, slide: 2}
	rec := func(typ event.Type, key, seq int, ts event.Time) Record {
		return EventRecord(event.Event{Type: typ, ID: int64(4*seq + key), TS: ts, Value: float64(seq)})
	}
	// Key 1's left pane 2 is the last pane of window [0, 5) and holds ts 5,
	// past that window's end; it received ts 5 before ts 4, and its right
	// pane 1 ts 3 before ts 2. Key 2 is left-only. Key 3's right pane 0
	// arrived after its pane 3.
	l0, l1, l2 := rec(tQ, 1, 0, 1), rec(tQ, 1, 1, 5), rec(tQ, 1, 2, 4)
	l3, l4, l5 := rec(tQ, 2, 3, 2), rec(tQ, 2, 4, 7), rec(tQ, 3, 5, 6)
	r10, r11, r12 := rec(tV, 1, 10, 3), rec(tV, 1, 11, 2), rec(tV, 1, 12, 9)
	r13, r14 := rec(tV, 3, 13, 7), rec(tV, 3, 14, 0)
	st := windowJoinState{
		Panes: map[int64]map[event.Time]*joinPaneState{
			3: {3: {Left: []Record{l5}, Right: []Record{r13}}, 0: {Right: []Record{r14}}},
			1: {
				4: {Right: []Record{r12}},
				2: {Left: []Record{l1, l2}},
				0: {Left: []Record{l0}},
				1: {Right: []Record{r10, r11}},
			},
			2: {3: {Left: []Record{l4}}, 1: {Left: []Record{l3}}},
		},
		NextFire: -4, // [-4, 1) is the first window holding ts 0
	}
	data, err := gobEncode(st)
	if err != nil {
		t.Fatal(err)
	}

	spec := WindowJoinSpec{Window: c.window, Slide: c.slide, Predicate: ijPred, LeftKey: wjKey, RightKey: wjKey}
	restored, fed := NewWindowJoin(spec)(0).(*windowJoin), NewWindowJoin(spec)(0).(*windowJoin)
	if err := restored.RestoreState(data); err != nil {
		t.Fatal(err)
	}
	fedOut := newWJOut()
	for _, a := range []struct {
		port int
		r    Record
	}{{0, l5}, {1, r12}, {0, l1}, {1, r10}, {0, l3}, {1, r13}, {0, l2}, {1, r11}, {0, l0}, {1, r14}, {0, l4}} {
		fed.OnRecord(a.port, &a.r, fedOut.col)
	}
	// The hand-written state is what the fed join snapshots.
	var wrote, snap windowJoinState
	again, err := fed.SnapshotState()
	if err == nil {
		err = errors.Join(gobDecode(data, &wrote), gobDecode(again, &snap))
	}
	if err != nil || !reflect.DeepEqual(snap, wrote) {
		t.Fatalf("the fed join's snapshot differs from the hand-written state (err %v)", err)
	}

	fire := func(name string, op *windowJoin, o *wjOut) (steps []string) {
		for k := event.Time(-2); k*c.slide <= 9; k++ {
			op.OnWatermark(k*c.slide+c.window-1, o.col)
			steps = append(steps, fmt.Sprint(o.drain(c)))
			wjCheckState(t, name, op, o.env)
		}
		op.OnWatermark(event.MaxWatermark, o.col)
		if got := o.drain(c); len(got) != 0 || op.BufferedState() != 0 {
			t.Fatalf("%s: the end-of-stream watermark emitted %v and left %d buffered", name, got, op.BufferedState())
		}
		return steps
	}
	// The restored join's state counts start from its snapshot.
	restoredOut := newWJOut()
	restoredOut.col.AddState(restored.BufferedState())
	got, want := fire("restored", restored, restoredOut), fire("fed", fed, fedOut)
	if fmt.Sprint(got) != fmt.Sprint(want) {
		t.Fatalf("restored join emitted, per window\n%v\nthe uninterrupted join\n%v", got, want)
	}
	// Window [0, 5): key 1's left pane 2 in arrival order, (0, 10) failing
	// the predicate.
	if w0 := fmt.Sprint(map[int64][]ijPair{1: {{0, 11}, {1, 10}, {1, 11}, {2, 10}, {2, 11}}}); got[2] != w0 {
		t.Fatalf("window [0, 5) emitted %s, want %s", got[2], w0)
	}
}

// TestWindowJoinShedsPanes sheds a window join's key groups pane by pane.
// ShedOldest must drop exactly the globally oldest pane — key 1's alone —
// and charge the lost-match bound computed here by hand. ShedLowestValue
// must take a one-sided group's oldest pane before the equally old panes of
// two-sided groups. Cutting a pane from the middle of a side, as a victim
// order not monotone in age would, must keep both sides pane-ordered.
func TestWindowJoinShedsPanes(t *testing.T) {
	const window, slide = 10, 2
	op := NewWindowJoin(WindowJoinSpec{Window: window, Slide: slide, LeftKey: wjKey, RightKey: wjKey})(0).(*windowJoin)
	o := newWJOut()
	feed := func(port, key int, tss ...event.Time) {
		for _, ts := range tss {
			r := EventRecord(event.Event{Type: [2]event.Type{tQ, tV}[port], ID: int64(key), TS: ts})
			op.OnRecord(port, &r, o.col)
		}
	}
	tss := func(key int64, port int) (out []event.Time) {
		if g := op.state[key]; g != nil {
			for _, r := range g[port].live() {
				out = append(out, r.TS)
			}
		}
		return out
	}
	feed(0, 1, 2, 4) // key 1: left panes 1, 2
	feed(0, 2, 5)    // key 2: left pane 2
	feed(1, 1, 3)    // key 1: right pane 1
	feed(1, 2, 4)    // key 2: right pane 2
	feed(1, 1, 7)    // key 1: right pane 3

	if dropped := op.ShedOldest(op.BufferedState()-1, o.col); dropped != 2 {
		t.Fatalf("ShedOldest dropped %d records, want pane 1's 2", dropped)
	}
	wjCheckState(t, "ShedOldest", op, o.env)
	if got := fmt.Sprint(tss(1, 0), tss(1, 1), tss(2, 0), tss(2, 1)); got != "[4] [7] [5] [4]" {
		t.Fatalf("after ShedOldest key 1 holds %v, %v and key 2 %v, %v; want [4] [7] [5] [4]", tss(1, 0), tss(1, 1), tss(2, 0), tss(2, 1))
	}
	// Pane 1 of key 1 held one record a side; the group had two a side.
	// Rates: left 2 arrivals over [2, 5], right 2 over [3, 7]. The pane's
	// deadline 1·2+10-1 = 11 lies 4 past the max TS 7; 5 windows cover it.
	const timeLeft = 4
	want := (1*(2+overload.LossSafety*(2.0/4)*timeLeft) + 1*(2+overload.LossSafety*(2.0/3)*timeLeft)) * window / slide
	if got := o.env.LostMatchBound(); math.Abs(got-want) > 1e-9 {
		t.Fatalf("ShedOldest charged %v lost matches, want %v", got, want)
	}

	feed(0, 3, 4, 6, 9, 11) // key 3: left-only, panes 2, 3, 4, 5
	if dropped := op.ShedLowestValue(op.BufferedState()-1, o.col); dropped != 1 || fmt.Sprint(tss(3, 0)) != "[6 9 11]" {
		t.Fatalf("ShedLowestValue dropped %d, leaving key 3 %v; want key 3's pane 2 alone", dropped, tss(3, 0))
	}
	wjCheckState(t, "ShedLowestValue", op, o.env)
	before := o.env.LostMatchBound()
	if n := op.dropPane(3, op.state[3], 4, o.col); n != 1 || o.env.LostMatchBound() <= before {
		t.Fatalf("dropping key 3's middle pane removed %d records and charged %v", n, o.env.LostMatchBound()-before)
	}
	wjCheckState(t, "middle pane", op, o.env)
	if got := fmt.Sprint(tss(3, 0)); got != "[6 11]" {
		t.Fatalf("after the middle pane key 3 holds %s, want [6 11]", got)
	}
}
