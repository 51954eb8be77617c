package asp

import (
	"fmt"
	"math/rand"
	"sort"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// ijCase is one configuration of the interval-join property test, or of
// the window join's when slide is set.
type ijCase struct {
	keyed         bool
	lower, upper  event.Time
	window, slide event.Time // the window rule instead of the bounds
	perWindow     bool
	batch         int // records taken from one input before switching, as an edge batch delivers them
	wmEvery       int // records between two watermarks of one input
}

func (c ijCase) String() string {
	if c.slide > 0 {
		return fmt.Sprintf("keyed=%v/W=%d/S=%d/perWindow=%v/batch=%d/wm=%d", c.keyed, c.window, c.slide, c.perWindow, c.batch, c.wmEvery)
	}
	return fmt.Sprintf("keyed=%v/bounds=(%d,%d)/batch=%d/wm=%d", c.keyed, c.lower, c.upper, c.batch, c.wmEvery)
}

// newOp returns the case's operator factory.
func (c ijCase) newOp() func(int) Operator {
	var key KeyFn
	if c.keyed {
		key = ijKey
	}
	if c.slide > 0 {
		return NewWindowJoin(WindowJoinSpec{Window: c.window, Slide: c.slide, LeftKey: key, RightKey: key, Predicate: ijPred, PerWindow: c.perWindow})
	}
	return NewIntervalJoin(IntervalJoinSpec{Lower: c.lower, Upper: c.upper, LeftKey: key, RightKey: key, Predicate: ijPred})
}

// ijPair names an emitted or expected pair by the sequence numbers its two
// records carry in their first constituent's Value.
type ijPair [2]int

func ijPred(l, r []event.Event) bool { return (int(l[0].Value)+int(r[0].Value))%5 != 0 }

// ijStream generates n TS-sorted records for one input: timestamps drawn
// from a range a third of n wide, so ties are common on and across sides;
// four keys in ID; every third left record a two-constituent match, as the
// second join of a chain receives.
func ijStream(rng *rand.Rand, typ event.Type, n, seqBase int, matches bool) []Record {
	tss := make([]int, n)
	for i := range tss {
		tss[i] = rng.Intn(n / 3)
	}
	sort.Ints(tss)
	recs := make([]Record, n)
	for i, ts := range tss {
		e := event.Event{Type: typ, ID: int64(rng.Intn(4)), TS: event.Time(ts), Value: float64(seqBase + i)}
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

// ijOracle is the brute-force join: r.TS ∈ (l.TS+Lower, l.TS+Upper), same
// key when keyed, and the predicate holds.
func ijOracle(c ijCase, left, right []Record) map[ijPair]bool {
	want := make(map[ijPair]bool)
	for li := range left {
		for ri := range right {
			l, r := &left[li], &right[ri]
			if c.keyed && ijKey(l) != ijKey(r) {
				continue
			}
			lc, rc := l.Events(), r.Events()
			if r.TS > l.TS+c.lower && r.TS < l.TS+c.upper && ijPred(lc, rc) {
				want[ijPair{int(lc[0].Value), int(rc[0].Value)}] = true
			}
		}
	}
	return want
}

func ijKey(r *Record) int64 { return r.Events()[0].ID }

// ijDriver feeds one intervalJoin the way an instance's step does — runs of
// records per input, per-input watermarks merged by minimum, OnWatermark
// when the merged watermark advances — and collects what it emits.
type ijDriver struct {
	t      *testing.T
	c      ijCase
	newOp  func(int) Operator
	op     *intervalJoin
	env    *Environment
	col    *Collector
	ch     chan []Record
	wm     event.Time // last merged watermark handed to the operator
	got    map[ijPair]int
	seq    []ijPair // every emission, in order
	calls  int
	atCall map[int]func(*ijDriver) // mid-stream actions, by OnRecord count
}

func newIJDriver(t *testing.T, c ijCase) *ijDriver {
	d := &ijDriver{
		t: t, c: c, newOp: c.newOp(), env: NewEnvironment(Config{}),
		ch: make(chan []Record, 1024), wm: event.MinWatermark,
		got: make(map[ijPair]int), atCall: make(map[int]func(*ijDriver)),
	}
	d.op = d.newOp(0).(*intervalJoin)
	d.col = &Collector{
		env:     d.env,
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: &edge{partition: SinglePartition(), chans: []chan []Record{d.ch}}, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		batch:   64,
		pool:    newBatchPool(64, nil),
	}
	return d
}

// drain collects the operator's output since the last call, holding each
// record to the emission contract: timestamped with its later constituent,
// above every watermark already forwarded, and emitted by the OnRecord call
// of one of its records (arriving, on port), never by a watermark (nil).
func (d *ijDriver) drain(port int, arriving *Record) {
	d.col.flush()
	for {
		select {
		case b := <-d.ch:
			for _, r := range b {
				evs := r.Match.Events
				l, rt := evs[0], evs[len(evs)-1]
				lTS := evs[len(evs)-2].TS // a left match is timestamped with its last constituent
				if r.TS != max(lTS, rt.TS) {
					d.t.Fatalf("%v: pair (%v, %v) emitted at %d, want its later timestamp", d.c, l, rt, r.TS)
				}
				if r.TS <= d.wm {
					d.t.Fatalf("%v: emitted TS %d at or below forwarded watermark %d", d.c, r.TS, d.wm)
				}
				p := ijPair{int(l.Value), int(rt.Value)}
				if arriving == nil || p[port] != int(arriving.Events()[0].Value) {
					d.t.Fatalf("%v: pair %v emitted outside the OnRecord call of its later record", d.c, p)
				}
				d.got[p]++
				d.seq = append(d.seq, p)
			}
		default:
			return
		}
	}
}

// checkState holds the operator to its accounting and ordering invariants.
func (d *ijDriver) checkState() {
	if got, want := d.op.StateStats().Records, d.op.state.records(); got != want {
		d.t.Fatalf("%v: StateStats().Records = %d, recount = %d", d.c, got, want)
	}
	if got, want := d.env.StateSize(), d.op.state.records(); got != want {
		d.t.Fatalf("%v: AddState total = %d, recount = %d", d.c, got, want)
	}
	earliest := event.MaxWatermark
	for _, g := range d.op.state {
		for port := range g {
			live := g[port].live()
			if len(live) == 0 {
				continue
			}
			earliest = min(earliest, d.op.deathTime(live[0].TS, port))
			if !sort.SliceIsSorted(live, func(a, b int) bool { return live[a].TS < live[b].TS }) {
				d.t.Fatalf("%v: port %d buffer not TS-sorted", d.c, port)
			}
		}
	}
	if d.op.nextDeath > earliest {
		d.t.Fatalf("%v: nextDeath %d above the earliest buffered death time %d: a due eviction would be skipped", d.c, d.op.nextDeath, earliest)
	}
}

func (d *ijDriver) run(rng *rand.Rand, left, right []Record) {
	in := [2][]Record{left, right}
	// rest[port][i] is the earliest timestamp of in[port][i:]: a watermark
	// stays below it, so records out of order within an input are not late.
	var rest [2][]event.Time
	for port := range in {
		rest[port] = make([]event.Time, len(in[port])+1)
		rest[port][len(in[port])] = event.MaxWatermark
		for i := len(in[port]) - 1; i >= 0; i-- {
			rest[port][i] = min(in[port][i].TS, rest[port][i+1])
		}
	}
	var next [2]int
	wms := [2]event.Time{event.MinWatermark, event.MinWatermark}
	watermark := func(port int, wm event.Time) {
		wms[port] = wm
		if merged := min(wms[0], wms[1]); merged > d.wm {
			d.op.OnWatermark(merged, d.col)
			d.drain(0, nil)
			d.wm = merged
			d.checkState()
		}
	}
	for next[0] < len(left) || next[1] < len(right) {
		port := rng.Intn(2)
		if next[port] == len(in[port]) {
			port = 1 - port
		}
		for n := 0; n < d.c.batch && next[port] < len(in[port]); n++ {
			r := in[port][next[port]]
			next[port]++
			d.op.OnRecord(port, &r, d.col)
			d.drain(port, &r)
			d.calls++
			if act := d.atCall[d.calls]; act != nil {
				act(d)
				d.checkState()
			}
			if next[port]%d.c.wmEvery == 0 {
				watermark(port, sourceWatermark(min(r.TS, rest[port][next[port]]), 0))
			}
		}
		if next[port] == len(in[port]) {
			watermark(port, event.MaxWatermark)
		}
	}
	if n := d.op.state.records(); n != 0 {
		d.t.Fatalf("%v: %d records still buffered at end of stream", d.c, n)
	}
}

// restore replaces the operator with a fresh one restored from a snapshot
// of the current one.
func (d *ijDriver) restore() {
	data, err := d.op.SnapshotState()
	if err != nil {
		d.t.Fatalf("%v: snapshot: %v", d.c, err)
	}
	d.op = d.newOp(0).(*intervalJoin)
	if err := d.op.RestoreState(data); err != nil {
		d.t.Fatalf("%v: restore: %v", d.c, err)
	}
}

// shedHalf sheds by one strategy with half the buffered state as its
// target.
func shedHalf(by overload.ShedStrategy) func(*ijDriver) {
	return func(d *ijDriver) {
		before := d.op.state.records()
		target := before / 2
		dropped := d.op.Shed(target, by, d.col)
		after := d.op.state.records()
		if dropped != before-after || after > target || (before > 0 && dropped == 0) {
			d.t.Fatalf("%v: shed to %d reported %d dropped, %d -> %d buffered", d.c, target, dropped, before, after)
		}
		if dropped > 0 && d.env.LostMatchBound() <= 0 {
			d.t.Fatalf("%v: %d records shed without a lost-match charge", d.c, dropped)
		}
	}
}

// TestIntervalJoinMatchesBruteForce drives the interval-join kernel over
// seeded random streams in every combination of keying, bounds, run length
// and watermark cadence, with a snapshot restored into a fresh operator
// mid-stream: the emitted multiset must equal the brute-force join, nothing
// may be emitted at or below a forwarded watermark, the buffers stay sorted
// and accounted, and the state returns to zero. A second run that also sheds
// mid-stream, by age and by value, must emit a subset of the first.
func TestIntervalJoinMatchesBruteForce(t *testing.T) {
	const n, w = 300, 10
	for seed := int64(1); seed <= 3; seed++ {
		rng := rand.New(rand.NewSource(seed))
		left := ijStream(rng, tQ, n, 0, true)
		right := ijStream(rng, tV, n, n, false)
		for _, keyed := range []bool{false, true} {
			for _, lower := range []event.Time{0, -w} {
				want := ijOracle(ijCase{keyed: keyed, lower: lower, upper: w}, left, right)
				if len(want) == 0 {
					t.Fatalf("oracle found no pair: the streams test nothing")
				}
				for _, batch := range []int{1, 64} {
					for _, wmEvery := range []int{1, 8, 64} {
						c := ijCase{keyed: keyed, lower: lower, upper: w, batch: batch, wmEvery: wmEvery}

						d := newIJDriver(t, c)
						d.atCall[n] = (*ijDriver).restore
						d.run(rand.New(rand.NewSource(seed)), left, right)
						for p := range want {
							if d.got[p] != 1 {
								t.Fatalf("seed %d %v: pair %v emitted %d times, want once", seed, c, p, d.got[p])
							}
						}
						if len(d.got) != len(want) {
							t.Fatalf("seed %d %v: %d distinct pairs emitted, brute force has %d", seed, c, len(d.got), len(want))
						}

						s := newIJDriver(t, c)
						s.atCall[n/2] = shedHalf(overload.OldestFirst)
						s.atCall[n] = shedHalf(overload.PatternAware)
						s.run(rand.New(rand.NewSource(seed)), left, right)
						for p, k := range s.got {
							if k != 1 || !want[p] {
								t.Fatalf("seed %d %v: shed run emitted %v %d times; the unshed run has it %v", seed, c, p, k, want[p])
							}
						}
						if len(s.got) >= len(want) {
							t.Fatalf("seed %d %v: shedding lost no pair (%d of %d): the shed calls test nothing", seed, c, len(s.got), len(want))
						}
					}
				}
			}
		}
	}
}

// BenchmarkIntervalJoinWatermark prices one watermark against 10 000 live
// key groups: one that evicts nothing, which the earliest-death check
// answers without visiting a group, and one that evicts one key's prefix,
// which sweeps the group heads. Each iteration of the latter re-inserts what
// it evicted; that insert is part of the measured time.
func BenchmarkIntervalJoinWatermark(b *testing.B) {
	const keys, perKey = 10_000, 16
	build := func() (*intervalJoin, *Collector) {
		op := NewIntervalJoin(IntervalJoinSpec{
			Lower: 0, Upper: 100,
			LeftKey:  func(r *Record) int64 { return r.Event.ID },
			RightKey: func(r *Record) int64 { return r.Event.ID },
		})(0).(*intervalJoin)
		col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
		for ts := event.Time(1000); ts < 1000+perKey; ts++ {
			for k := int64(0); k < keys; k++ {
				r := EventRecord(event.Event{Type: tQ, ID: k, TS: ts})
				op.OnRecord(0, &r, col)
			}
		}
		return op, col
	}
	b.Run("evicts-nothing", func(b *testing.B) {
		op, col := build()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.OnWatermark(1000, col) // the first death is at 1000+Upper-1
		}
		if op.state.records() != keys*perKey {
			b.Fatal("a watermark below every death time evicted records")
		}
	})
	b.Run("evicts-one-key-prefix", func(b *testing.B) {
		op, col := build()
		// Key 0 alone holds older records; every iteration kills and
		// replaces four of them.
		refill := func() {
			for ts := event.Time(10); ts < 14; ts++ {
				r := EventRecord(event.Event{Type: tQ, ID: 0, TS: ts})
				op.OnRecord(0, &r, col)
			}
		}
		refill()
		b.ResetTimer()
		for i := 0; i < b.N; i++ {
			op.OnWatermark(500, col)
			refill()
		}
		if op.state.records() != keys*perKey+4 {
			b.Fatal("the sweep evicted more than key 0's prefix")
		}
	})
}

// BenchmarkNextOccurrenceWatermark prices the NSEQ UDF per record (one op is
// one record): a keyed union with one T2 in four, a blocker that accepts
// about half of them, and a watermark at the latest timestamp every few
// records. The op's time is its insert plus its share of the resolving
// passes; a pass visits every live key group, so with 1 000 keys and a
// watermark per record the pass is the cost.
func BenchmarkNextOccurrenceWatermark(b *testing.B) {
	for _, bc := range []struct {
		name        string
		keys, every int
	}{{"keys=16/every=64", 16, 64}, {"keys=1000/every=64", 1000, 64}, {"keys=1000/every=1", 1000, 1}} {
		b.Run(bc.name, func(b *testing.B) {
			rng := rand.New(rand.NewSource(1))
			in := make([]event.Event, 1<<14)
			for i := range in {
				in[i] = event.Event{Type: tQ, ID: rng.Int63n(int64(bc.keys)), Value: float64(rng.Intn(100))}
				if i%4 == 3 {
					in[i].Type = tV
				}
			}
			op := NewNextOccurrence(NextOccurrenceSpec{
				T1: tQ, T2: tV, Window: 4096,
				Key:     func(r *Record) int64 { return r.Event.ID },
				Blocker: func(pair []event.Event) bool { return pair[1].Value > 50 },
			})(0)
			col := &Collector{env: NewEnvironment(Config{}), metrics: &NodeMetrics{}}
			var r Record // lent to the operator, as an instance lends its batch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e := in[i%len(in)]
				e.TS = event.Time(i)
				r = EventRecord(e)
				op.OnRecord(0, &r, col)
				if i%bc.every == bc.every-1 {
					op.OnWatermark(e.TS, col)
				}
			}
		})
	}
}
