package asp

import (
	"cmp"
	"slices"
	"unsafe"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// JoinPredicate is the θ predicate of a join, evaluated over the constituent
// events of the left and right (partial) matches. The translator compiles
// it from the pattern's temporal-order constraints, the window-span check,
// and any pushed-down multi-alias predicates.
type JoinPredicate func(left, right []event.Event) bool

// WindowJoinSpec configures a sliding window join: the direct mapping of
// conjunction (Cartesian product), sequence (θ join) and iteration (θ self
// join) under explicit windowing (Table 1).
//
// Events are bucketed into panes of the slide size; a window is the union
// of Window/Slide consecutive panes, aligned at multiples of Slide (Eqs.
// 4-5). When the watermark passes a window's end, the window's left and
// right contents are cross-joined under the predicate. Matches contained in
// several overlapping windows are emitted once per window — the duplicate
// behaviour inherent to this mapping (§3.1.4, second impact) that
// optimization O1 eliminates.
type WindowJoinSpec struct {
	Window, Slide event.Time
	// LeftKey/RightKey group events within an instance; nil means one
	// global group (the non-partitionable case of §5.1.2).
	LeftKey, RightKey KeyFn
	// Predicate filters joined pairs; nil joins everything (pure Cartesian
	// product). It is shared across parallel instances and must be
	// stateless; predicates with internal scratch must use NewPredicate.
	Predicate JoinPredicate
	// NewPredicate, when set, builds one predicate per operator instance
	// and takes precedence over Predicate.
	NewPredicate func() JoinPredicate
	// DedupEmits suppresses the per-overlapping-window duplicate emissions
	// of one join stage. Chained joins of a decomposed nested pattern
	// multiply duplicates by ~Window/Slide per stage — exponential in the
	// chain depth — so the translator dedups every intermediate join and
	// leaves only the final stage's duplicates observable (§3.1.4).
	DedupEmits bool
}

// NewWindowJoin returns the operator factory for Stream.Connect2.
func NewWindowJoin(spec WindowJoinSpec) func(int) Operator {
	return func(int) Operator {
		j := &windowJoin{
			spec:     spec,
			pred:     spec.Predicate,
			state:    make(ijGroups),
			nextFire: event.MaxWatermark,
		}
		if spec.NewPredicate != nil {
			j.pred = spec.NewPredicate()
		}
		if spec.DedupEmits {
			j.seen = make(map[string]event.Time)
		}
		return j
	}
}

// windowJoin keeps each key group in the interval join's two-sided buffer,
// ordered by pane and by arrival within a pane. The records of a run of
// panes are then one range of a side, found by two binary searches
// (paneRange), and the panes no unfired window covers are a prefix,
// evicted by advancing the side's head.
type windowJoin struct {
	spec     WindowJoinSpec
	pred     JoinPredicate
	state    ijGroups              // key -> pane-ordered sides
	nextFire event.Time            // start of the earliest unfired window
	seen     map[string]event.Time // emitted match keys (DedupEmits)
	recCount int64                 // records buffered across groups (mirrors AddState)
	// Shedding statistics: per-port arrival rates and the max event time
	// seen, feeding completion scores (pattern-aware victim selection)
	// and lost-match bounds (recall accounting).
	rate     [2]arrivalRate
	maxTS    event.Time
	freeEvs  [][]event.Event // recycled match constituent buffers
	freeRecs [][]Record      // recycled group buffers
	keyBuf   []byte          // fire's scratch: the dedup key of the pair under test
}

// DropsLateRecords implements LateDropper: OnRecord's nextFire tracking is
// only correct for records above the merged watermark, so the engine drops
// late data records at this operator's input.
func (j *windowJoin) DropsLateRecords() {}

func (j *windowJoin) getEvs(n int) []event.Event {
	if s := takeSlice(&j.freeEvs); s != nil && cap(s) >= n {
		return s
	}
	return make([]event.Event, 0, n)
}

func (j *windowJoin) putEvs(s []event.Event) { stashSlice(&j.freeEvs, s) }

// Hold implements WatermarkHolder: outputs carry their real (maximum
// constituent) event time, which lies anywhere inside the firing window, so
// the downstream watermark may only advance past windows that have fired.
// This is what keeps chained joins of a decomposed nested pattern (§4.2.2)
// working with windows of the original size W.
func (j *windowJoin) Hold() event.Time {
	if j.nextFire == event.MaxWatermark {
		return event.MaxWatermark
	}
	return j.nextFire - 1
}

// paneRange returns the bounds [a, b) of the records of panes lo..hi in a
// pane-ordered side. The bounds are pane boundaries, so the searches are
// monotone although a pane's records are in arrival order.
func (j *windowJoin) paneRange(live []Record, lo, hi event.Time) (a, b int) {
	a = firstAfter(live, lo*j.spec.Slide-1)
	return a, a + firstAfter(live[a:], (hi+1)*j.spec.Slide-1)
}

func (j *windowJoin) OnRecord(port int, r *Record, out *Collector) {
	g := j.state.group(groupKey(j.spec.LeftKey, j.spec.RightKey, port, r), &j.freeRecs)
	g[port].insert(r, (event.PaneIndex(r.TS, j.spec.Slide)+1)*j.spec.Slide-1)
	j.rate[port].observe(r.TS)
	j.maxTS = max(j.maxTS, r.TS)
	j.recCount++
	out.AddState(1)

	// Track the earliest window that could contain this record. The engine
	// drops late records at our input (DropsLateRecords), so the record's
	// time exceeds the merged input watermark and this can only move
	// nextFire below windows that have not fired yet.
	kLo, _ := event.WindowsOf(r.TS, j.spec.Window, j.spec.Slide)
	if ws := kLo * j.spec.Slide; ws < j.nextFire {
		j.nextFire = ws
	}
}

func (j *windowJoin) OnWatermark(wm event.Time, out *Collector) {
	for j.nextFire <= wm-j.spec.Window+1 {
		// Skip ahead over empty windows: without buffered panes there is
		// nothing to fire (essential on the final MaxWatermark flush), but
		// the dedup keys below may still expire.
		pmin, ok := j.minPane()
		if !ok {
			j.nextFire = event.MaxWatermark
			break
		}
		// First slide-aligned window start whose window still covers pane
		// pmin: the smallest multiple of Slide > pmin*Slide - Window.
		if first := alignUp((pmin+1)*j.spec.Slide-j.spec.Window, j.spec.Slide); first > j.nextFire {
			j.nextFire = first
			continue
		}
		j.fire(j.nextFire, out)
		j.evictBefore(j.nextFire+j.spec.Slide, out)
		j.nextFire += j.spec.Slide
	}
	if j.seen != nil {
		// A duplicate of an emitted match can only recur while some window
		// still covers its constituents: evict once the watermark passes
		// the last such window's end.
		for k, tsE := range j.seen {
			if tsE+j.spec.Window-1 <= wm {
				delete(j.seen, k)
				out.AddState(-1)
			}
		}
	}
}

// alignUp rounds ts up to the next multiple of step.
func alignUp(ts, step event.Time) event.Time {
	return event.FloorDiv(ts+step-1, step) * step
}

// minPane returns the smallest buffered pane index: the pane of the
// earliest group head, as every side is pane-ordered.
func (j *windowJoin) minPane() (event.Time, bool) {
	ts, ok := event.MaxWatermark, false
	for _, g := range j.state {
		for port := range g {
			if live := g[port].live(); len(live) > 0 {
				ts, ok = min(ts, live[0].TS), true
			}
		}
	}
	return event.PaneIndex(ts, j.spec.Slide), ok
}

func (j *windowJoin) OnClose(*Collector) {}

// fire cross-joins the window [ws, ws+Window) for every key group. The
// output carries its true event time (maximum constituent timestamp); the
// watermark hold above keeps that safe for downstream windows.
func (j *windowJoin) fire(ws event.Time, out *Collector) {
	paneLo := event.PaneIndex(ws, j.spec.Slide)
	paneHi := event.PaneIndex(ws+j.spec.Window-1, j.spec.Slide)
	for _, g := range j.state {
		// Each side's records of the window's panes are one range in
		// (pane, arrival) order, so pairs leave in (left pane, left
		// arrival, right pane, right arrival) order.
		l0, l1 := j.paneRange(g[0].live(), paneLo, paneHi)
		if l0 == l1 {
			continue
		}
		r0, r1 := j.paneRange(g[1].live(), paneLo, paneHi)
		left, right := g[0].live()[l0:l1], g[1].live()[r0:r1]
		for li := range left {
			l := left[li].Events()
			for ri := range right {
				r := right[ri].Events()
				if j.pred != nil && !j.pred(l, r) {
					continue
				}
				// Assemble constituents into a recycled buffer; the
				// match takes ownership. Emitted matches are never
				// recycled (downstream shares the pointer); only
				// dedup-rejected buffers return to the free list.
				evs := j.getEvs(len(l) + len(r))
				evs = append(evs, l...)
				evs = append(evs, r...)
				if j.seen != nil {
					// Indexing by string(bytes) does not allocate: a
					// duplicate costs no allocation at all.
					j.keyBuf = event.AppendKey(j.keyBuf[:0], evs)
					if _, dup := j.seen[string(j.keyBuf)]; dup {
						j.putEvs(evs)
						continue
					}
				}
				m := event.WrapMatch(evs)
				if j.seen != nil {
					j.seen[string(j.keyBuf)] = m.TsE
					out.AddState(1)
				}
				out.EmitMatch(m.TsE, m)
			}
		}
	}
}

// windowJoinState is the gob snapshot DTO of a windowJoin instance. Its
// pane-map layout is a checkpoint contract, so each group's records are
// grouped by pane on snapshot and concatenated in pane order on restore.
type windowJoinState struct {
	Panes    map[int64]map[event.Time]*joinPaneState
	NextFire event.Time
	Seen     map[string]event.Time
}

type joinPaneState struct {
	Left, Right []Record
}

// SnapshotState implements Snapshotter.
func (j *windowJoin) SnapshotState() ([]byte, error) {
	st := windowJoinState{
		Panes:    make(map[int64]map[event.Time]*joinPaneState, len(j.state)),
		NextFire: j.nextFire,
		Seen:     j.seen,
	}
	for key, g := range j.state {
		panes := make(map[event.Time]*joinPaneState)
		for port := range g {
			for _, r := range g[port].live() {
				idx := event.PaneIndex(r.TS, j.spec.Slide)
				p := panes[idx]
				if p == nil {
					p = &joinPaneState{}
					panes[idx] = p
				}
				side := &p.Left
				if port == 1 {
					side = &p.Right
				}
				*side = append(*side, r)
			}
		}
		st.Panes[key] = panes
	}
	return gobEncode(st)
}

// RestoreState implements Snapshotter.
func (j *windowJoin) RestoreState(data []byte) error {
	var st windowJoinState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	j.state = make(ijGroups, len(st.Panes))
	j.recCount = 0
	for key, panes := range st.Panes {
		idxs := make([]event.Time, 0, len(panes))
		for idx := range panes {
			idxs = append(idxs, idx)
		}
		slices.Sort(idxs)
		g := &ijGroup{}
		for _, idx := range idxs {
			g[0].recs = append(g[0].recs, panes[idx].Left...)
			g[1].recs = append(g[1].recs, panes[idx].Right...)
		}
		j.state[key] = g
		j.recCount += int64(len(g[0].recs) + len(g[1].recs))
		j.state.release(key, g, &j.freeRecs)
	}
	j.nextFire = st.NextFire
	if j.spec.DedupEmits {
		j.seen = st.Seen
		if j.seen == nil {
			j.seen = make(map[string]event.Time)
		}
	}
	return nil
}

// BufferedState implements StateCounter: buffered records plus dedup keys,
// matching the AddState accounting of OnRecord/fire/evict.
func (j *windowJoin) BufferedState() int64 { return j.state.records() + int64(len(j.seen)) }

// evictBefore drops the panes entirely before the earliest live window
// start: a prefix of every side, cut by advancing its head.
func (j *windowJoin) evictBefore(liveStart event.Time, out *Collector) {
	cutoff := event.PaneIndex(liveStart, j.spec.Slide) * j.spec.Slide
	var evicted int64
	for key, g := range j.state {
		for port := range g {
			n := firstAfter(g[port].live(), cutoff-1)
			g[port].drop(n)
			evicted += int64(n)
		}
		j.state.release(key, g, &j.freeRecs)
	}
	j.recCount -= evicted
	out.AddState(-evicted)
}

// wjSeenEntryBytes approximates the footprint of one dedup-map entry
// (string header + short key + map overhead).
const wjSeenEntryBytes = 48

// StateStats implements StateAccountant: O(1) from the incremental record
// counter and the dedup-map length.
func (j *windowJoin) StateStats() StateStats {
	return StateStats{
		Records: j.recCount + int64(len(j.seen)),
		Bytes:   j.recCount*int64(unsafe.Sizeof(Record{})) + int64(len(j.seen))*wjSeenEntryBytes,
	}
}

// paneDeadline is the last partner timestamp a record in pane idx can
// still join with: the end of the latest slide-aligned window covering
// the pane.
func (j *windowJoin) paneDeadline(idx event.Time) event.Time {
	return idx*j.spec.Slide + j.spec.Window - 1
}

// coveringWindows is the number of slide-aligned windows covering a pane:
// what a lost pair is charged. A root join emits a pair once per covering
// window (§3.1.4). A deduplicating intermediate stage emits it once, but
// every downstream extension of the pair is lost with it, so it is charged
// the same multiple rather than 1.
func (j *windowJoin) coveringWindows() float64 {
	return float64((j.spec.Window + j.spec.Slide - 1) / j.spec.Slide)
}

// dropPane removes pane idx from both sides of a key group, deleting the
// group if that empties it, charges the matches lost with it and returns
// the records dropped. Each dropped record could have joined every live
// opposite-side record of its group (the pane's included) plus the
// expected opposite-side arrivals before the pane's deadline, times
// coveringWindows. Over-counting is safe — it only lowers the reported
// recall estimate; under-counting is not.
func (j *windowJoin) dropPane(key int64, g *ijGroup, idx event.Time, out *Collector) int64 {
	live := [2]int{len(g[0].live()), len(g[1].live())}
	timeLeft := clampTimeLeft(j.paneDeadline(idx) - j.maxTS)
	var n int
	var lost float64
	for port := range g {
		s := &g[port]
		a, b := j.paneRange(s.live(), idx, idx)
		if a == 0 {
			s.drop(b)
		} else {
			s.recs = append(s.recs[:s.head+a], s.recs[s.head+b:]...)
		}
		n += b - a
		lost += float64(b-a) * partnerBound(live[1-port], j.rate[1-port].perTimeUnit(), timeLeft)
	}
	j.state.release(key, g, &j.freeRecs)
	j.recCount -= int64(n)
	out.AddState(-int64(n))
	out.AddLostMatches(lost * j.coveringWindows())
	return int64(n)
}

// shedPanes drops whole (key group, pane) victims in ascending rank, the
// oldest pane first among equal ranks, until at most target accounted
// units remain. Ranks are computed once per call: shedding is rare, and
// staleness within one sweep only reorders equally doomed panes. The dedup
// set is never shed — losing it could re-emit suppressed duplicates,
// breaking the subset property; a shed pane only removes records from
// unfired windows, which can only lose matches.
func (j *windowJoin) shedPanes(target int64, rank func(g *ijGroup, port int, idx event.Time) float64, out *Collector) int64 {
	type victim struct {
		rank float64
		idx  event.Time
		key  int64
	}
	var victims []victim
	for key, g := range j.state {
		for port := range g {
			for _, r := range g[port].live() {
				idx := event.PaneIndex(r.TS, j.spec.Slide)
				victims = append(victims, victim{rank(g, port, idx), idx, key})
			}
		}
	}
	// Sorting puts the entries of one pane, one per record, side by side.
	slices.SortFunc(victims, func(a, b victim) int {
		return cmp.Or(cmp.Compare(a.rank, b.rank), cmp.Compare(a.idx, b.idx), cmp.Compare(a.key, b.key))
	})
	var dropped int64
	for _, v := range slices.Compact(victims) {
		if j.recCount+int64(len(j.seen)) <= target {
			break
		}
		if g := j.state[v.key]; g != nil {
			dropped += j.dropPane(v.key, g, v.idx, out)
		}
	}
	return dropped
}

// ShedOldest implements Shedder: whole panes are dropped oldest first,
// across every key group.
func (j *windowJoin) ShedOldest(target int64, out *Collector) int64 {
	return j.shedPanes(target, func(*ijGroup, int, event.Time) float64 { return 0 }, out)
}

// ShedLowestValue implements ValueShedder: panes are dropped in order of
// ascending completion value instead of age. A pane whose key group holds
// records on both sides will produce matches with no further arrivals and
// scores 1; a one-sided group only fires if the missing side arrives
// before the pane's last covering window closes, so it scores the Poisson
// completion probability of one such arrival.
func (j *windowJoin) ShedLowestValue(target int64, out *Collector) int64 {
	return j.shedPanes(target, func(g *ijGroup, port int, idx event.Time) float64 {
		if len(g[1-port].live()) > 0 {
			return 1
		}
		timeLeft := clampTimeLeft(j.paneDeadline(idx) - j.maxTS)
		return overload.CompletionValue(1, timeLeft, int64(j.spec.Window), j.rate[1-port].perTimeUnit())
	}, out)
}
