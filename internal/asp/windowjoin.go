package asp

import (
	"sort"
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
			state:    make(map[int64]map[event.Time]*joinPane),
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

type joinPane struct {
	left, right []Record
}

type windowJoin struct {
	spec     WindowJoinSpec
	pred     JoinPredicate
	state    map[int64]map[event.Time]*joinPane // key -> pane index -> pane
	nextFire event.Time                         // start of the earliest unfired window
	seen     map[string]event.Time              // emitted match keys (DedupEmits)
	recCount int64                              // records buffered across panes (mirrors AddState)
	// Shedding statistics: per-side arrival rates and the max event time
	// seen, feeding completion scores (pattern-aware victim selection)
	// and lost-match bounds (recall accounting).
	lRate, rRate arrivalRate
	maxTS        event.Time
	freeEvs      [][]event.Event // recycled match constituent buffers
	freeRecs     [][]Record      // recycled pane buffers
	window       []*joinPane     // fire's scratch: one key group's panes of the firing window
	keyBuf       []byte          // fire's scratch: the dedup key of the pair under test
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

func (j *windowJoin) key(port int, r *Record) int64 {
	k := j.spec.LeftKey
	if port == 1 {
		k = j.spec.RightKey
	}
	if k == nil {
		return 0
	}
	return k(r)
}

func (j *windowJoin) OnRecord(port int, r *Record, out *Collector) {
	key := j.key(port, r)
	panes := j.state[key]
	if panes == nil {
		panes = make(map[event.Time]*joinPane)
		j.state[key] = panes
	}
	idx := event.PaneIndex(r.TS, j.spec.Slide)
	p := panes[idx]
	if p == nil {
		p = &joinPane{}
		panes[idx] = p
	}
	side, rate := &p.left, &j.lRate
	if port == 1 {
		side, rate = &p.right, &j.rRate
	}
	if *side == nil {
		*side = takeSlice(&j.freeRecs) // nil when empty; append allocates lazily
	}
	*side = append(*side, *r)
	rate.observe(r.TS)
	if r.TS > j.maxTS {
		j.maxTS = r.TS
	}
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

// minPane returns the smallest buffered pane index across all key groups.
func (j *windowJoin) minPane() (event.Time, bool) {
	min, ok := event.Time(0), false
	for _, panes := range j.state {
		for idx := range panes {
			if !ok || idx < min {
				min, ok = idx, true
			}
		}
	}
	return min, ok
}

func (j *windowJoin) OnClose(*Collector) {}

// fire cross-joins the window [ws, ws+Window) for every key group. The
// output carries its true event time (maximum constituent timestamp); the
// watermark hold above keeps that safe for downstream windows.
func (j *windowJoin) fire(ws event.Time, out *Collector) {
	paneLo := event.PaneIndex(ws, j.spec.Slide)
	paneHi := event.PaneIndex(ws+j.spec.Window-1, j.spec.Slide)
	for _, panes := range j.state {
		// One probe per pane: the group's window, in ascending pane order,
		// so pairs leave in (left pane, left arrival, right pane, right
		// arrival) order.
		window := j.window[:0]
		for idx := paneLo; idx <= paneHi; idx++ {
			if p := panes[idx]; p != nil {
				window = append(window, p)
			}
		}
		j.window = window
		for _, lp := range window {
			for li := range lp.left {
				l := lp.left[li].Events()
				for _, rp := range window {
					for ri := range rp.right {
						r := rp.right[ri].Events()
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
	}
}

// windowJoinState is the gob snapshot DTO of a windowJoin instance.
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
	for key, panes := range j.state {
		ps := make(map[event.Time]*joinPaneState, len(panes))
		for idx, p := range panes {
			ps[idx] = &joinPaneState{Left: p.left, Right: p.right}
		}
		st.Panes[key] = ps
	}
	return gobEncode(st)
}

// RestoreState implements Snapshotter.
func (j *windowJoin) RestoreState(data []byte) error {
	var st windowJoinState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	j.state = make(map[int64]map[event.Time]*joinPane, len(st.Panes))
	for key, ps := range st.Panes {
		panes := make(map[event.Time]*joinPane, len(ps))
		for idx, p := range ps {
			panes[idx] = &joinPane{left: p.Left, right: p.Right}
		}
		j.state[key] = panes
	}
	j.nextFire = st.NextFire
	if j.spec.DedupEmits {
		j.seen = st.Seen
		if j.seen == nil {
			j.seen = make(map[string]event.Time)
		}
	}
	j.recCount = 0
	for _, panes := range j.state {
		for _, p := range panes {
			j.recCount += int64(len(p.left) + len(p.right))
		}
	}
	return nil
}

// BufferedState implements StateCounter: buffered records plus dedup keys,
// matching the AddState accounting of OnRecord/fire/evict.
func (j *windowJoin) BufferedState() int64 {
	var n int64
	for _, panes := range j.state {
		for _, p := range panes {
			n += int64(len(p.left) + len(p.right))
		}
	}
	return n + int64(len(j.seen))
}

// evictBefore drops panes entirely before the earliest live window start.
func (j *windowJoin) evictBefore(liveStart event.Time, out *Collector) {
	cutoff := event.PaneIndex(liveStart, j.spec.Slide)
	for key, panes := range j.state {
		for idx := range panes {
			if idx < cutoff {
				j.dropPane(key, idx, out)
			}
		}
	}
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

// paneLoss bounds the matches dropped with pane p of one key group: each
// dropped record could have joined every live opposite-side record of
// its group plus the expected opposite-side arrivals before the pane's
// deadline, times coveringWindows. liveL/liveR count the
// group's buffered records including p itself. Over-counting is safe —
// it only lowers the reported recall estimate; under-counting is not.
func (j *windowJoin) paneLoss(p *joinPane, idx event.Time, liveL, liveR int) float64 {
	timeLeft := clampTimeLeft(j.paneDeadline(idx) - j.maxTS)
	loss := float64(len(p.left))*partnerBound(liveR, j.rRate.perTimeUnit(), timeLeft) +
		float64(len(p.right))*partnerBound(liveL, j.lRate.perTimeUnit(), timeLeft)
	return loss * j.coveringWindows()
}

// groupCounts sums a key group's buffered records per side.
func groupCounts(panes map[event.Time]*joinPane) (liveL, liveR int) {
	for _, p := range panes {
		liveL += len(p.left)
		liveR += len(p.right)
	}
	return
}

// dropPane removes one pane from a key group, recycling its buffers and
// updating the record accounting. Returns the records dropped.
func (j *windowJoin) dropPane(key int64, idx event.Time, out *Collector) int64 {
	panes := j.state[key]
	p := panes[idx]
	n := int64(len(p.left) + len(p.right))
	j.recCount -= n
	out.AddState(-n)
	stashSlice(&j.freeRecs, p.left)
	stashSlice(&j.freeRecs, p.right)
	delete(panes, idx)
	if len(panes) == 0 {
		delete(j.state, key)
	}
	return n
}

// ShedOldest implements Shedder: whole oldest panes are dropped first
// (across every key group) until at most target accounted units remain.
// The dedup set is never shed — losing it could re-emit suppressed
// duplicates, breaking the subset property; a shed pane only removes
// records from unfired windows, which can only lose matches. Every
// dropped pane charges its lost-match bound so the recall estimate
// stays a sound lower bound.
func (j *windowJoin) ShedOldest(target int64, out *Collector) int64 {
	var dropped int64
	var lost float64
	for j.recCount+int64(len(j.seen)) > target {
		pmin, ok := j.minPane()
		if !ok {
			break
		}
		for key, panes := range j.state {
			if p := panes[pmin]; p != nil {
				liveL, liveR := groupCounts(panes)
				lost += j.paneLoss(p, pmin, liveL, liveR)
				dropped += j.dropPane(key, pmin, out)
			}
		}
	}
	out.AddLostMatches(lost)
	return dropped
}

// ShedLowestValue implements ValueShedder: panes are dropped in order of
// ascending completion value instead of age. A pane whose key group
// holds records on both sides will produce matches with no further
// arrivals and scores 1; a one-sided group only fires if the missing
// side arrives before the pane's last covering window closes, so it
// scores the Poisson completion probability of one such arrival. Ties
// break oldest-pane-first, matching ShedOldest. Scores are computed
// once per invocation (shedding is rare; staleness within one sweep
// only reorders equally doomed panes). The dedup set is never shed.
func (j *windowJoin) ShedLowestValue(target int64, out *Collector) int64 {
	type wjVictim struct {
		key   int64
		idx   event.Time
		score float64
	}
	var victims []wjVictim
	for key, panes := range j.state {
		liveL, liveR := groupCounts(panes)
		for idx := range panes {
			score := 1.0
			if liveL == 0 || liveR == 0 {
				rate := j.rRate.perTimeUnit() // group waits on right-side arrivals
				if liveL == 0 {
					rate = j.lRate.perTimeUnit()
				}
				timeLeft := clampTimeLeft(j.paneDeadline(idx) - j.maxTS)
				score = overload.CompletionValue(1, timeLeft, int64(j.spec.Window), rate)
			}
			victims = append(victims, wjVictim{key, idx, score})
		}
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].score != victims[b].score {
			return victims[a].score < victims[b].score
		}
		return victims[a].idx < victims[b].idx
	})
	var dropped int64
	var lost float64
	for _, v := range victims {
		if j.recCount+int64(len(j.seen)) <= target {
			break
		}
		panes := j.state[v.key]
		if panes == nil || panes[v.idx] == nil {
			continue
		}
		liveL, liveR := groupCounts(panes)
		lost += j.paneLoss(panes[v.idx], v.idx, liveL, liveR)
		dropped += j.dropPane(v.key, v.idx, out)
	}
	out.AddLostMatches(lost)
	return dropped
}
