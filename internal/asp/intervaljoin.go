package asp

import (
	"cmp"
	"slices"
	"sort"
	"unsafe"

	"cep2asp/internal/event"
	"cep2asp/internal/overload"
)

// IntervalJoinSpec configures an interval join (optimization O1, §4.3.1):
// a right element r joins a left element l when
//
//	r.TS ∈ (l.TS+Lower, l.TS+Upper)   — both bounds exclusive.
//
// The paper derives the bounds from the window size W: conjunction uses
// (-W, +W), all order-constrained operators use (0, +W). Windows are thus
// content-based — created per left element — so the join detects every
// match without producing the duplicates of overlapping sliding windows.
type IntervalJoinSpec struct {
	Lower, Upper      event.Time
	LeftKey, RightKey KeyFn
	// Predicate must be stateless (shared across instances); use
	// NewPredicate for per-instance predicates with scratch space.
	Predicate    JoinPredicate
	NewPredicate func() JoinPredicate
}

// NewIntervalJoin returns the operator factory for Stream.Connect2.
func NewIntervalJoin(spec IntervalJoinSpec) func(int) Operator {
	return func(int) Operator {
		j := &intervalJoin{
			spec: spec, pred: spec.Predicate,
			state: make(ijGroups), nextDeath: event.MaxWatermark,
		}
		if spec.NewPredicate != nil {
			j.pred = spec.NewPredicate()
		}
		return j
	}
}

// ijSide is one input's buffer within a key group: recs[head:] are the
// buffered records, sorted by TS in the interval join and by pane in the
// window join (see insert). Eviction advances head instead of moving the
// survivors down; the slots before head are reclaimed when the buffer
// empties or an insert finds the array full.
type ijSide struct {
	recs []Record
	head int
}

func (s *ijSide) live() []Record { return s.recs[s.head:] }

// ijGroup holds the two sides of one key, indexed by input port (0 = left).
type ijGroup [2]ijSide

// ijGroups maps each key to its group. A group exists only while one of its
// sides buffers a record; its buffers are recycled through a free list.
type ijGroups map[int64]*ijGroup

// group returns key's group, creating it on recycled buffers.
func (gs ijGroups) group(key int64, free *[][]Record) *ijGroup {
	g := gs[key]
	if g == nil {
		g = &ijGroup{{recs: takeSlice(free)}, {recs: takeSlice(free)}}
		gs[key] = g
	}
	return g
}

// release deletes key's group if both its sides are empty, recycling its
// buffers.
func (gs ijGroups) release(key int64, g *ijGroup, free *[][]Record) {
	if len(g[0].live())+len(g[1].live()) == 0 {
		stashSlice(free, g[0].recs)
		stashSlice(free, g[1].recs)
		delete(gs, key)
	}
}

// records counts the records buffered across all groups.
func (gs ijGroups) records() int64 {
	var n int64
	for _, g := range gs {
		n += int64(len(g[0].live()) + len(g[1].live()))
	}
	return n
}

type intervalJoin struct {
	spec  IntervalJoinSpec
	pred  JoinPredicate
	state ijGroups
	elems int64 // records buffered across groups (mirrors AddState)
	// nextDeath is the earliest deathTime of any buffered record: lowered
	// on insert, recomputed from the group heads by every pass over the
	// groups (sweep, shed, restore). A watermark below it evicts nothing
	// and returns at once.
	nextDeath event.Time
	// Shedding statistics: per-port arrival rates and the max event time
	// seen, feeding completion scores and lost-match bounds.
	rate     [2]arrivalRate
	maxTS    event.Time
	freeRecs [][]Record // recycled group buffers
}

// DropsLateRecords implements LateDropper: OnWatermark evicts buffered
// elements assuming no record at or below the watermark can still arrive; a
// late record would silently miss join partners, so the engine drops it at
// the input and counts it instead.
func (j *intervalJoin) DropsLateRecords() {}

// groupKey returns the key group of a record arriving on port: its port's
// key function applied to it, or the one global group 0 when that is nil.
func groupKey(left, right KeyFn, port int, r *Record) int64 {
	if k := [2]KeyFn{left, right}[port]; k != nil {
		return k(r)
	}
	return 0
}

// partnerRange returns the exclusive bounds (lo, hi) on the timestamps of
// the opposite-side records that a record at ts on the given port joins
// with. Both bounds are monotone in ts, so in a TS-sorted buffer a record's
// partners are contiguous and the records no future arrival can partner
// are a prefix. Probe, eviction and the shedders all take their bounds from
// here.
func (j *intervalJoin) partnerRange(ts event.Time, port int) (lo, hi event.Time) {
	if port == 0 {
		return ts + j.spec.Lower, ts + j.spec.Upper
	}
	return ts - j.spec.Upper, ts - j.spec.Lower
}

// deathTime is the last timestamp that can still partner a record at ts.
// Future arrivals lie above the watermark, so the record is dead once the
// watermark reaches it.
func (j *intervalJoin) deathTime(ts event.Time, port int) event.Time {
	_, hi := j.partnerRange(ts, port)
	return hi - 1
}

// firstAfter returns the index of the first record of a TS-sorted buffer
// whose timestamp exceeds ts.
func firstAfter(buf []Record, ts event.Time) int {
	return sort.Search(len(buf), func(k int) bool { return buf[k].TS > ts })
}

// insert places a copy of r behind every buffered record whose timestamp is
// at most bound, where a binary search finds the first later one. The
// interval join passes r.TS, which keeps the buffer TS-sorted; the window
// join passes the last timestamp of r's pane, which keeps it ordered by
// pane and by arrival within a pane.
func (s *ijSide) insert(r *Record, bound event.Time) {
	if s.head > 0 && len(s.recs) == cap(s.recs) {
		s.recs = s.recs[:copy(s.recs, s.live())]
		s.head = 0
	}
	i := s.head + firstAfter(s.live(), bound)
	s.recs = append(s.recs, Record{})
	copy(s.recs[i+1:], s.recs[i:])
	s.recs[i] = *r
}

// drop evicts the first n live records by advancing head; an emptied
// buffer restarts at the front of its array.
func (s *ijSide) drop(n int) {
	if s.head += n; s.head == len(s.recs) {
		s.recs, s.head = s.recs[:0], 0
	}
}

func (j *intervalJoin) OnRecord(port int, r *Record, out *Collector) {
	g := j.state.group(groupKey(j.spec.LeftKey, j.spec.RightKey, port, r), &j.freeRecs)
	// The predicate reads both sides' constituents where they lie: the
	// arriving record in the inbound batch, each partner in its buffer.
	var pair [2][]event.Event
	pair[port] = r.Events()
	opp := 1 - port
	lo, hi := j.partnerRange(r.TS, port)
	partners := g[opp].live()
	for i := firstAfter(partners, lo); i < len(partners) && partners[i].TS < hi; i++ {
		pair[opp] = partners[i].Events()
		j.emit(max(r.TS, partners[i].TS), pair[0], pair[1], out)
	}
	g[port].insert(r, r.TS)
	j.nextDeath = min(j.nextDeath, j.deathTime(r.TS, port))
	j.rate[port].observe(r.TS)
	j.maxTS = max(j.maxTS, r.TS)
	j.elems++
	out.AddState(1)
}

// emit joins the pair with constituents l (left) and r (right).
func (j *intervalJoin) emit(ts event.Time, l, r []event.Event, out *Collector) {
	if j.pred != nil && !j.pred(l, r) {
		return
	}
	// The match takes ownership of the new slice: one allocation per pair.
	evs := make([]event.Event, 0, len(l)+len(r))
	out.EmitMatch(ts, event.WrapMatch(append(append(evs, l...), r...)))
}

// evictDead drops the records of one side that are dead at wm and returns
// their number. They are a prefix: a live head means nothing died and the
// side is not touched; otherwise the cut is found by binary search.
func (j *intervalJoin) evictDead(s *ijSide, port int, wm event.Time) int {
	live := s.live()
	if len(live) == 0 || j.deathTime(live[0].TS, port) > wm {
		return 0
	}
	dead := sort.Search(len(live), func(k int) bool { return j.deathTime(live[k].TS, port) > wm })
	s.drop(dead)
	return dead
}

func (j *intervalJoin) OnWatermark(wm event.Time, out *Collector) {
	if wm < j.nextDeath {
		return
	}
	var evicted int64
	j.nextDeath = event.MaxWatermark
	for key, g := range j.state {
		for port := range g {
			evicted += int64(j.evictDead(&g[port], port, wm))
		}
		j.closeGroup(key, g)
	}
	j.elems -= evicted
	out.AddState(-evicted)
}

// closeGroup ends a pass over one key group: an emptied group is deleted
// and its buffers recycled, a surviving one lowers nextDeath to its heads.
func (j *intervalJoin) closeGroup(key int64, g *ijGroup) {
	for port := range g {
		if live := g[port].live(); len(live) > 0 {
			j.nextDeath = min(j.nextDeath, j.deathTime(live[0].TS, port))
		}
	}
	j.state.release(key, g, &j.freeRecs)
}

func (j *intervalJoin) OnClose(*Collector) {}

// ijState is the gob snapshot DTO of an intervalJoin instance.
type ijState struct {
	Groups map[int64]*ijGroupState
}

type ijGroupState struct {
	Left, Right []Record
}

// SnapshotState implements Snapshotter.
func (j *intervalJoin) SnapshotState() ([]byte, error) {
	st := ijState{Groups: make(map[int64]*ijGroupState, len(j.state))}
	for key, g := range j.state {
		st.Groups[key] = &ijGroupState{Left: g[0].live(), Right: g[1].live()}
	}
	return gobEncode(st)
}

// RestoreState implements Snapshotter.
func (j *intervalJoin) RestoreState(data []byte) error {
	var st ijState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	j.state = make(ijGroups, len(st.Groups))
	j.elems = 0
	j.nextDeath = event.MaxWatermark
	for key, gs := range st.Groups {
		g := &ijGroup{{recs: gs.Left}, {recs: gs.Right}}
		j.state[key] = g
		j.elems += int64(len(gs.Left) + len(gs.Right))
		j.closeGroup(key, g)
	}
	return nil
}

// BufferedState implements StateCounter.
func (j *intervalJoin) BufferedState() int64 { return j.state.records() }

// StateStats implements StateAccountant.
func (j *intervalJoin) StateStats() StateStats {
	return StateStats{Records: j.elems, Bytes: j.elems * int64(unsafe.Sizeof(Record{}))}
}

// recordLife is the event time a buffered record can still join across:
// until its deathTime.
func (j *intervalJoin) recordLife(r Record, port int) int64 {
	return clampTimeLeft(j.deathTime(r.TS, port) - j.maxTS)
}

// recordLoss bounds the matches a dropped buffered record could still
// have produced. The interval join emits at insertion time, so a
// buffered record's only future value is joining opposite-side records
// that have not arrived yet: the expected arrivals within its remaining
// partner range (padded by overload.LossSafety, floored at 1).
// Over-counting is safe; under-counting is not.
func (j *intervalJoin) recordLoss(r Record, port int) float64 {
	return overload.ExpectedArrivals(j.rate[1-port].perTimeUnit(), j.recordLife(r, port))
}

// recordScore is the completion probability of a buffered record: at
// least one opposite-side arrival within its remaining partner range,
// under the observed opposite-side rate.
func (j *intervalJoin) recordScore(r Record, port int) float64 {
	lo, hi := j.partnerRange(r.TS, port)
	return overload.CompletionValue(1, j.recordLife(r, port), int64(hi-lo), j.rate[1-port].perTimeUnit())
}

// shedByRank drops the buffered records ranked lowest until at most target
// remain: the excess-th smallest rank is the cutoff and everything at or
// below it goes (ties shed together), each record charging its lost-match
// bound. Nothing is reordered, so the buffers stay TS-sorted. Dropping
// buffered elements only removes potential join partners, so the shed run's
// matches are a subset of the unshed run's.
func shedByRank[T cmp.Ordered](j *intervalJoin, target int64, rank func(r Record, port int) T, out *Collector) int64 {
	excess := j.elems - target
	if excess <= 0 {
		return 0
	}
	ranks := make([]T, 0, j.elems)
	for _, g := range j.state {
		for port := range g {
			for _, r := range g[port].live() {
				ranks = append(ranks, rank(r, port))
			}
		}
	}
	slices.Sort(ranks)
	cutoff := ranks[min(excess, int64(len(ranks)))-1]
	var lost float64
	before := j.elems
	j.nextDeath = event.MaxWatermark
	for key, g := range j.state {
		for port := range g {
			s := &g[port]
			kept := s.recs[:0]
			for _, r := range s.live() {
				if rank(r, port) <= cutoff {
					lost += j.recordLoss(r, port)
					j.elems--
				} else {
					kept = append(kept, r)
				}
			}
			s.recs, s.head = kept, 0
		}
		j.closeGroup(key, g)
	}
	out.AddState(j.elems - before)
	out.AddLostMatches(lost)
	return before - j.elems
}

// ShedOldest implements Shedder: the globally oldest buffered elements
// (across both sides of every key group) are dropped first.
func (j *intervalJoin) ShedOldest(target int64, out *Collector) int64 {
	return shedByRank(j, target, func(r Record, _ int) event.Time { return r.TS }, out)
}

// ShedLowestValue implements ValueShedder: buffered elements are dropped
// in order of ascending completion score instead of age. With symmetric
// arrival rates this degenerates to oldest-first (older records have
// less life left), but under side-asymmetric rates it keeps the records
// whose missing partner is actually likely to arrive.
func (j *intervalJoin) ShedLowestValue(target int64, out *Collector) int64 {
	return shedByRank(j, target, j.recordScore, out)
}
