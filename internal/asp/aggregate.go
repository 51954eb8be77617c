package asp

import (
	"sort"
	"unsafe"

	"cep2asp/internal/event"
)

// AggResult is the incremental aggregate of one sliding window and key.
type AggResult struct {
	Count    int64
	Sum      float64
	Min, Max float64
	// Ingest tracks the latest wall-clock creation time among contributing
	// events, so detection latency stays measurable after aggregation.
	Ingest int64
}

func (a *AggResult) add(v float64) {
	if a.Count == 0 {
		a.Min, a.Max = v, v
	} else {
		if v < a.Min {
			a.Min = v
		}
		if v > a.Max {
			a.Max = v
		}
	}
	a.Count++
	a.Sum += v
}

func (a *AggResult) addEvent(e event.Event) {
	a.add(e.Value)
	if e.Ingest > a.Ingest {
		a.Ingest = e.Ingest
	}
}

func (a *AggResult) merge(b AggResult) {
	if b.Count == 0 {
		return
	}
	if a.Count == 0 {
		*a = b
		return
	}
	a.Count += b.Count
	a.Sum += b.Sum
	if b.Min < a.Min {
		a.Min = b.Min
	}
	if b.Max > a.Max {
		a.Max = b.Max
	}
	if b.Ingest > a.Ingest {
		a.Ingest = b.Ingest
	}
}

// Mean returns the running average, or 0 for empty aggregates.
func (a AggResult) Mean() float64 {
	if a.Count == 0 {
		return 0
	}
	return a.Sum / float64(a.Count)
}

// WindowAggregateSpec configures the sliding window aggregation used by
// optimization O2 (§4.3.2): instead of enumerating iteration combinations,
// count the relevant events per window and emit one approximate result
// tuple when the count reaches m (the skip-till-any-match Kleene+
// variation). Sum/Min/Max/Mean are maintained alongside the count, enabling
// the accumulated-information analyses the paper notes plain ITER results
// barely support.
//
// Windows that receive no event never fire — which is why O2 cannot express
// Kleene* (§4.3.2).
type WindowAggregateSpec struct {
	Window, Slide event.Time
	Key           KeyFn
	// MinCount suppresses windows with fewer events (the n >= m test).
	MinCount int64
	// Output builds the result tuple for a firing window; nil uses
	// DefaultAggOutput.
	Output func(key int64, windowEnd event.Time, a AggResult) event.Event
}

// DefaultAggOutput emits a tuple of the input schema (§4.3.2): the key as
// ID, the window end as timestamp, and the count as value.
func DefaultAggOutput(key int64, windowEnd event.Time, a AggResult) event.Event {
	return event.Event{ID: key, TS: windowEnd, Value: float64(a.Count), Ingest: a.Ingest}
}

// NewWindowAggregate returns the operator factory for Stream.Process.
func NewWindowAggregate(spec WindowAggregateSpec) func(int) Operator {
	if spec.Output == nil {
		spec.Output = DefaultAggOutput
	}
	return func(int) Operator {
		return &windowAggregate{
			spec:     spec,
			state:    make(map[int64]map[event.Time]*AggResult),
			nextFire: event.MaxWatermark,
		}
	}
}

type windowAggregate struct {
	spec      WindowAggregateSpec
	state     map[int64]map[event.Time]*AggResult // key -> pane -> partial
	paneCount int64                               // live panes across groups
	nextFire  event.Time
	freeAgg   []*AggResult // recycled pane partials
}

// DropsLateRecords implements LateDropper: the nextFire tracking in OnRecord
// assumes records arrive above the merged watermark; a late record would
// re-open windows that already fired, so the engine drops it at the input.
func (w *windowAggregate) DropsLateRecords() {}

func (w *windowAggregate) OnRecord(_ int, r *Record, out *Collector) {
	if r.Kind != KindEvent {
		return // aggregation is defined over plain event streams
	}
	var key int64
	if w.spec.Key != nil {
		key = w.spec.Key(r)
	}
	panes := w.state[key]
	if panes == nil {
		panes = make(map[event.Time]*AggResult)
		w.state[key] = panes
		out.AddState(1) // account groups, not events: panes hold O(1) state
	}
	idx := event.PaneIndex(r.TS, w.spec.Slide)
	p := panes[idx]
	if p == nil {
		if l := len(w.freeAgg); l > 0 {
			p = w.freeAgg[l-1]
			w.freeAgg = w.freeAgg[:l-1]
			*p = AggResult{}
		} else {
			p = &AggResult{}
		}
		panes[idx] = p
		w.paneCount++
	}
	p.addEvent(r.Event)

	kLo, _ := event.WindowsOf(r.TS, w.spec.Window, w.spec.Slide)
	if ws := kLo * w.spec.Slide; ws < w.nextFire {
		w.nextFire = ws
	}
}

func (w *windowAggregate) OnWatermark(wm event.Time, out *Collector) {
	for w.nextFire <= wm-w.spec.Window+1 {
		pmin, ok := w.minPane()
		if !ok {
			w.nextFire = event.MaxWatermark
			return
		}
		if first := alignUp((pmin+1)*w.spec.Slide-w.spec.Window, w.spec.Slide); first > w.nextFire {
			w.nextFire = first
			continue
		}
		w.fire(w.nextFire, out)
		w.evictBefore(w.nextFire+w.spec.Slide, out)
		w.nextFire += w.spec.Slide
	}
}

func (w *windowAggregate) minPane() (event.Time, bool) {
	min, ok := event.Time(0), false
	for _, panes := range w.state {
		for idx := range panes {
			if !ok || idx < min {
				min, ok = idx, true
			}
		}
	}
	return min, ok
}

func (w *windowAggregate) OnClose(*Collector) {}

// aggState is the gob snapshot DTO of a windowAggregate instance.
type aggState struct {
	Panes    map[int64]map[event.Time]*AggResult
	NextFire event.Time
}

// SnapshotState implements Snapshotter.
func (w *windowAggregate) SnapshotState() ([]byte, error) {
	return gobEncode(aggState{Panes: w.state, NextFire: w.nextFire})
}

// RestoreState implements Snapshotter.
func (w *windowAggregate) RestoreState(data []byte) error {
	var st aggState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	w.state = st.Panes
	if w.state == nil {
		w.state = make(map[int64]map[event.Time]*AggResult)
	}
	w.paneCount = 0
	for _, panes := range w.state {
		w.paneCount += int64(len(panes))
	}
	w.nextFire = st.NextFire
	return nil
}

// BufferedState implements StateCounter: key groups, matching the AddState
// accounting of OnRecord/evictBefore (panes hold O(1) state per group).
func (w *windowAggregate) BufferedState() int64 {
	return int64(len(w.state))
}

// StateStats implements StateAccountant. Records counts key groups — the
// same unit AddState mirrors — while Bytes approximates the live pane
// partials, which is where the memory actually sits.
func (w *windowAggregate) StateStats() StateStats {
	return StateStats{
		Records: int64(len(w.state)),
		Bytes:   w.paneCount * int64(unsafe.Sizeof(AggResult{})),
	}
}

// windowsPerPane bounds the sliding-window firings one pane contributes
// to: ceil(Window/Slide). Used as the per-pane lost-output bound —
// coarse (it ignores MinCount suppression and co-dropped panes sharing
// a firing), but over-counting only lowers the recall estimate, which
// must stay a lower bound.
func (w *windowAggregate) windowsPerPane() float64 {
	return float64((w.spec.Window + w.spec.Slide - 1) / w.spec.Slide)
}

// ShedOldest implements Shedder: the oldest pane is dropped from every key
// group until at most target groups remain (a group only counts against the
// budget while it holds panes). Shed windows fire with underestimated
// aggregates — or, once below MinCount, not at all — so degradation shows up
// as suppressed or lowered counts, never fabricated ones. Every dropped
// pane charges the firings it could have fed.
func (w *windowAggregate) ShedOldest(target int64, out *Collector) int64 {
	var dropped int64
	var lost float64
	for int64(len(w.state)) > target {
		pmin, ok := w.minPane()
		if !ok {
			break
		}
		for key, panes := range w.state {
			if p, hit := panes[pmin]; hit {
				if len(w.freeAgg) < freeListCap {
					w.freeAgg = append(w.freeAgg, p)
				}
				delete(panes, pmin)
				w.paneCount--
				lost += w.windowsPerPane()
			}
			if len(panes) == 0 {
				delete(w.state, key)
				dropped++
				out.AddState(-1)
			}
		}
	}
	out.AddLostMatches(lost)
	return dropped
}

// ShedLowestValue implements ValueShedder: whole key groups with the
// lowest accumulated event count are dropped first — they are the least
// likely to reach MinCount before their windows close, so sacrificing
// them preserves the groups that will actually fire. Ties break on key
// for determinism. The budget unit is groups, matching ShedOldest.
func (w *windowAggregate) ShedLowestValue(target int64, out *Collector) int64 {
	if int64(len(w.state)) <= target {
		return 0
	}
	type aggVictim struct {
		key   int64
		count int64
		panes int
	}
	victims := make([]aggVictim, 0, len(w.state))
	for key, panes := range w.state {
		var c int64
		for _, p := range panes {
			c += p.Count
		}
		victims = append(victims, aggVictim{key, c, len(panes)})
	}
	sort.Slice(victims, func(a, b int) bool {
		if victims[a].count != victims[b].count {
			return victims[a].count < victims[b].count
		}
		return victims[a].key < victims[b].key
	})
	var dropped int64
	var lost float64
	for _, v := range victims {
		if int64(len(w.state)) <= target {
			break
		}
		for _, p := range w.state[v.key] {
			if len(w.freeAgg) < freeListCap {
				w.freeAgg = append(w.freeAgg, p)
			}
		}
		w.paneCount -= int64(v.panes)
		delete(w.state, v.key)
		dropped++
		out.AddState(-1)
		lost += float64(v.panes) * w.windowsPerPane()
	}
	out.AddLostMatches(lost)
	return dropped
}

func (w *windowAggregate) fire(ws event.Time, out *Collector) {
	paneLo := event.PaneIndex(ws, w.spec.Slide)
	paneHi := event.PaneIndex(ws+w.spec.Window-1, w.spec.Slide)
	for key, panes := range w.state {
		var total AggResult
		for p := paneLo; p <= paneHi; p++ {
			if part := panes[p]; part != nil {
				total.merge(*part)
			}
		}
		if total.Count == 0 || total.Count < w.spec.MinCount {
			continue
		}
		e := w.spec.Output(key, ws+w.spec.Window-1, total)
		out.EmitEvent(e)
	}
}

func (w *windowAggregate) evictBefore(liveStart event.Time, out *Collector) {
	cutoff := event.PaneIndex(liveStart, w.spec.Slide)
	for key, panes := range w.state {
		for idx, p := range panes {
			if idx < cutoff {
				if len(w.freeAgg) < freeListCap {
					w.freeAgg = append(w.freeAgg, p)
				}
				delete(panes, idx)
				w.paneCount--
			}
		}
		if len(panes) == 0 {
			delete(w.state, key)
			out.AddState(-1)
		}
	}
}
