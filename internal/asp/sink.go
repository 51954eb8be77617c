package asp

import (
	"sync"
	"time"

	"cep2asp/internal/event"
	"cep2asp/internal/obs"
)

// Results is a sink handle: it gathers the matches reaching the end of a
// pipeline together with count and detection-latency statistics. Detection
// latency is sink arrival wall-clock time minus the latest contributing
// event's creation time, following the paper's metric definition (§5.1.3).
//
// With Dedup set, duplicate matches produced by overlapping sliding windows
// (§3.1.4) are counted separately and excluded from Matches; semantic
// equivalence of two executions is judged on the deduplicated sets (§4).
type Results struct {
	// Dedup eliminates duplicate matches by identity (Match.Key).
	Dedup bool
	// Keep retains match values (disable for throughput benchmarks where
	// only counts matter).
	Keep bool

	mu      sync.Mutex
	matches []*event.Match
	seen    map[string]struct{}
	total   int64
	unique  int64
	// lat is the detection-latency histogram (nanoseconds): log-bucketed,
	// so p50/p90/p99 are available alongside mean and max.
	lat obs.Histogram
}

// NewResults creates a sink handle; attach it with Stream.Sink(name,
// r.Operator()).
func NewResults(dedup, keep bool) *Results {
	return &Results{Dedup: dedup, Keep: keep, seen: make(map[string]struct{})}
}

// Operator returns the operator factory for Stream.Sink.
func (r *Results) Operator() func(int) Operator {
	return func(int) Operator { return &resultSink{res: r} }
}

type resultSink struct {
	BaseOperator
	res *Results
}

func (s *resultSink) OnRecord(_ int, rec *Record, _ *Collector) {
	s.res.add(rec)
}

// SnapshotState implements Snapshotter: the sink's accumulated results are
// part of the checkpoint, so a restored run converges on exactly the output
// of an uninterrupted one (exactly-once at the sink for replayable sources).
func (s *resultSink) SnapshotState() ([]byte, error) { return s.res.Snapshot() }

// RestoreState implements Snapshotter.
func (s *resultSink) RestoreState(data []byte) error { return s.res.Restore(data) }

// resultsState is the gob snapshot DTO of a Results sink. Seen is a slice
// because map[string]struct{} has no gob encoding; the latency histogram is
// captured as its sparse bucket state.
type resultsState struct {
	Matches []*event.Match
	Seen    []string
	Total   int64
	Unique  int64
	Lat     obs.HistogramState
}

// Snapshot serializes the sink's accumulated results.
func (r *Results) Snapshot() ([]byte, error) {
	r.mu.Lock()
	defer r.mu.Unlock()
	st := resultsState{
		Matches: r.matches,
		Seen:    make([]string, 0, len(r.seen)),
		Total:   r.total,
		Unique:  r.unique,
		Lat:     r.lat.State(),
	}
	for k := range r.seen {
		st.Seen = append(st.Seen, k)
	}
	return gobEncode(st)
}

// Restore replaces the sink's results with those of a Snapshot.
func (r *Results) Restore(data []byte) error {
	var st resultsState
	if err := gobDecode(data, &st); err != nil {
		return err
	}
	r.mu.Lock()
	defer r.mu.Unlock()
	r.matches = st.Matches
	r.seen = make(map[string]struct{}, len(st.Seen))
	for _, k := range st.Seen {
		r.seen[k] = struct{}{}
	}
	r.total = st.Total
	r.unique = st.Unique
	r.lat.Restore(st.Lat)
	return nil
}

func (r *Results) add(rec *Record) {
	now := time.Now().UnixNano()
	r.mu.Lock()
	defer r.mu.Unlock()
	r.total++
	if ing := rec.Ingest(); ing > 0 {
		r.lat.Record(now - ing)
	}
	m := rec.ToMatch()
	if r.Dedup {
		k := m.Key()
		if _, dup := r.seen[k]; dup {
			return
		}
		r.seen[k] = struct{}{}
	}
	r.unique++
	if r.Keep {
		r.matches = append(r.matches, m)
	}
}

// Total returns the number of records that reached the sink, duplicates
// included.
func (r *Results) Total() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.total
}

// Unique returns the number of distinct matches (equals Total when Dedup is
// off).
func (r *Results) Unique() int64 {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.unique
}

// Matches returns the retained matches. The slice is shared; callers must
// not modify it while the pipeline runs.
func (r *Results) Matches() []*event.Match {
	r.mu.Lock()
	defer r.mu.Unlock()
	return r.matches
}

// Keys returns the sorted-insertion-order identity keys of the retained
// matches; convenient for set comparisons in tests.
func (r *Results) Keys() []string {
	r.mu.Lock()
	defer r.mu.Unlock()
	out := make([]string, len(r.matches))
	for i, m := range r.matches {
		out[i] = m.Key()
	}
	return out
}

// AvgLatency returns the mean detection latency observed at the sink.
func (r *Results) AvgLatency() time.Duration {
	return time.Duration(r.lat.Mean())
}

// MaxLatency returns the largest detection latency observed at the sink.
func (r *Results) MaxLatency() time.Duration {
	return time.Duration(r.lat.Max())
}

// LatencyQuantile returns the q-quantile (0 < q <= 1) of the detection
// latency distribution, within the histogram's ~3% bucket resolution.
func (r *Results) LatencyQuantile(q float64) time.Duration {
	return time.Duration(r.lat.Quantile(q))
}

// LatencyPercentiles returns the p50/p90/p99 detection latencies.
func (r *Results) LatencyPercentiles() (p50, p90, p99 time.Duration) {
	return r.LatencyQuantile(0.50), r.LatencyQuantile(0.90), r.LatencyQuantile(0.99)
}

// LatencyHistogram exposes the underlying histogram, e.g. for registration
// with an obs.Registry (live /metrics export).
func (r *Results) LatencyHistogram() *obs.Histogram { return &r.lat }
