package asp

import (
	"context"
	"sort"
	"strings"
	"testing"

	"cep2asp/internal/event"
	"cep2asp/internal/obs"
)

var (
	tBQ = event.RegisterType("BatchQ")
	tBV = event.RegisterType("BatchV")
)

// seqTopology builds a small SEQ(Q,V) window-join pipeline over the given
// environment and returns its result sink.
func seqTopology(env *Environment, n int) *Results {
	res := NewResults(true, true)
	minsQ := make([]int64, n)
	minsV := make([]int64, n)
	for i := range minsQ {
		minsQ[i] = int64(i * 2)
		minsV[i] = int64(i*2 + 1)
	}
	left := env.Source("q", mkEvents(tBQ, 1, minsQ, nil), false)
	right := env.Source("v", mkEvents(tBV, 1, minsV, nil), false)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute,
		Slide:  event.Minute,
		Predicate: func(l, r []event.Event) bool {
			return l[0].TS < r[0].TS
		},
	})).Sink("sink", res.Operator())
	return res
}

// matchKeys returns the sorted distinct match keys of a result sink.
func matchKeys(res *Results) []string {
	ms := res.Matches()
	keys := make([]string, len(ms))
	for i, m := range ms {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func TestBatchEquivalenceAcrossSizes(t *testing.T) {
	const n = 200
	var refKeys []string
	var refTotal int64
	for _, bs := range []int{1, 2, 7, 64, 4096} {
		env := NewEnvironment(Config{BatchSize: bs, WatermarkInterval: 1})
		res := seqTopology(env, n)
		if err := env.Execute(context.Background()); err != nil {
			t.Fatalf("BatchSize=%d: Execute: %v", bs, err)
		}
		keys := matchKeys(res)
		if len(keys) == 0 {
			t.Fatalf("BatchSize=%d: no matches found", bs)
		}
		if refKeys == nil {
			refKeys, refTotal = keys, res.Total()
			continue
		}
		if res.Total() != refTotal {
			t.Errorf("BatchSize=%d: total %d, want %d (batching must not change results)", bs, res.Total(), refTotal)
		}
		if len(keys) != len(refKeys) {
			t.Fatalf("BatchSize=%d: %d unique matches, want %d", bs, len(keys), len(refKeys))
		}
		for i := range keys {
			if keys[i] != refKeys[i] {
				t.Fatalf("BatchSize=%d: match set diverges at %d: %s vs %s", bs, i, keys[i], refKeys[i])
			}
		}
	}
}

// TestWatermarkCoalescingInBatch drives the Collector directly: adjacent
// watermarks pushed into one pending batch must collapse to the newest one,
// and a record in between must keep both.
func TestWatermarkCoalescingInBatch(t *testing.T) {
	e := &edge{partition: SinglePartition(), chans: []chan []Record{make(chan []Record, 4)}}
	c := &Collector{
		metrics: &NodeMetrics{},
		senders: []edgeSender{{e: e, pending: make([][]Record, 1)}},
		done:    make(chan struct{}),
		batch:   16,
		pool:    newBatchPool(16, nil),
	}
	s := &c.senders[0]
	push := func(r Record) {
		if !c.push(s, 0, &r, 0) {
			t.Fatal("push aborted")
		}
	}
	push(Record{Kind: KindWatermark, TS: 1})
	push(Record{Kind: KindWatermark, TS: 2})
	push(Record{Kind: KindWatermark, TS: 3})
	if got := len(s.pending[0]); got != 1 {
		t.Fatalf("adjacent watermarks not coalesced: %d pending records, want 1", got)
	}
	if got := s.pending[0][0].TS; got != 3 {
		t.Fatalf("coalesced watermark TS = %d, want the newest (3)", got)
	}
	push(Record{Kind: KindEvent, TS: 5, Event: event.Event{TS: 5}})
	push(Record{Kind: KindWatermark, TS: 5})
	if got := len(s.pending[0]); got != 3 {
		t.Fatalf("watermark across a data record must not coalesce: %d pending, want 3", got)
	}
	// Filling the batch must transfer it as one channel operation.
	for i := 0; i < 13; i++ {
		push(Record{Kind: KindEvent, TS: 10 + event.Time(i)})
	}
	select {
	case b := <-e.chans[0]:
		if len(b) != 16 {
			t.Fatalf("transferred batch has %d records, want 16", len(b))
		}
	default:
		t.Fatal("full batch was not transferred")
	}
	if s.pending[0] != nil {
		t.Fatalf("pending not cleared after transfer")
	}
}

// TestBatchObsMetrics checks that edge transfers are amortized (fewer
// channel operations than records on an unpaced source edge), that the batch
// histogram and pool counters are populated, and that Sent still counts
// records so existing accounting is unchanged.
func TestBatchObsMetrics(t *testing.T) {
	const n = 5000
	reg := obs.NewRegistry()
	env := NewEnvironment(Config{BatchSize: 64, Metrics: reg})
	res := NewResults(false, true)
	mins := make([]int64, n)
	for i := range mins {
		mins[i] = int64(i)
	}
	env.Source("src", mkEvents(tBQ, 1, mins, nil), false).
		Filter("filter", func(event.Event) bool { return true }).
		Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if got := res.Total(); got != n {
		t.Fatalf("sink received %d records, want %d", got, n)
	}
	snap := reg.Snapshot()
	var srcEdge *obs.EdgeSnapshot
	for i := range snap.Edges {
		if snap.Edges[i].From == "src" {
			srcEdge = &snap.Edges[i]
		}
	}
	if srcEdge == nil {
		t.Fatal("no src edge in snapshot")
	}
	if srcEdge.Sent < n {
		t.Fatalf("edge Sent = %d, want >= %d (records, not transfers)", srcEdge.Sent, n)
	}
	// An unpaced source flushes only on full batches and EOS, so transfers
	// must be a small fraction of records.
	if srcEdge.Batches == 0 || srcEdge.Batches > srcEdge.Sent/8 {
		t.Fatalf("edge Batches = %d for Sent = %d; expected amortized transfers", srcEdge.Batches, srcEdge.Sent)
	}
	if srcEdge.BatchMax < 64 {
		t.Fatalf("BatchMax = %d, want >= 64 (full batches)", srcEdge.BatchMax)
	}
	var pool *obs.PoolSnapshot
	for i := range snap.Pools {
		if snap.Pools[i].Name == "batch" {
			pool = &snap.Pools[i]
		}
	}
	if pool == nil {
		t.Fatal("no batch pool in snapshot")
	}
	if pool.Hits+pool.Misses == 0 {
		t.Fatal("pool counters untouched")
	}
	if pool.Hits == 0 {
		t.Fatal("expected pool hits: receivers recycle batch buffers")
	}
}

func TestThrottleValidation(t *testing.T) {
	t.Run("non-source", func(t *testing.T) {
		env := NewEnvironment(Config{})
		res := NewResults(false, false)
		env.Source("src", mkEvents(tBQ, 1, []int64{0}, nil), false).
			Filter("f", func(event.Event) bool { return true }).
			Throttle(100).
			Sink("sink", res.Operator())
		err := env.Execute(context.Background())
		if err == nil || !strings.Contains(err.Error(), "only source streams") {
			t.Fatalf("Execute = %v, want non-source Throttle error", err)
		}
	})
	for _, rate := range []float64{0, -5} {
		env := NewEnvironment(Config{})
		res := NewResults(false, false)
		env.Source("src", mkEvents(tBQ, 1, []int64{0}, nil), false).
			Throttle(rate).
			Sink("sink", res.Operator())
		err := env.Execute(context.Background())
		if err == nil || !strings.Contains(err.Error(), "rate must be positive") {
			t.Fatalf("Throttle(%v): Execute = %v, want rate error", rate, err)
		}
	}
}

func TestSourceOutOfOrderNegativeLateness(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.SourceOutOfOrder("src", mkEvents(tBQ, 1, []int64{0}, nil), false, -event.Minute).
		Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "negative lateness") {
		t.Fatalf("Execute = %v, want negative-lateness error", err)
	}
}

// TestBuildErrReportsFirst ensures the first misuse wins when several occur.
func TestBuildErrReportsFirst(t *testing.T) {
	env := NewEnvironment(Config{})
	res := NewResults(false, false)
	env.Source("src", mkEvents(tBQ, 1, []int64{0}, nil), false).
		Throttle(-1).
		Throttle(0).
		Sink("sink", res.Operator())
	err := env.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "got -1") {
		t.Fatalf("Execute = %v, want the first recorded error (rate -1)", err)
	}
}
