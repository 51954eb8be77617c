package main

import (
	"fmt"
	"runtime"
	"sort"
	"sync"
	"time"

	"cep2asp"
	"cep2asp/internal/asp"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/exchange"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// The probes measure single layers from outside, through the exported
// functions of internal/*, with no engine around them.

// probeParse times sea.Parse on the workload's PSL text.
func probeParse(psl string) (*sea.Pattern, time.Duration, error) {
	t0 := time.Now()
	p, err := sea.Parse(psl)
	return p, time.Since(t0), err
}

// probeTranslate times the translation the workload's mode uses and counts
// the plan's nodes.
func probeTranslate(w *workload, p *sea.Pattern) (nodes int, d time.Duration, err error) {
	t0 := time.Now()
	var plan *core.Plan
	if w.FCEP {
		plan, err = core.TranslateFCEP(p, w.Opts)
	} else {
		plan, err = core.Translate(p, w.Opts)
	}
	d = time.Since(t0)
	if err != nil {
		return 0, d, err
	}
	var walk func(n core.PlanNode)
	walk = func(n core.PlanNode) {
		nodes++
		for _, k := range n.Kids() {
			walk(k)
		}
	}
	walk(plan.Root)
	return nodes, d, nil
}

// probeEventCap bounds the events a direct probe replays.
const probeEventCap = 200_000

// mergeByTime interleaves the streams in event-time order, as the union in
// front of the unary CEP operator delivers them after its reorder buffer,
// and returns the first limit events. Every stream is time-ordered, so those
// lie within the first limit events of their own stream.
func mergeByTime(in inputs, limit int) []event.Event {
	var all []event.Event
	for _, s := range in.prefix(limit) {
		all = append(all, s...)
	}
	sort.SliceStable(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	if len(all) > limit {
		all = all[:limit]
	}
	return all
}

// probeNFA steps the pattern's automaton over the first events of the
// workload, single-threaded: cep.Compile (through core.TranslateFCEP) →
// nfa.NewMachine → OnEvent per event and OnWatermark at the engine's
// default cadence of 64 records.
func probeNFA(w *workload, p *sea.Pattern, in inputs) (nsPerEvent, allocsPerEvent float64, err error) {
	plan, err := core.TranslateFCEP(p, w.Opts)
	if err != nil {
		return 0, 0, err
	}
	cp, ok := plan.Root.(*core.CEPPlan)
	if !ok {
		return 0, 0, fmt.Errorf("FCEP plan root is %T, want *core.CEPPlan", plan.Root)
	}
	m, err := nfa.NewMachine(cp.Prog)
	if err != nil {
		return 0, 0, err
	}
	events := mergeByTime(in, probeEventCap)
	matches := 0
	emit := func(*event.Match) { matches++ }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	t0 := time.Now()
	for i, e := range events {
		m.OnEvent(e, emit)
		if (i+1)%64 == 0 {
			m.OnWatermark(e.TS-1, emit)
		}
	}
	d := time.Since(t0)
	runtime.ReadMemStats(&after)
	n := float64(len(events))
	return float64(d.Nanoseconds()) / n, float64(after.Mallocs-before.Mallocs) / n, nil
}

type codecProbe struct {
	encodeNsPerRecord, decodeNsPerRecord, bytesPerRecord float64
}

// probeCodec encodes and decodes the workload's first events as 64-record
// frames, the batch size the engine's edges use.
func probeCodec(w *workload, in inputs) (codecProbe, error) {
	const batch = 64
	table := exchange.NewTypeTable(w.Streams)
	events := mergeByTime(in, probeEventCap)
	records := make([]asp.Record, len(events))
	for i, e := range events {
		records[i] = asp.EventRecord(e)
	}
	var frames [][]byte
	var buf []byte
	var bytes int
	t0 := time.Now()
	for i := 0; i+batch <= len(records); i += batch {
		var err error
		buf, err = exchange.AppendFrame(buf[:0], table, uint64(i/batch), 1, 0, records[i:i+batch])
		if err != nil {
			return codecProbe{}, err
		}
		bytes += len(buf)
		frames = append(frames, append([]byte(nil), buf...))
	}
	enc := time.Since(t0)
	if len(frames) == 0 {
		return codecProbe{}, fmt.Errorf("codec probe: fewer than %d events", batch)
	}
	decoded := 0
	t0 = time.Now()
	for _, f := range frames {
		_, recs, err := exchange.DecodeFrame(f[4:], table) // after the length prefix
		if err != nil {
			return codecProbe{}, err
		}
		decoded += len(recs)
	}
	dec := time.Since(t0)
	n := float64(len(frames) * batch)
	if decoded != len(frames)*batch {
		return codecProbe{}, fmt.Errorf("codec probe: decoded %d records, encoded %d", decoded, len(frames)*batch)
	}
	return codecProbe{
		encodeNsPerRecord: float64(enc.Nanoseconds()) / n,
		decodeNsPerRecord: float64(dec.Nanoseconds()) / n,
		bytesPerRecord:    float64(bytes) / n,
	}, nil
}

// timedStore wraps a checkpoint store and records when each snapshot was
// saved, how long the save took and how large it was.
type timedStore struct {
	cep2asp.CheckpointStore
	mu    sync.Mutex
	saves []savedCheckpoint
}

type savedCheckpoint struct {
	at    time.Time
	took  time.Duration
	bytes int64
}

func newTimedStore() *timedStore {
	return &timedStore{CheckpointStore: cep2asp.NewMemCheckpointStore()}
}

func (s *timedStore) Save(snap *checkpoint.Snapshot) error {
	t0 := time.Now()
	err := s.CheckpointStore.Save(snap)
	took := time.Since(t0)
	s.mu.Lock()
	s.saves = append(s.saves, savedCheckpoint{at: t0, took: took, bytes: snap.Bytes()})
	s.mu.Unlock()
	return err
}

type checkpointStats struct {
	completed                          int
	saveP50Us, bytesMax, intervalP50Ms float64
}

func (s *timedStore) stats() checkpointStats {
	s.mu.Lock()
	defer s.mu.Unlock()
	st := checkpointStats{completed: len(s.saves)}
	var took, gaps []float64
	for i, c := range s.saves {
		took = append(took, float64(c.took.Nanoseconds())/1e3)
		if b := float64(c.bytes); b > st.bytesMax {
			st.bytesMax = b
		}
		if i > 0 {
			gaps = append(gaps, float64(c.at.Sub(s.saves[i-1].at).Nanoseconds())/1e6)
		}
	}
	st.saveP50Us = median(took)
	st.intervalP50Ms = median(gaps)
	return st
}
