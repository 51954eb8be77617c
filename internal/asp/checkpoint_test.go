package asp

import (
	"context"
	"encoding/base64"
	"errors"
	"reflect"
	"sort"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
)

// Checkpoint tests: aligned-barrier snapshots must be complete, restorable,
// and a restored run must emit exactly what an uninterrupted run emits.

func minutesUpTo(n int64) []int64 {
	out := make([]int64, n)
	for i := range out {
		out[i] = int64(i)
	}
	return out
}

func sortedResultKeys(t *testing.T, res *Results) []string {
	t.Helper()
	keys := res.Keys()
	sort.Strings(keys)
	return keys
}

// killRestoreCompare runs the same graph three times: uninterrupted
// (oracle), checkpointed-and-killed mid-stream, and restored from the
// killed run's latest complete snapshot. The restored run must emit exactly
// the oracle's match set.
func killRestoreCompare(t *testing.T, build func(env *Environment) *Results) {
	t.Helper()

	oracleEnv := NewEnvironment(Config{WatermarkInterval: 16})
	oracleRes := build(oracleEnv)
	if err := oracleEnv.Execute(context.Background()); err != nil {
		t.Fatalf("oracle run: %v", err)
	}
	want := sortedResultKeys(t, oracleRes)
	if len(want) == 0 {
		t.Fatal("oracle produced no matches; test data is inert")
	}

	store := checkpoint.NewMemStore()
	ckEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Interval: time.Millisecond},
	})
	build(ckEnv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		deadline := time.Now().Add(5 * time.Second)
		for time.Now().Before(deadline) {
			if ids, _ := store.IDs(); len(ids) > 0 {
				// Let the run advance past the snapshot before killing it.
				time.Sleep(2 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
		cancel()
	}()
	if err := ckEnv.Execute(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatalf("checkpointed run: %v", err)
	}
	ids, err := store.IDs()
	if err != nil || len(ids) == 0 {
		t.Fatalf("no complete checkpoint before the kill (ids %v, err %v)", ids, err)
	}

	restEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Restore: true},
	})
	restRes := build(restEnv)
	if err := restEnv.Execute(context.Background()); err != nil {
		t.Fatalf("restored run: %v", err)
	}
	got := sortedResultKeys(t, restRes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored run emitted %d matches, oracle %d:\ngot  %v\nwant %v",
			len(got), len(want), got, want)
	}
}

func TestKillRestoreWindowJoin(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(400), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
			Window: 5 * event.Minute,
			Slide:  event.Minute,
			Predicate: func(l, r []event.Event) bool {
				return l[0].TS < r[0].TS
			},
		})).Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreIntervalJoin(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(400), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
			Lower: 0,
			Upper: 5 * event.Minute,
		})).Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreAggregate(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		env.Source("v", mkEvents(tV, 1, minutesUpTo(400), nil), false).Throttle(4000).
			Process("agg", 1, nil, NewWindowAggregate(WindowAggregateSpec{
				Window:   5 * event.Minute,
				Slide:    5 * event.Minute,
				MinCount: 2,
			})).
			Sink("sink", res.Operator())
		return res
	})
}

func TestKillRestoreNSEQ(t *testing.T) {
	killRestoreCompare(t, func(env *Environment) *Results {
		res := NewResults(true, true)
		t1 := env.Source("t1", mkEvents(tQ, 1, minutesUpTo(300), nil), false).Throttle(3000)
		t2 := env.Source("t2", mkEvents(tV, 1, []int64{3, 50, 120, 250}, nil), false).Throttle(3000)
		t1.Union("union", t2).
			Process("nseq", 1, nil, NewNextOccurrence(NextOccurrenceSpec{
				T1: tQ, T2: tV, Window: 10 * event.Minute,
			})).
			Sink("sink", res.Operator())
		return res
	})
}

func TestCheckpointCompletesWhileRunning(t *testing.T) {
	store := checkpoint.NewMemStore()
	env := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: store, Interval: time.Millisecond},
	})
	res := NewResults(true, true)
	left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(300), nil), false).Throttle(3000)
	right := env.Source("v", mkEvents(tV, 1, minutesUpTo(300), nil), false).Throttle(3000)
	left.Connect2("join", right, 1, nil, nil, NewWindowJoin(WindowJoinSpec{
		Window: 5 * event.Minute, Slide: event.Minute,
		Predicate: func(l, r []event.Event) bool { return l[0].TS < r[0].TS },
	})).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	if env.CompletedCheckpoints() == 0 {
		t.Fatal("no checkpoint completed during a ~100ms run with 1ms interval")
	}
	stats := env.CheckpointStats()
	if len(stats) == 0 {
		t.Fatal("no checkpoint stats")
	}
	var sawState bool
	for _, st := range stats {
		if st.Bytes > 0 {
			sawState = true
		}
	}
	if !sawState {
		t.Fatal("no checkpoint captured any serialized state")
	}
	// The join node and both sources must have recorded per-checkpoint
	// snapshot metrics: a source snapshots its replay position.
	ckpts := map[string]int64{}
	for _, m := range env.NodeStats() {
		ckpts[m.Name] = m.Ckpts.Load()
	}
	for _, name := range []string{"q", "v", "join"} {
		if ckpts[name] == 0 {
			t.Errorf("%s recorded no snapshots", name)
		}
	}
}

func TestRestoreAtEndEmitsNothingNew(t *testing.T) {
	store := checkpoint.NewMemStore()
	build := func(env *Environment) (*Stream, *Results) {
		res := NewResults(true, true)
		src := env.Source("q", mkEvents(tQ, 1, minutesUpTo(50), nil), false)
		src.Filter("f", func(event.Event) bool { return true }).
			Sink("sink", res.Operator())
		return src, res
	}

	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store}})
	_, res := build(env)
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// All tasks finished: a post-run trigger completes instantly from their
	// final states — a snapshot of the fully drained pipeline.
	if id := env.TriggerCheckpoint(); id == 0 {
		t.Fatal("post-run TriggerCheckpoint refused")
	}
	if env.CompletedCheckpoints() != 1 {
		t.Fatalf("CompletedCheckpoints = %d, want 1", env.CompletedCheckpoints())
	}

	env2 := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store, Restore: true}})
	src2, res2 := build(env2)
	if err := env2.Execute(context.Background()); err != nil {
		t.Fatalf("restored Execute: %v", err)
	}
	if out := src2.Metrics().Out.Load(); out != 0 {
		t.Fatalf("restored source re-emitted %d events; offsets not restored", out)
	}
	if res2.Total() != res.Total() || res2.Unique() != res.Unique() {
		t.Fatalf("restored sink totals %d/%d, want %d/%d (exactly-once)",
			res2.Total(), res2.Unique(), res.Total(), res.Unique())
	}
	got, want := sortedResultKeys(t, res2), sortedResultKeys(t, res)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("restored matches differ:\ngot  %v\nwant %v", got, want)
	}
}

func TestFileStoreRecoveryEndToEnd(t *testing.T) {
	fs, err := checkpoint.NewFileStore(t.TempDir() + "/ckpts")
	if err != nil {
		t.Fatal(err)
	}
	build := func(env *Environment) *Results {
		res := NewResults(true, true)
		left := env.Source("q", mkEvents(tQ, 1, minutesUpTo(200), nil), false).Throttle(4000)
		right := env.Source("v", mkEvents(tV, 1, minutesUpTo(200), nil), false).Throttle(4000)
		left.Connect2("join", right, 1, nil, nil, NewIntervalJoin(IntervalJoinSpec{
			Lower: 0, Upper: 3 * event.Minute,
		})).Sink("sink", res.Operator())
		return res
	}

	oracleEnv := NewEnvironment(Config{WatermarkInterval: 16})
	oracleRes := build(oracleEnv)
	if err := oracleEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}

	ckEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: fs, Interval: time.Millisecond},
	})
	build(ckEnv)
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	go func() {
		for {
			if ids, _ := fs.IDs(); len(ids) > 0 {
				time.Sleep(2 * time.Millisecond)
				cancel()
				return
			}
			time.Sleep(200 * time.Microsecond)
		}
	}()
	if err := ckEnv.Execute(ctx); err != nil && !errors.Is(err, context.Canceled) {
		t.Fatal(err)
	}

	// A fresh store handle over the same directory simulates a process
	// restart: recovery state must live entirely on disk.
	fs2, err := checkpoint.NewFileStore(fs.Dir())
	if err != nil {
		t.Fatal(err)
	}
	restEnv := NewEnvironment(Config{
		WatermarkInterval: 16,
		Checkpoint:        &CheckpointSpec{Store: fs2, Restore: true},
	})
	restRes := build(restEnv)
	if err := restEnv.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	got, want := sortedResultKeys(t, restRes), sortedResultKeys(t, oracleRes)
	if !reflect.DeepEqual(got, want) {
		t.Fatalf("file-store recovery diverged:\ngot  %v\nwant %v", got, want)
	}
}

func TestRestoreRefusesDifferentGraph(t *testing.T) {
	store := checkpoint.NewMemStore()
	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store}})
	res := NewResults(false, false)
	env.Source("q", mkEvents(tQ, 1, minutesUpTo(10), nil), false).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	if env.TriggerCheckpoint() == 0 {
		t.Fatal("trigger refused")
	}

	other := NewEnvironment(Config{Checkpoint: &CheckpointSpec{Store: store, Restore: true}})
	res2 := NewResults(false, false)
	other.Source("different-name", mkEvents(tQ, 1, minutesUpTo(10), nil), false).
		Sink("sink", res2.Operator())
	err := other.Execute(context.Background())
	if err == nil || !strings.Contains(err.Error(), "different graph") {
		t.Fatalf("restore into different graph = %v, want fingerprint error", err)
	}
}

func TestCheckpointRequiresStore(t *testing.T) {
	env := NewEnvironment(Config{Checkpoint: &CheckpointSpec{}})
	res := NewResults(false, false)
	env.Source("q", mkEvents(tQ, 1, minutesUpTo(2), nil), false).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err == nil {
		t.Fatal("checkpoint spec without store must fail")
	}
}

// sprintfKeySnapshot is a dedup sink's snapshot as the Sprintf-based
// Match.Key wrote it, before that was rewritten to append into one buffer:
// Seen holds "10:-2:-7|9:1:5" and "3:12:100|3:12:40|3:2:1000", Total = Unique
// = 2.
const sprintfKeySnapshot = "Tn8DAQEMcmVzdWx0c1N0YXRlAf+AAAEFAQdNYXRjaGVzAf+IAAEEU2VlbgH/igABBVRvdGFsAQQAAQZVbmlxdWUBBAABA0xhdAH/jAAAAB3/hwIBAQ5bXSpldmVudC5NYXRjaAH/iAAB/4IAACj/gQMBAv+CAAEDAQZFdmVudHMB/4YAAQNUc0IBBAABA1RzRQEEAAAAHP+FAgEBDVtdZXZlbnQuRXZlbnQB/4YAAf+EAABZ/4MDAQEFRXZlbnQB/4QAAQgBBFR5cGUBBAABAklEAQQAAQNMYXQBCAABA0xvbgEIAAECVFMBBAABBVZhbHVlAQgAAQZJbmdlc3QBBAABBUF1eFRTAQQAAAAW/4kCAQEIW11zdHJpbmcB/4oAAQwAAEb/iwMBAQ5IaXN0b2dyYW1TdGF0ZQH/jAABBQEDSWR4Af+OAAEBTgH/kAABBUNvdW50AQQAAQNTdW0BBAABA01heAEEAAAAFf+NAgEBB1tdaW50MzIB/44AAQQAABX/jwIBAQdbXWludDY0Af+QAAEEAAA0/4ACAg4xMDotMjotN3w5OjE6NRkzOjEyOjEwMHwzOjEyOjQwfDM6MjoxMDAwAQQBBAEAAA=="

// TestResultsRestoreDedupsEarlierKeys restores a sink snapshot written by
// the earlier Match.Key: the matches it saw must still be recognised as
// duplicates, which holds only while the key format is byte-identical.
func TestResultsRestoreDedupsEarlierKeys(t *testing.T) {
	data, err := base64.StdEncoding.DecodeString(sprintfKeySnapshot)
	if err != nil {
		t.Fatal(err)
	}
	r := NewResults(true, false)
	if err := r.Restore(data); err != nil {
		t.Fatalf("restore: %v", err)
	}
	for _, m := range []*event.Match{
		event.NewMatch(event.Event{Type: 10, ID: -2, TS: -7}, event.Event{Type: 9, ID: 1, TS: 5}),
		event.NewMatch(event.Event{Type: 3, ID: 2, TS: 1000}, event.Event{Type: 3, ID: 12, TS: 40}, event.Event{Type: 3, ID: 12, TS: 100}),
		event.NewMatch(event.Event{Type: 3, ID: 2, TS: 1001}),
	} {
		rec := MatchRecord(m.TsE, m)
		r.add(&rec)
	}
	if r.Total() != 5 || r.Unique() != 3 {
		t.Fatalf("after restore and three adds: Total %d Unique %d, want 5 and 3 (two duplicates, one new)", r.Total(), r.Unique())
	}
}
