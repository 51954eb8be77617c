package exchange

import (
	"context"
	"fmt"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// testEngine keeps the runs small and fast; tiny channels and batches
// force real backpressure over the network edges.
func testEngine() asp.Config {
	return asp.Config{
		ChannelCapacity:   8,
		WatermarkInterval: 64,
		BatchSize:         16,
	}
}

// testStreams synthesizes the traffic streams (plus PM10 for negation
// patterns).
func testStreams(t *testing.T, withPM10 bool) map[event.Type][]event.Event {
	t.Helper()
	q, v := workload.QnV(workload.QnVConfig{Sensors: 8, Minutes: 30, Seed: 42})
	data := map[event.Type][]event.Event{
		workload.TypeQuantity: q,
		workload.TypeVelocity: v,
	}
	if withPM10 {
		pm10, _, _, _ := workload.AirQuality(workload.AQConfig{Sensors: 8, Minutes: 30, Seed: 42})
		data[workload.TypePM10] = pm10
	}
	return data
}

// testPlans translates one pattern, decomposed or (fcep) as one NFA.
func testPlans(t *testing.T, pattern string, fcep bool, opts core.Options) []*core.Plan {
	t.Helper()
	pat, err := sea.Parse(pattern)
	if err != nil {
		t.Fatalf("parse: %v", err)
	}
	translate := core.Translate
	if fcep {
		translate = core.TranslateFCEP
	}
	plan, err := translate(pat, opts)
	if err != nil {
		t.Fatalf("translate: %v", err)
	}
	return []*core.Plan{plan}
}

// runSingleProcess executes the spec in-process with no distribution layer,
// checkpoints, faults or restarts — the ground truth the distributed run
// must reproduce — and returns its sorted match keys.
func runSingleProcess(t *testing.T, spec core.RunSpec) []string {
	t.Helper()
	spec.Restart = nil
	spec.Build.Engine.Checkpoint, spec.Build.Engine.Chaos = nil, nil
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	rep, err := core.Run(ctx, spec)
	if err != nil {
		t.Fatalf("single-process run: %v", err)
	}
	return sortedKeys(rep.Sinks[0].Keys())
}

// runOn runs the spec with coord as its cluster under a one-minute deadline.
func runOn(coord *Coordinator, spec core.RunSpec) (*core.RunReport, error) {
	spec.Cluster = coord
	ctx, cancel := context.WithTimeout(context.Background(), 60*time.Second)
	defer cancel()
	return core.Run(ctx, spec)
}

// testCheckpoints checkpoints every 20ms into a store of the run's own.
func testCheckpoints() *asp.CheckpointSpec {
	return &asp.CheckpointSpec{Store: checkpoint.NewMemStore(), Interval: 20 * time.Millisecond}
}

// cluster spins up an in-process coordinator plus workers-1 worker
// runtimes talking over real loopback TCP.
func cluster(t *testing.T, workers int, opts CoordinatorOptions) *Coordinator {
	t.Helper()
	opts.Workers = workers
	coord, err := NewCoordinator(opts)
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	for i := 1; i < workers; i++ {
		w, err := StartWorker(context.Background(), coord.ControlAddr(), WorkerOptions{
			Name: fmt.Sprintf("testworker-%d", i),
		})
		if err != nil {
			t.Fatalf("worker %d: %v", i, err)
		}
		t.Cleanup(w.Close)
	}
	ctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(ctx); err != nil {
		t.Fatalf("waiting for workers: %v", err)
	}
	return coord
}

// TestDistributedEquivalence is the core acceptance property: a 2-worker
// localhost run produces the identical deduplicated match set as a
// single-process run, for SEQ, AND, ITER and NSEQ under both the
// decomposed (FASP) and monolithic-NFA (FCEP) translations. All patterns
// carry the sensor-id equi predicate so O3 partitioning spreads real
// operator instances across the process boundary.
func TestDistributedEquivalence(t *testing.T) {
	o3 := core.Options{UsePartitioning: true, Parallelism: 4}
	o3join := core.Options{UseIntervalJoin: true, UsePartitioning: true, Parallelism: 4}
	cases := []struct {
		name    string
		pattern string
		opts    core.Options
		fcep    bool
		pm10    bool
	}{
		{
			name: "SEQ/FASP",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			opts: o3join,
		},
		{
			name: "SEQ/FCEP",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			opts: o3,
			fcep: true,
		},
		{
			name: "AND/FASP",
			pattern: `PATTERN AND(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 50 AND v.value <= 50 AND q.id == v.id
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			opts: o3,
		},
		{
			name: "ITER/FASP",
			pattern: `PATTERN ITER(QnVVelocity v, 3)
				WHERE v.value <= 60 AND v[i].id == v[i+1].id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			opts: o3,
		},
		{
			name: "ITER/FCEP",
			pattern: `PATTERN ITER(QnVVelocity v, 3)
				WHERE v.value <= 60 AND v[i].id == v[i+1].id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			opts: o3,
			fcep: true,
		},
		{
			name: "NSEQ/FASP",
			pattern: `PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 90 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			opts: o3,
			pm10: true,
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			spec := core.RunSpec{
				Plans: testPlans(t, tc.pattern, tc.fcep, tc.opts),
				Build: core.BuildConfig{
					Engine:      testEngine(),
					Data:        testStreams(t, tc.pm10),
					KeepMatches: true,
				},
			}
			want := runSingleProcess(t, spec)

			coord := cluster(t, 2, CoordinatorOptions{})
			rep, err := runOn(coord, spec)
			if err != nil {
				t.Fatalf("distributed run: %v", err)
			}
			got := sortedKeys(rep.Sinks[0].Keys())
			if len(want) == 0 {
				t.Fatalf("degenerate case: single-process run found no matches")
			}
			if len(got) != len(want) {
				t.Fatalf("match set diverged: single-process %d unique, distributed %d unique", len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("match key %d diverged:\nsingle-process %s\ndistributed    %s", i, want[i], got[i])
				}
			}
		})
	}
}

// TestThreeWorkers spreads instances over two remote workers plus the
// coordinator to cover the many-peer wiring (every worker dials every
// other).
func TestThreeWorkers(t *testing.T) {
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 6}),
		Build: core.BuildConfig{
			Engine:      testEngine(),
			Data:        testStreams(t, false),
			KeepMatches: true,
		},
	}
	want := runSingleProcess(t, spec)
	coord := cluster(t, 3, CoordinatorOptions{})
	rep, err := runOn(coord, spec)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	got := sortedKeys(rep.Sinks[0].Keys())
	if len(got) != len(want) {
		t.Fatalf("match set diverged: single-process %d unique, distributed %d unique", len(want), len(got))
	}
}

// TestSingleWorkerDegenerate: a 1-worker "cluster" is just the coordinator
// running everything locally through the distributed code path.
func TestSingleWorkerDegenerate(t *testing.T) {
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 2}),
		Build: core.BuildConfig{
			Engine:      testEngine(),
			Data:        testStreams(t, false),
			KeepMatches: true,
		},
	}
	want := runSingleProcess(t, spec)
	coord := cluster(t, 1, CoordinatorOptions{})
	rep, err := runOn(coord, spec)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	got := sortedKeys(rep.Sinks[0].Keys())
	if len(got) != len(want) {
		t.Fatalf("match set diverged: single-process %d unique, distributed %d unique", len(want), len(got))
	}
}

// TestNetworkMetrics: a 2-worker run must account frames and bytes in
// both directions on both ends.
func TestNetworkMetrics(t *testing.T) {
	reg := obs.NewRegistry()
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 4}),
		Build: core.BuildConfig{
			Engine:      testEngine(),
			Data:        testStreams(t, false),
			KeepMatches: true,
		},
	}
	coord := cluster(t, 2, CoordinatorOptions{Metrics: reg})
	if _, err := runOn(coord, spec); err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	snap := reg.Snapshot()
	if len(snap.Nets) == 0 {
		t.Fatal("no network peers recorded")
	}
	var out, in int64
	for _, n := range snap.Nets {
		out += n.FramesOut
		in += n.FramesIn
	}
	if out == 0 || in == 0 {
		t.Fatalf("network edges idle: %d frames out, %d frames in", out, in)
	}
}
