package cep2asp

import (
	"context"
	"fmt"
	"runtime"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/chaos"
)

// Invalid tuning knobs must fail the job fast with a descriptive error, not
// silently no-op (Throttle on a built job used to be ignored entirely).
func TestJobTuningValidation(t *testing.T) {
	pattern, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(2, 10, 1)
	newJob := func() *Job {
		return NewJob(pattern).AddStream("QnVQuantity", q).AddStream("QnVVelocity", v)
	}

	cases := []struct {
		name string
		job  *Job
		want string
	}{
		{"batch size 0", newJob().WithBatchSize(0), "batch size must be at least 1"},
		{"batch size negative", newJob().WithBatchSize(-8), "batch size must be at least 1"},
		{"source rate 0", newJob().WithSourceRate(0), "rate must be positive"},
		{"source rate negative", newJob().WithSourceRate(-100), "rate must be positive"},
		{"negative lateness", newJob().WithLateness(-time.Second), "negative lateness"},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			_, err := tc.job.Run(context.Background())
			if err == nil || !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("Run = %v, want error containing %q", err, tc.want)
			}
		})
	}
}

// A valid positive source rate must still run (regression guard for the
// fail-fast rework of the Throttle plumbing).
func TestJobWithSourceRateRuns(t *testing.T) {
	pattern, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(2, 5, 1)
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithSourceRate(1e6). // effectively unthrottled, but exercises the path
		Run(context.Background())
	if err != nil {
		t.Fatalf("Run: %v", err)
	}
	if stats.Events == 0 {
		t.Fatal("no events processed")
	}
}

// The batching property of this PR: enabling edge batching together with
// aligned checkpointing and injected operator panics must not change the
// match set of any pattern shape. The reference run is unbatched
// (BatchSize 1) and unfailed.
func TestBatchedChaosMatchesUnfailed(t *testing.T) {
	qSEQ, vSEQ := GenerateQnV(10, 80, 1)
	qAND, vAND := GenerateQnV(4, 25, 2)
	_, vITER := GenerateQnV(8, 50, 5)
	nseqPattern, nseqStreams := nseqChaosData()

	cases := []struct {
		name    string
		pattern string
		streams map[string][]Event
		victim  string
	}{
		{
			name: "SEQ",
			pattern: `
				PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
				WITHIN 15 MINUTES`,
			streams: map[string][]Event{"QnVQuantity": qSEQ, "QnVVelocity": vSEQ},
			victim:  "src:QnVQuantity",
		},
		{
			name:    "AND",
			pattern: `PATTERN AND(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`,
			streams: map[string][]Event{"QnVQuantity": qAND, "QnVVelocity": vAND},
			victim:  "src:QnVVelocity",
		},
		{
			name: "ITER",
			pattern: `
				PATTERN ITER(QnVVelocity v, 3)
				WHERE v[i].value < v[i+1].value AND v[i].id == v[i+1].id AND v.value <= 60
				WITHIN 15 MINUTES`,
			streams: map[string][]Event{"QnVVelocity": vITER},
			victim:  "src:QnVVelocity",
		},
		{
			name:    "NSEQ",
			pattern: nseqPattern,
			streams: nseqStreams,
			victim:  "src:ChSupA",
		},
	}

	const kills = 2
	for _, tc := range cases {
		tc := tc
		for _, bs := range []int{4, 64} {
			bs := bs
			t.Run(fmt.Sprintf("%s/batch=%d", tc.name, bs), func(t *testing.T) {
				pattern, err := Parse(tc.pattern)
				if err != nil {
					t.Fatal(err)
				}
				run := func(batch int, inj *ChaosInjector) *RunStats {
					j := NewJob(pattern).WithBatchSize(batch)
					for name, evs := range tc.streams {
						j.AddStream(name, evs)
					}
					if inj != nil {
						policy := chaosTestPolicy(kills)
						j.WithEngine(EngineConfig{
							BatchSize:  batch,
							Checkpoint: &CheckpointSpec{Store: NewMemCheckpointStore(), Interval: time.Millisecond},
						}).
							WithChaos(inj).
							WithRestartPolicy(policy).
							WithStopTimeout(10 * time.Second)
					}
					stats, err := j.Run(context.Background())
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					return stats
				}

				want := sortedMatchKeys(run(1, nil))
				if len(want) == 0 {
					t.Fatal("reference run produced no matches; the property would be vacuous")
				}

				inj := NewChaosInjector(ChaosFault{
					Kind: chaos.Panic, Node: tc.victim, Instance: -1,
					AtHit: 30, Times: kills,
				})
				stats := run(bs, inj)
				if stats.Restarts != kills {
					t.Fatalf("Restarts = %d, want %d", stats.Restarts, kills)
				}
				got := sortedMatchKeys(stats)
				if len(got) != len(want) {
					t.Fatalf("batched+chaos run (BatchSize=%d): %d matches, want %d", bs, len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("BatchSize=%d diverged at %d: %q vs %q", bs, i, got[i], want[i])
					}
				}
			})
		}
	}
}

// The pushed-down selections of a plan must not allocate per event: 99.9 %
// of both streams die in their filter, and what is left of the run's
// allocations (set-up, batch buffers, the few matches) stays far below one
// per ten events. Parallelism 2 runs the keyed join on two instances.
func TestScanFiltersDoNotAllocatePerEvent(t *testing.T) {
	pattern, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.id == v.id AND q.value >= 99.9 AND v.value <= 0.1
		WITHIN 15 MINUTES SLIDE 1 MINUTE`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(100, 1000, 7)
	events := len(q) + len(v)
	if events < 200_000 {
		t.Fatalf("only %d events generated", events)
	}
	for _, par := range []int{1, 2} {
		t.Run(fmt.Sprintf("parallelism=%d", par), func(t *testing.T) {
			job := NewJob(pattern).AddStream("QnVQuantity", q).AddStream("QnVVelocity", v).
				WithOptions(Options{UsePartitioning: true, Parallelism: par}).DiscardMatches()
			var m0, m1 runtime.MemStats
			runtime.ReadMemStats(&m0)
			if _, err := job.Run(context.Background()); err != nil {
				t.Fatalf("Run: %v", err)
			}
			runtime.ReadMemStats(&m1)
			allocs := m1.Mallocs - m0.Mallocs
			if perEvent := float64(allocs) / float64(events); perEvent > 0.1 {
				t.Fatalf("%.3f allocations per event (%d over %d events), want <= 0.1", perEvent, allocs, events)
			}
			t.Logf("%.4f allocations per event", float64(allocs)/float64(events))
		})
	}
}
