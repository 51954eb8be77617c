package cep2asp

import (
	"context"
	"errors"
	"fmt"
	"sort"
	"testing"
	"time"

	"cep2asp/internal/chaos"
)

// chaosTestPolicy is a fast deterministic restart policy for tests: enough
// budget for k injected kills, microsecond-scale backoff, no jitter. The
// poison threshold sits above k because an AtHit fault re-fires on the
// replayed record after each restart, which would otherwise quarantine a
// healthy record and change the match set.
func chaosTestPolicy(k int) RestartPolicy {
	p := DefaultRestartPolicy()
	p.MaxRestarts = k + 2
	p.Window = 0
	p.InitialBackoff = time.Millisecond
	p.MaxBackoff = 5 * time.Millisecond
	p.Jitter = 0
	p.PoisonThreshold = k + 1
	p.Seed = 1
	return p
}

func sortedMatchKeys(stats *RunStats) []string {
	keys := make([]string, len(stats.Matches))
	for i, m := range stats.Matches {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

// nseqChaosData builds three deterministic streams for the NSEQ chaos case:
// SEQ(ChSupA a, !ChSupX x, ChSupB b) with enough density that negation both
// blocks and admits matches.
func nseqChaosData() (pattern string, streams map[string][]Event) {
	a := RegisterType("ChSupA")
	x := RegisterType("ChSupX")
	b := RegisterType("ChSupB")
	var as, xs, bs []Event
	for i := 0; i < 240; i++ {
		ts := int64(i) * Minute / 2
		as = append(as, Event{Type: a, ID: int64(i % 5), TS: ts, Value: float64((i * 7) % 100)})
		xs = append(xs, Event{Type: x, ID: int64(i % 5), TS: ts + Minute/4, Value: float64((i * 13) % 100)})
		bs = append(bs, Event{Type: b, ID: int64(i % 5), TS: ts + Minute/3, Value: float64((i * 11) % 100)})
	}
	pattern = `
		PATTERN SEQ(ChSupA a, !ChSupX x, ChSupB b)
		WHERE a.value >= 50 AND b.value <= 50 AND x.value >= 90
		WITHIN 10 MINUTES`
	streams = map[string][]Event{"ChSupA": as, "ChSupX": xs, "ChSupB": bs}
	return pattern, streams
}

// The supervision property of ISSUE 3: killing an operator instance K times
// mid-run under a restart policy must not change the match set. Each pattern
// shape runs in decomposed mode (a source instance is killed) and, where the
// NFA baseline supports the pattern, in FCEP mode (the cep-nfa operator is
// killed).
func TestSupervisedChaosMatchesUnfailed(t *testing.T) {
	qSEQ, vSEQ := GenerateQnV(20, 120, 1)
	qAND, vAND := GenerateQnV(5, 30, 2)
	_, vITER := GenerateQnV(10, 60, 5)
	nseqPattern, nseqStreams := nseqChaosData()

	cases := []struct {
		name    string
		pattern string
		streams map[string][]Event
		victim  string // decomposed-mode node to kill
		fcep    bool   // NFA baseline supports the shape (no AND)
	}{
		{
			name: "SEQ",
			pattern: `
				PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
				WITHIN 15 MINUTES`,
			streams: map[string][]Event{"QnVQuantity": qSEQ, "QnVVelocity": vSEQ},
			victim:  "src:QnVQuantity",
			fcep:    true,
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
			fcep:    true,
		},
		{
			name:    "NSEQ",
			pattern: nseqPattern,
			streams: nseqStreams,
			victim:  "src:ChSupA",
			fcep:    true,
		},
	}

	const kills = 3
	for _, tc := range cases {
		pattern, err := Parse(tc.pattern)
		if err != nil {
			t.Fatalf("%s: %v", tc.name, err)
		}
		modes := []struct {
			name   string
			fcep   bool
			victim string
		}{{"decomposed", false, tc.victim}}
		if tc.fcep {
			modes = append(modes, struct {
				name   string
				fcep   bool
				victim string
			}{"fcep", true, "cep-nfa"})
		}
		for _, mode := range modes {
			mode := mode
			tc := tc
			t.Run(tc.name+"/"+mode.name, func(t *testing.T) {
				run := func(inj *ChaosInjector, policy *RestartPolicy) *RunStats {
					j := NewJob(pattern)
					if mode.fcep {
						j.UseFCEP()
					}
					for name, evs := range tc.streams {
						j.AddStream(name, evs)
					}
					if policy != nil {
						j.WithChaos(inj).
							WithRestartPolicy(*policy).
							WithStopTimeout(10 * time.Second)
					}
					stats, err := j.Run(context.Background())
					if err != nil {
						t.Fatalf("run failed: %v", err)
					}
					return stats
				}

				want := sortedMatchKeys(run(nil, nil))
				if len(want) == 0 {
					t.Fatal("reference run produced no matches; the property would be vacuous")
				}

				inj := NewChaosInjector(ChaosFault{
					Kind: chaos.Panic, Node: mode.victim, Instance: -1,
					AtHit: 40, Times: kills,
				})
				policy := chaosTestPolicy(kills)
				stats := run(inj, &policy)

				if fires := len(inj.Fires()); fires != kills {
					t.Fatalf("fault fired %d times, want %d", fires, kills)
				}
				if stats.Restarts != kills {
					t.Fatalf("stats.Restarts = %d, want %d", stats.Restarts, kills)
				}
				if len(stats.DeadLetters) != 0 {
					t.Fatalf("unexpected dead letters: %v", stats.DeadLetters)
				}
				got := sortedMatchKeys(stats)
				if len(got) != len(want) {
					t.Fatalf("supervised run: %d matches, want %d", len(got), len(want))
				}
				for i := range want {
					if got[i] != want[i] {
						t.Fatalf("supervised run diverged at %d: %q vs %q", i, got[i], want[i])
					}
				}
			})
		}
	}
}

// A record whose processing keeps panicking is quarantined to the dead-letter
// queue after PoisonThreshold failures, and the job then completes with that
// record dropped — matching a reference run that never saw the event.
func TestSupervisedPoisonRecordDeadLetters(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(5, 40, 3)

	poison := q[12]
	// The stable poison identity the engine derives for an event record.
	key := fmt.Sprintf("e:%d:%d:%d:%g", poison.Type, poison.ID, poison.TS, poison.Value)

	// Reference: the same job with the poison event removed from the input.
	clean := append(append([]Event{}, q[:12]...), q[13:]...)
	refStats, err := NewJob(pattern).
		AddStream("QnVQuantity", clean).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedMatchKeys(refStats)

	policy := chaosTestPolicy(4)
	policy.PoisonThreshold = 2
	inj := NewChaosInjector(ChaosFault{
		Kind: chaos.Panic, Node: "src:QnVQuantity", Instance: -1,
		RecordKey: key, Times: int64(policy.PoisonThreshold),
	})
	var delivered []DeadLetter
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithChaos(inj).
		WithRestartPolicy(policy).
		OnDeadLetter(func(l DeadLetter) { delivered = append(delivered, l) }).
		Run(context.Background())
	if err != nil {
		t.Fatalf("supervised run failed: %v", err)
	}

	if stats.Restarts != policy.PoisonThreshold {
		t.Fatalf("stats.Restarts = %d, want %d", stats.Restarts, policy.PoisonThreshold)
	}
	if len(stats.DeadLetters) != 1 {
		t.Fatalf("DeadLetters = %v, want exactly one", stats.DeadLetters)
	}
	letter := stats.DeadLetters[0]
	if letter.Key != key {
		t.Fatalf("letter key = %q, want %q", letter.Key, key)
	}
	if letter.Node != "src:QnVQuantity" {
		t.Fatalf("letter node = %q", letter.Node)
	}
	if letter.Failures != policy.PoisonThreshold {
		t.Fatalf("letter failures = %d, want %d", letter.Failures, policy.PoisonThreshold)
	}
	if len(delivered) != 1 || delivered[0].Key != key {
		t.Fatalf("OnDeadLetter delivered %v", delivered)
	}

	got := sortedMatchKeys(stats)
	if len(got) != len(want) {
		t.Fatalf("poisoned run: %d matches, want %d (reference without the event)", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("poisoned run diverged at %d: %q vs %q", i, got[i], want[i])
		}
	}
}

// With the restart budget exhausted the job must fail with the structured
// OperatorFailure naming the operator — never an uncaught panic.
func TestSupervisedBudgetExhaustedSurfacesOperatorFailure(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.id == v.id WITHIN 5 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(3, 20, 4)

	policy := chaosTestPolicy(1)
	policy.MaxRestarts = 1
	// More kills than the budget allows: every attempt dies.
	inj := NewChaosInjector(ChaosFault{
		Kind: chaos.Panic, Node: "src:QnVVelocity", Instance: -1,
		AtHit: 5, Times: 100,
	})
	_, err = NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithChaos(inj).
		WithRestartPolicy(policy).
		Run(context.Background())
	if err == nil {
		t.Fatal("expected budget-exhausted failure")
	}
	var f *OperatorFailure
	if !errors.As(err, &f) {
		t.Fatalf("error %v does not wrap an OperatorFailure", err)
	}
	if f.Node != "src:QnVVelocity" || !f.Source {
		t.Fatalf("failure = %+v, want source src:QnVVelocity", f)
	}
	if len(f.Stack) == 0 {
		t.Fatal("failure carries no stack")
	}
}

// TestPoliciesCompose runs every policy of the attempt loop at once: a
// forced mid-run re-plan, a restart policy with a chaos kill of the last
// velocity record — which only the re-planned generation reaches, so the
// restart happens after the re-plan — and a quality demand that never
// binds. The run must re-plan once, restart, and find exactly the plain
// run's matches.
func TestPoliciesCompose(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 60 AND v.value <= 40 AND q.id == v.id
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(4, 100, 9)
	plain, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	want := sortedMatchKeys(plain)
	if len(want) == 0 {
		t.Fatal("plain run produced no matches; the property would be vacuous")
	}

	last := v[len(v)-1]
	inj := NewChaosInjector(ChaosFault{
		Kind: chaos.Panic, Node: "src:QnVVelocity", Instance: -1,
		RecordKey: fmt.Sprintf("e:%d:%d:%d:%g", last.Type, last.ID, last.TS, last.Value),
	})
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		// Throttled so the forced re-plan cuts the run long before its
		// last record.
		WithSourceRate(2000).
		WithOptimizer(OptimizerConfig{ReplanAfterEvents: 150, CheckInterval: 2 * time.Millisecond}).
		WithRestartPolicy(chaosTestPolicy(1)).
		WithChaos(inj).
		WithQuality(QualitySpec{MinRecall: 0.5, MaxP99Latency: time.Hour}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Replans != 1 || len(stats.Plans) != 2 {
		t.Fatalf("replans = %d over %d plan generations, want 1 over 2", stats.Replans, len(stats.Plans))
	}
	if stats.Restarts < 1 || len(inj.Fires()) != 1 {
		t.Fatalf("restarts = %d, faults fired = %d; want a restart after the one kill", stats.Restarts, len(inj.Fires()))
	}
	if len(stats.QualityActions) != 0 {
		t.Fatalf("a non-binding quality demand acted: %v", stats.QualityActions)
	}
	got := sortedMatchKeys(stats)
	if len(got) != len(want) {
		t.Fatalf("composed run: %d matches, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("composed run diverged at %d: %q vs %q", i, got[i], want[i])
		}
	}
}
