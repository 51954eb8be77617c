package cep2asp

import (
	"context"
	"strings"
	"testing"
)

func TestJobQuickstart(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(20, 120, 1)
	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Events != int64(len(q)+len(v)) {
		t.Fatalf("events = %d, want %d", stats.Events, len(q)+len(v))
	}
	if stats.Unique == 0 {
		t.Fatal("expected matches")
	}
	if stats.ThroughputTps <= 0 || stats.AvgLatency <= 0 {
		t.Fatalf("missing metrics: %v / %v", stats.ThroughputTps, stats.AvgLatency)
	}
	if int64(len(stats.Matches)) != stats.Unique {
		t.Fatalf("retained %d matches, unique = %d", len(stats.Matches), stats.Unique)
	}
}

func TestJobFCEPvsFASPAgree(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 70 AND v.value <= 30
		WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(5, 90, 3)
	run := func(fcep bool) *RunStats {
		j := NewJob(pattern).AddStream("QnVQuantity", q).AddStream("QnVVelocity", v)
		if fcep {
			j.UseFCEP()
		}
		stats, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats
	}
	fasp, fcep := run(false), run(true)
	if fasp.Unique != fcep.Unique {
		t.Fatalf("unique matches differ: FASP %d vs FCEP %d", fasp.Unique, fcep.Unique)
	}
	// Oracle agreement.
	all := append(append([]Event{}, q...), v...)
	oracle := EvaluateReference(pattern, all)
	if int64(len(oracle)) != fasp.Unique {
		t.Fatalf("oracle %d != engine %d", len(oracle), fasp.Unique)
	}
}

func TestJobWithOptions(t *testing.T) {
	pattern, err := Parse(`
		PATTERN ITER(QnVVelocity v, 3)
		WHERE v[i].value < v[i+1].value AND v[i].id == v[i+1].id AND v.value <= 60
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	_, v := GenerateQnV(10, 60, 5)
	var uniques []int64
	for _, opts := range []Options{
		{},
		{UseIntervalJoin: true},
		{UsePartitioning: true, Parallelism: 4},
	} {
		stats, err := NewJob(pattern).
			WithOptions(opts).
			AddStream("QnVVelocity", v).
			Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		uniques = append(uniques, stats.Unique)
	}
	if uniques[0] != uniques[1] || uniques[1] != uniques[2] {
		t.Fatalf("optimizations changed results: %v", uniques)
	}
}

func TestJobUnknownStream(t *testing.T) {
	pattern, _ := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	_, err := NewJob(pattern).AddStream("NoSuchType", nil).Run(context.Background())
	if err == nil || !strings.Contains(err.Error(), "unknown event type") {
		t.Fatalf("err = %v, want unknown-type error", err)
	}
}

func TestJobMissingStream(t *testing.T) {
	pattern, _ := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	q, _ := GenerateQnV(2, 10, 1)
	_, err := NewJob(pattern).AddStream("QnVQuantity", q).Run(context.Background())
	if err == nil {
		t.Fatal("missing stream should fail the build")
	}
}

func TestProject(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WITHIN 15 MINUTES
		RETURN q.id, v.value AS speed`)
	if err != nil {
		t.Fatal(err)
	}
	tq := RegisterType("QnVQuantity")
	tv := RegisterType("QnVVelocity")
	m := &Match{Events: []Event{
		{Type: tq, ID: 42, TS: 0, Value: 90},
		{Type: tv, ID: 42, TS: Minute, Value: 12},
	}}
	got := Project(pattern, m)
	if len(got) != 2 || got[0] != 42 || got[1] != 12 {
		t.Fatalf("Project = %v, want [42 12]", got)
	}
	// RETURN * projects every constituent's value.
	pattern2, _ := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 15 MINUTES`)
	star := Project(pattern2, m)
	if len(star) != 2 || star[0] != 90 || star[1] != 12 {
		t.Fatalf("Project* = %v, want [90 12]", star)
	}
}

func TestExplainAvailable(t *testing.T) {
	pattern, _ := Parse(`PATTERN AND(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	plan, err := Translate(pattern, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(plan.Explain(), "WindowJoin") {
		t.Fatalf("Explain:\n%s", plan.Explain())
	}
	if _, err := TranslateFCEP(pattern, Options{}); err == nil {
		t.Fatal("FCEP should reject AND (Table 2)")
	}
}

func TestJobWithOptimizer(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20 AND q.id == v.id
		WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(20, 120, 1)

	baseline, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}

	stats, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithOptimizer(OptimizerConfig{Stats: map[string]StreamStats{
			"QnVQuantity": {Frequency: 20, FilterSelectivity: 0.2},
			"QnVVelocity": {Frequency: 20, FilterSelectivity: 0.2},
		}}).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if stats.Unique != baseline.Unique {
		t.Fatalf("optimized run found %d matches, baseline %d", stats.Unique, baseline.Unique)
	}
	if len(stats.Plans) == 0 || !strings.Contains(stats.Plans[0], "est") {
		t.Fatalf("missing cost-annotated plan explanation: %q", stats.Plans)
	}

	// Invalid statistics fail fast at the builder.
	if _, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithOptimizer(OptimizerConfig{Stats: map[string]StreamStats{
			"QnVQuantity": {Frequency: 10, FilterSelectivity: 2},
		}}).
		Run(context.Background()); err == nil {
		t.Fatal("invalid selectivity accepted")
	}

	// The NFA has no join tree to reorder.
	if _, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		UseFCEP().
		WithOptimizer(OptimizerConfig{}).
		Run(context.Background()); err == nil {
		t.Fatal("FCEP + optimizer accepted")
	}
	// A supervised optimized run is an ordinary run.
	supervised, err := NewJob(pattern).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		WithRestartPolicy(RestartPolicy{MaxRestarts: 1}).
		WithOptimizer(OptimizerConfig{}).
		Run(context.Background())
	if err != nil {
		t.Fatalf("restart policy + optimizer: %v", err)
	}
	if supervised.Unique != baseline.Unique {
		t.Fatalf("supervised optimized run found %d matches, baseline %d", supervised.Unique, baseline.Unique)
	}
}

func TestMeasurePatternStats(t *testing.T) {
	pattern, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 WITHIN 15 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := GenerateQnV(10, 120, 3)
	qt := RegisterType("QnVQuantity")
	vt := RegisterType("QnVVelocity")
	stats, err := MeasurePatternStats(pattern, map[Type][]Event{qt: q, vt: v})
	if err != nil {
		t.Fatal(err)
	}
	s := stats["QnVQuantity"]
	if s.Frequency < 9 || s.Frequency > 11 {
		t.Fatalf("QnVQuantity rate %v, want ~10/min", s.Frequency)
	}
	if s.FilterSelectivity < 0.1 || s.FilterSelectivity > 0.3 {
		t.Fatalf("QnVQuantity selectivity %v, want ~0.2", s.FilterSelectivity)
	}
	if _, err := ExplainOptimized(pattern, stats); err != nil {
		t.Fatal(err)
	}
}
