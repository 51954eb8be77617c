package cep2asp

import (
	"context"
	"testing"
	"time"
)

func multiTestStreams(t *testing.T) (q, v []Event) {
	t.Helper()
	return GenerateQnV(10, 120, 31)
}

func TestMultiJobMatchesSingleRuns(t *testing.T) {
	seqPat, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20
		WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	andPat, err := Parse(`
		PATTERN AND(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 95 AND v.value <= 5 AND q.id == v.id
		WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := multiTestStreams(t)

	single := func(p *Pattern, fcep bool) int64 {
		j := NewJob(p).AddStream("QnVQuantity", q).AddStream("QnVVelocity", v)
		if fcep {
			j.UseFCEP()
		}
		stats, err := j.Run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		return stats.Unique
	}

	all, err := NewMultiJob().
		Add(seqPat, Options{}).
		Add(andPat, Options{UseIntervalJoin: true}).
		AddFCEP(seqPat, Options{}).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(all) != 3 {
		t.Fatalf("got %d result sets, want 3", len(all))
	}
	if got, want := all[0].Unique, single(seqPat, false); got != want {
		t.Fatalf("shared-run SEQ found %d, solo %d", got, want)
	}
	if got, want := all[1].Unique, single(andPat, false); got != want {
		t.Fatalf("shared-run AND found %d, solo %d", got, want)
	}
	if all[2].Unique != all[0].Unique {
		t.Fatalf("FCEP and FASP in one job disagree: %d vs %d", all[2].Unique, all[0].Unique)
	}
	// Shared sources: events counted once.
	if all[0].Events != int64(len(q)+len(v)) {
		t.Fatalf("events = %d, want %d", all[0].Events, len(q)+len(v))
	}
}

func TestMultiJobErrors(t *testing.T) {
	if _, err := NewMultiJob().Run(context.Background()); err == nil {
		t.Fatal("empty multi-job should fail")
	}
	p, _ := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	if _, err := NewMultiJob().Add(p, Options{}).AddStream("Nope", nil).Run(context.Background()); err == nil {
		t.Fatal("unknown stream type should fail")
	}
	andPat, _ := Parse(`PATTERN AND(QnVQuantity q, QnVVelocity v) WITHIN 5 MIN`)
	q, v := multiTestStreams(t)
	_, err := NewMultiJob().
		AddFCEP(andPat, Options{}).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err == nil {
		t.Fatal("FCEP cannot run AND (Table 2); multi-job must surface that")
	}
}

func TestMultiJobOutOfOrder(t *testing.T) {
	p, err := Parse(`
		PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 85 AND v.value <= 15
		WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := multiTestStreams(t)
	ordered, err := NewMultiJob().
		Add(p, Options{}).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	const lateness = 4 * time.Minute
	disQ := DisorderStream(q, lateness, 5)
	disV := DisorderStream(v, lateness, 5)
	if MeasureDisorder(disQ) > lateness {
		t.Fatal("disorder exceeds the declared bound")
	}
	disordered, err := NewMultiJob().
		Add(p, Options{}).
		WithLateness(lateness).
		AddStream("QnVQuantity", disQ).
		AddStream("QnVVelocity", disV).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if ordered[0].Unique != disordered[0].Unique {
		t.Fatalf("disorder changed results: %d vs %d", ordered[0].Unique, disordered[0].Unique)
	}
}

// Every pattern of a multi-job is reported like a Job: latency quantiles
// and the recall estimate (1 when nothing was shed) are filled in.
func TestMultiJobReportsLatencyAndRecall(t *testing.T) {
	seqPat, err := Parse(`PATTERN SEQ(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 80 AND v.value <= 20 WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	andPat, err := Parse(`PATTERN AND(QnVQuantity q, QnVVelocity v)
		WHERE q.value >= 90 AND v.value <= 10 WITHIN 10 MINUTES`)
	if err != nil {
		t.Fatal(err)
	}
	q, v := multiTestStreams(t)
	all, err := NewMultiJob().
		Add(seqPat, Options{}).
		Add(andPat, Options{}).
		AddStream("QnVQuantity", q).
		AddStream("QnVVelocity", v).
		Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	for i, st := range all {
		if st.Unique == 0 {
			t.Fatalf("pattern %d found no matches", i)
		}
		if st.P50Latency <= 0 || st.RecallEstimate != 1 {
			t.Fatalf("pattern %d: P50Latency %v, RecallEstimate %g; want > 0 and 1", i, st.P50Latency, st.RecallEstimate)
		}
	}
}
