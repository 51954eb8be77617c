package cep2asp

import (
	"context"
	"fmt"
	"maps"
	"testing"
)

// TestSlidingWindowsMatchOracle runs plain FASP on a two-way SEQ and AND at
// W = 10 minutes and every slide from 1 to 5 minutes, ragged ones (S ∤ W)
// included: the match set must be the oracle's, which assigns events to the
// true windows [k·S, k·S+W), and ten repeated runs must agree on Unique.
func TestSlidingWindowsMatchOracle(t *testing.T) {
	q, v := GenerateQnV(4, 200, 7)
	all := append(append([]Event{}, q...), v...)
	for _, op := range []string{"SEQ", "AND"} {
		for slide := 1; slide <= 5; slide++ {
			p, err := Parse(fmt.Sprintf(`PATTERN %s(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 60 AND v.value <= 40
				WITHIN 10 MINUTES SLIDE %d MINUTES`, op, slide))
			if err != nil {
				t.Fatal(err)
			}
			want := make(map[string]bool)
			for _, m := range EvaluateReference(p, all) {
				want[m.Key()] = true
			}
			for run := 0; run < 10; run++ {
				stats, err := NewJob(p).AddStream("QnVQuantity", q).AddStream("QnVVelocity", v).Run(context.Background())
				if err != nil {
					t.Fatal(err)
				}
				got := make(map[string]bool)
				for _, m := range stats.Matches {
					got[m.Key()] = true
				}
				if !maps.Equal(got, want) || stats.Unique != int64(len(want)) {
					t.Fatalf("%s S=%d run %d: %d unique matches, %d distinct, the oracle %d", op, slide, run, stats.Unique, len(got), len(want))
				}
			}
		}
	}
}
