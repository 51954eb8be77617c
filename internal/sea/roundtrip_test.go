package sea_test

import (
	"reflect"
	"testing"

	"cep2asp/internal/core"
	"cep2asp/internal/sea"
)

// TestPatternStringRoundTrip: a distributed run ships each plan's pattern
// as Pattern.String() and every worker parses and translates it again, so
// the rendering must reparse into a pattern that translates to the same
// plan — decomposed and as one NFA, under O1+O3 and, for the unbounded
// iteration only O2 translates, O1+O2+O3.
func TestPatternStringRoundTrip(t *testing.T) {
	patterns := []string{
		// The distributed tests' patterns.
		`PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		`PATTERN AND(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 50 AND v.value <= 50 AND q.id == v.id
			WITHIN 5 MINUTES SLIDE 1 MINUTE`,
		`PATTERN ITER(QnVVelocity v, 3)
			WHERE v.value <= 60 AND v[i].id == v[i+1].id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		`PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 90 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		`PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND x.value >= 90 AND q.id == v.id AND x.id == q.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		`PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 p)
			WHERE q.value >= 40 AND v.value <= 60 AND p.value <= 50 AND q.id == v.id AND v.id == p.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`,
		// Every operator, bounded and unbounded iteration.
		`PATTERN OR(QnVQuantity q, SEQ(QnVVelocity v, PM10 p))
			WHERE q.value > 90 AND v.id == p.id WITHIN 5 MINUTES`,
		`PATTERN AND(QnVQuantity q, QnVVelocity v, PM10 p) WHERE q.id == v.id AND p.id == q.id WITHIN 3 MINUTES`,
		`PATTERN ITER(QnVVelocity v, 4) WHERE v[i].id == v[i+1].id AND v[i].value < v[i+1].value WITHIN 90 MINUTES`,
		`PATTERN ITER(QnVVelocity v, 3+) WHERE v[i].id == v[i+1].id WITHIN 20 MINUTES`,
		`PATTERN SEQ(QnVQuantity q, !PM10 x, QnVVelocity v, PM25 y) WHERE x.value > 10 WITHIN 8 MINUTES`,
		// Float literals and %g output: fractions, exponents, large and
		// negative values, arithmetic.
		`PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 0.1 AND v.value <= 1e-3 AND q.value < 1e21 AND v.value > -2.5
			  AND q.value * 0.3 + 1 <= v.value / 3 AND NOT q.value == 12.75
			WITHIN 10 MINUTES`,
		// SLIDE and RETURN.
		`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WHERE q.id == v.id
			WITHIN 1 HOUR SLIDE 30 SECONDS RETURN q.id AS sensor, v.value`,
		`PATTERN SEQ(QnVQuantity q, QnVVelocity v) WITHIN 90 SECONDS SLIDE 250 MS RETURN *`,
	}
	o13 := core.Options{UseIntervalJoin: true, UsePartitioning: true, Parallelism: 4}
	o123 := o13
	o123.UseAggregation = true
	translators := []struct {
		name string
		fn   func(*sea.Pattern, core.Options) (*core.Plan, error)
	}{{"Translate", core.Translate}, {"TranslateFCEP", core.TranslateFCEP}}
	// explain renders a translation's outcome: the plan, or its error.
	explain := func(plan *core.Plan, err error) string {
		if err != nil {
			return "error: " + err.Error()
		}
		return plan.Explain()
	}
	for _, src := range patterns {
		p, err := sea.Parse(src)
		if err != nil {
			t.Fatalf("parse %s: %v", src, err)
		}
		shipped, err := sea.Parse(p.String())
		if err != nil {
			t.Fatalf("reparse of %q: %v", p.String(), err)
		}
		// Explain renders predicates through String too, so compare the
		// trees: a lossy literal would otherwise go unseen.
		if !reflect.DeepEqual(shipped, p) {
			t.Fatalf("pattern changed across the round trip:\n%s\nvs\n%s", p, shipped)
		}
		translated := 0
		for _, opts := range []core.Options{o13, o123} {
			for _, tr := range translators {
				plan, err := tr.fn(p, opts)
				want := explain(plan, err)
				if got := explain(tr.fn(shipped, opts)); got != want {
					t.Fatalf("%s %s of %s changed across the round trip:\nsent\n%s\nrebuilt\n%s", tr.name, opts, p, want, got)
				}
				if err == nil {
					translated++
				}
			}
		}
		if translated == 0 {
			t.Fatalf("no translation of %s succeeded; the round trip compared errors only", p)
		}
	}
}
