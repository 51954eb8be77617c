package core

import (
	"context"
	"math"
	"strings"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

func TestAdviseEnablesO3ForKeyedPatterns(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WHERE a.id == b.id WITHIN 15 MIN`)
	opts := Advise(pat, nil, 8)
	if !opts.UsePartitioning || opts.Parallelism != 8 {
		t.Fatalf("keyed pattern should enable O3: %+v", opts)
	}
	unkeyed := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN`)
	if Advise(unkeyed, nil, 8).UsePartitioning {
		t.Fatal("unkeyed pattern must not enable O3")
	}
}

func TestAdviseEnablesO2ForRootIteration(t *testing.T) {
	// Regression: bounded iterations used to get O2 too, silently trading
	// the exact self-join chain for the approximate count aggregation. The
	// aggregation cannot express exact bounds (it checks count >= m or
	// == m per window without constituents), so O2 is advised only where
	// it is mandatory: unbounded (Kleene+) iterations.
	pat := mustPattern(t, `PATTERN ITER(ADV v, 4) WITHIN 15 MIN`)
	if Advise(pat, nil, 1).UseAggregation {
		t.Fatal("bounded iteration must keep the exact self-join mapping, not O2")
	}
	pat = mustPattern(t, `PATTERN ITER(ADV v, 4+) WITHIN 15 MIN`)
	opts := Advise(pat, nil, 1)
	if !opts.UseAggregation {
		t.Fatal("unbounded iteration requires O2")
	}
	// The advised options must actually translate.
	if _, err := Translate(pat, opts); err != nil {
		t.Fatalf("advised options fail translation: %v", err)
	}
	seq := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN`)
	if Advise(seq, nil, 1).UseAggregation {
		t.Fatal("sequence must not enable O2")
	}
}

func TestAdviseIntervalJoinFrequencyRule(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN`)

	// Balanced or left-rare: interval join (O1).
	opts := Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 10},
		"ADB": {Frequency: 10},
	}, 1)
	if !opts.UseIntervalJoin {
		t.Fatal("balanced frequencies should pick O1")
	}
	opts = Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 1},
		"ADB": {Frequency: 100},
	}, 1)
	if !opts.UseIntervalJoin {
		t.Fatal("rare left stream should pick O1")
	}

	// Left floods: sliding window join (the NSEQ observation, §5.2.1).
	opts = Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 100},
		"ADB": {Frequency: 1},
	}, 1)
	if opts.UseIntervalJoin {
		t.Fatal("flooding left stream should avoid O1")
	}

	// Filter selectivity rescues a frequent-but-filtered left stream.
	opts = Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 100, FilterSelectivity: 0.01},
		"ADB": {Frequency: 1},
	}, 1)
	if !opts.UseIntervalJoin {
		t.Fatal("heavily filtered left stream should pick O1")
	}

	// Unknown stats default to O1.
	if !Advise(pat, nil, 1).UseIntervalJoin {
		t.Fatal("unknown characteristics should default to O1")
	}
}

// Regression: the O1 frequency rule must judge the join the translator
// actually executes first — the post-reorder leading pair — not the
// pattern-order leading pair (§4.3.1 via §4.2.2).
func TestAdviseIntervalJoinUsesReorderedLeadingPair(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b, ADC c) WITHIN 15 MIN`)
	stats := map[string]StreamStats{
		"ADA": {Frequency: 100},
		"ADB": {Frequency: 200},
		"ADC": {Frequency: 1},
	}
	opts := Advise(pat, stats, 1)
	// Reordering joins ADC (1/min) with ADA (100/min) first, and the
	// translator puts the pattern-earlier ADA on the left: 100 > 4*1, so
	// the leading interval join's left floods and O1 must be off. The old
	// rule looked at the pattern pair (ADA, ADB) — 100 <= 4*200 — and
	// wrongly kept O1.
	if opts.UseIntervalJoin {
		t.Fatal("O1 must be judged on the post-reorder leading pair (ADA left, ADC right)")
	}
	// The rule's premise must match the translated plan: the leading join
	// really is ADA ⋈ ADC.
	plan, err := Translate(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	first := plan.Root.(*JoinPlan)
	for {
		l, ok := first.Left.(*JoinPlan)
		if !ok {
			break
		}
		first = l
	}
	ls, lok := first.Left.(*ScanPlan)
	rs, rok := first.Right.(*ScanPlan)
	if !lok || !rok || ls.TypeName != "ADA" || rs.TypeName != "ADC" {
		t.Fatalf("leading join is not ADA ⋈ ADC: %s ⋈ %s", first.Left.Describe(), first.Right.Describe())
	}

	// Conjunctions carry no order, so the cheaper stream stays left and
	// the same statistics keep O1 on.
	and := mustPattern(t, `PATTERN AND(ADA a, ADC c) WITHIN 15 MIN`)
	if !Advise(and, map[string]StreamStats{
		"ADA": {Frequency: 100},
		"ADC": {Frequency: 1},
	}, 1).UseIntervalJoin {
		t.Fatal("AND keeps the rare stream left; O1 should stay on")
	}
}

// Regression: invalid statistics used to be silently clamped (any bad
// selectivity priced as 1), mispricing every plan. They must fail fast.
func TestAdviseRejectsInvalidStats(t *testing.T) {
	bad := []map[string]StreamStats{
		{"ADA": {Frequency: 10, FilterSelectivity: 1.5}},
		{"ADA": {Frequency: 10, FilterSelectivity: -0.1}},
		{"ADA": {Frequency: -5}},
		{"ADA": {Frequency: math.NaN()}},
		{"ADA": {Frequency: 10, FilterSelectivity: math.NaN()}},
	}
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN`)
	for i, stats := range bad {
		if err := ValidateStats(stats); err == nil {
			t.Fatalf("case %d: ValidateStats accepted %+v", i, stats["ADA"])
		}
		if _, err := Translate(pat, Advise(pat, stats, 1)); err == nil {
			t.Fatalf("case %d: Advise→Translate accepted invalid stats %+v", i, stats["ADA"])
		}
	}
	// The zero selectivity means "unknown" and stays valid.
	ok := map[string]StreamStats{"ADA": {Frequency: 10}, "ADB": {Frequency: 1, FilterSelectivity: 0.5}}
	if err := ValidateStats(ok); err != nil {
		t.Fatalf("valid stats rejected: %v", err)
	}
	if _, err := Translate(pat, Advise(pat, ok, 1)); err != nil {
		t.Fatalf("valid stats fail translation: %v", err)
	}
}

func TestAdviseFrequenciesFeedReordering(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b, ADC c) WITHIN 15 MIN`)
	opts := Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 100},
		"ADB": {Frequency: 1},
		"ADC": {Frequency: 10},
	}, 1)
	if opts.Frequencies["ADA"] != 100 || opts.Frequencies["ADB"] != 1 {
		t.Fatalf("frequencies not forwarded: %v", opts.Frequencies)
	}
	plan, err := Translate(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	// b and c join first; a (the flood) last.
	root := plan.Root.(*JoinPlan)
	if scan, ok := root.Left.(*ScanPlan); !ok || scan.TypeName != "ADA" {
		t.Fatalf("flooding stream should join last: %s", root.Left.Describe())
	}
}

// Advised options must preserve semantics end to end.
func TestAdvisedOptionsEquivalent(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(ADA a, ADB b)
		WHERE a.id == b.id AND a.value <= b.value
		WITHIN 10 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("ADA")
	tb, _ := event.LookupType("ADB")
	rngData := func() map[event.Type][]event.Event {
		return map[event.Type][]event.Event{
			ta: mkStream(ta, 40),
			tb: mkStream(tb, 40),
		}
	}
	data := rngData()
	var all []event.Event
	for _, s := range data {
		all = append(all, s...)
	}
	oracle := sortedKeys(sea.Evaluate(pat, all))

	opts := Advise(pat, map[string]StreamStats{
		"ADA": {Frequency: 2},
		"ADB": {Frequency: 2},
	}, 4)
	plan, err := Translate(pat, opts)
	if err != nil {
		t.Fatal(err)
	}
	env, res, err := Build(plan, BuildConfig{
		Engine:      asp.Config{WatermarkInterval: 1},
		Data:        data,
		DedupSink:   true,
		KeepMatches: true,
	})
	if err != nil {
		t.Fatal(err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	equalSets(t, "advised", oracle, sortedKeys(res.Matches()))
}

func mkStream(typ event.Type, n int) []event.Event {
	out := make([]event.Event, n)
	for i := range out {
		out[i] = event.Event{
			Type: typ, ID: int64(i%3 + 1),
			TS:    int64(i) * event.Minute,
			Value: float64((i * 37) % 100),
		}
	}
	return out
}

func TestCompletenessWarning(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN SLIDE 1 MIN`)
	unslid := mustPattern(t, `PATTERN SEQ(ADA a, ADB b) WITHIN 15 MIN SLIDE 1 MIN`)
	unslid.Window.Slide = 0 // hand-built pattern bypassing Parse's defaulting

	cases := []struct {
		name  string
		pat   *sea.Pattern
		freqs map[string]float64
		want  string // "" = complete/no verdict; otherwise a required substring
	}{
		// Slide one minute vs a stream arriving every minute: complete.
		{"boundary complete", pat, map[string]float64{"ADA": 1, "ADB": 1}, ""},
		// A 10-events-per-minute stream under a one-minute slide: incomplete.
		{"fast stream warns", pat, map[string]float64{"ADA": 10, "ADB": 1}, "ADA"},
		// Unknown statistics: no verdict.
		{"no stats", pat, nil, ""},
		{"irrelevant stream", pat, map[string]float64{"Other": 99}, ""},
		// Regression: a stream faster than one event per millisecond used
		// to have its inter-arrival truncated to "0ms" — the warning must
		// keep sub-millisecond precision (60000/100000 = 0.6ms).
		{"sub-millisecond inter-arrival", pat, map[string]float64{"ADA": 100000}, "0.6ms"},
		// Regression: a zero/unset slide used to return "" as if provably
		// complete; the precondition can never hold without a positive
		// slide, so it must warn.
		{"zero slide warns", unslid, map[string]float64{"ADA": 1}, "slide"},
	}
	for _, tc := range cases {
		w := CompletenessWarning(tc.pat, tc.freqs)
		if tc.want == "" && w != "" {
			t.Errorf("%s: unexpected warning: %s", tc.name, w)
		}
		if tc.want != "" {
			if w == "" {
				t.Errorf("%s: expected a warning", tc.name)
			} else if !strings.Contains(w, tc.want) {
				t.Errorf("%s: warning %q lacks %q", tc.name, w, tc.want)
			}
		}
	}
}
