package overload

import (
	"errors"
	"math/rand"
	"sort"
	"testing"
	"time"
)

func TestPolicyStringFallback(t *testing.T) {
	if got := Policy(99).String(); got != "policy(99)" {
		t.Errorf("Policy(99).String() = %q, want policy(99)", got)
	}
	if got := ShedStrategy(7).String(); got != "strategy(7)" {
		t.Errorf("ShedStrategy(7).String() = %q, want strategy(7)", got)
	}
}

func TestParseShedStrategy(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want ShedStrategy
		ok   bool
	}{
		{"oldest", OldestFirst, true},
		{"pattern", PatternAware, true},
		{"", OldestFirst, false},
		{"newest", OldestFirst, false},
		{"Pattern", OldestFirst, false},
	} {
		got, err := ParseShedStrategy(tc.in)
		if tc.ok != (err == nil) {
			t.Errorf("ParseShedStrategy(%q): err=%v, want ok=%v", tc.in, err, tc.ok)
			continue
		}
		if err == nil && got != tc.want {
			t.Errorf("ParseShedStrategy(%q) = %v, want %v", tc.in, got, tc.want)
		}
	}
	for _, s := range []ShedStrategy{OldestFirst, PatternAware} {
		rt, err := ParseShedStrategy(s.String())
		if err != nil || rt != s {
			t.Errorf("round-trip %v: got %v, %v", s, rt, err)
		}
	}
}

func TestBudgetValidateLowWaterBand(t *testing.T) {
	ok := []Budget{
		{},                                // zero means DefaultLowWater
		{PerOperator: 10, LowWater: 0.01}, // bottom of the band
		{PerOperator: 10, LowWater: 0.8},  //
		{PerJob: 5, LowWater: 1},          // top of the band: shed exactly to budget
	}
	for _, b := range ok {
		if err := b.Validate(); err != nil {
			t.Errorf("Validate(%+v) = %v, want nil", b, err)
		}
	}
	bad := []Budget{
		{PerOperator: -1},
		{PerJob: -3},
		{PerOperator: 10, LowWater: -0.5},
		{PerOperator: 10, LowWater: 1.5},
	}
	for _, b := range bad {
		if err := b.Validate(); err == nil {
			t.Errorf("Validate(%+v) = nil, want error", b)
		}
	}
}

// TestCompletionValueOrderings pins the orderings pattern-aware victim
// selection relies on: advancement dominates (the lexicographic bands
// never overlap), freshness breaks ties within a band, expired units
// rank at zero, and complete units at the ceiling.
func TestCompletionValueOrderings(t *testing.T) {
	const window, rate = 1000, 0.5

	if got := CompletionValue(0, 500, window, rate); got != 1 {
		t.Errorf("complete unit: score %g, want 1", got)
	}
	if got := CompletionValue(2, 0, window, rate); got != 0 {
		t.Errorf("expired unit: score %g, want 0", got)
	}
	if got := CompletionValue(2, -5, window, rate); got != 0 {
		t.Errorf("past-expired unit: score %g, want 0", got)
	}

	// Band separation: the most hopeless k-transition unit still outranks
	// the freshest k+1-transition unit, with and without a rate estimate.
	for _, r := range []float64{rate, 0} {
		for k := 1; k < 5; k++ {
			worse := CompletionValue(k+1, window, window, r)
			better := CompletionValue(k, 1, window, r)
			if better <= worse {
				t.Errorf("rate=%g: stale k=%d (%g) should outrank fresh k=%d (%g)",
					r, k, better, k+1, worse)
			}
		}
	}

	// Freshness within a band, again under both the Poisson rank and the
	// rate-free fallback.
	for _, r := range []float64{rate, 0} {
		old := CompletionValue(2, 10, window, r)
		young := CompletionValue(2, 900, window, r)
		if young <= old {
			t.Errorf("rate=%g: younger unit %g should outrank older %g", r, young, old)
		}
	}

	// The rank must not saturate on dense streams: two fresh units of the
	// same stage but different remaining time stay strictly ordered even
	// when both are near-certain to complete.
	dense := 50.0
	a := CompletionValue(1, 400, window, dense)
	b := CompletionValue(1, 900, window, dense)
	if b <= a {
		t.Errorf("dense stream: scores saturated (%g vs %g)", a, b)
	}

	// Decay: for a fixed unit the score only falls as time advances, the
	// invariant the lazy-rescore shedding loop depends on.
	prev := CompletionValue(2, 1000, window, rate)
	for left := int64(900); left >= 0; left -= 100 {
		cur := CompletionValue(2, left, window, rate)
		if cur > prev {
			t.Errorf("score rose from %g to %g as timeLeft fell to %d", prev, cur, left)
		}
		prev = cur
	}
}

func TestRateEWMA(t *testing.T) {
	dense := NewRate(0)
	for ts := int64(0); ts < 100; ts += 2 {
		dense.Observe(ts)
	}
	sparse := NewRate(0)
	for ts := int64(0); ts < 1000; ts += 20 {
		sparse.Observe(ts)
	}
	if dense.PerTimeUnit() <= sparse.PerTimeUnit() {
		t.Errorf("dense rate %g not above sparse %g", dense.PerTimeUnit(), sparse.PerTimeUnit())
	}
	// Out-of-order timestamps bias upward, never panic or go negative.
	r := NewRate(0)
	r.Observe(100)
	r.Observe(50)
	r.Observe(50)
	if r.PerTimeUnit() <= 0 {
		t.Errorf("out-of-order arrivals produced rate %g", r.PerTimeUnit())
	}
	if NewRate(0).PerTimeUnit() != 0 {
		t.Error("unprimed rate should read 0")
	}
}

func TestExpectedArrivalsFloor(t *testing.T) {
	if got := ExpectedArrivals(0, 1000); got != 1 {
		t.Errorf("no-rate bound %g, want floor 1", got)
	}
	if got := ExpectedArrivals(5, 0); got != 1 {
		t.Errorf("expired bound %g, want floor 1", got)
	}
	if got := ExpectedArrivals(2, 100); got != LossSafety*2*100 {
		t.Errorf("bound %g, want %d", got, LossSafety*2*100)
	}
}

func TestRecallEstimate(t *testing.T) {
	if got := RecallEstimate(10, 0); got != 1 {
		t.Errorf("no loss: estimate %g, want 1", got)
	}
	if got := RecallEstimate(0, 5); got != 0 {
		t.Errorf("no matches with loss: estimate %g, want 0", got)
	}
	if got := RecallEstimate(75, 25); got != 0.75 {
		t.Errorf("estimate %g, want 0.75", got)
	}
}

func TestValueHeapOrderAndRemoval(t *testing.T) {
	h := &ValueHeap{}
	rng := rand.New(rand.NewSource(7))
	var items []*HeapItem
	for i := 0; i < 200; i++ {
		items = append(items, h.Push(rng.Float64(), i))
	}
	// Remove a third by handle, including the current minimum.
	h.Remove(h.PeekMin())
	for i := 0; i < len(items); i += 3 {
		h.Remove(items[i])
	}
	h.Remove(items[3]) // double-remove is a no-op
	h.Remove(nil)      // nil-remove is a no-op
	var drained []float64
	for it := h.PopMin(); it != nil; it = h.PopMin() {
		drained = append(drained, it.Score)
	}
	if !sort.Float64sAreSorted(drained) {
		t.Fatalf("PopMin sequence not ascending: %v", drained)
	}
	if h.Len() != 0 || h.PopMin() != nil {
		t.Fatal("drained heap not empty")
	}
}

// fakeProbe and fakeActuator drive the quality controller's ladder
// deterministically.
type fakeProbe struct {
	matches int64
	lost    float64
	p99     time.Duration
	bytes   int64
}

func (p *fakeProbe) Matches() int64            { return p.matches }
func (p *fakeProbe) LostMatchBound() float64   { return p.lost }
func (p *fakeProbe) P99Latency() time.Duration { return p.p99 }
func (p *fakeProbe) StateBytes() int64         { return p.bytes }

type fakeActuator struct {
	patternAware bool
	pauses       int
}

func (a *fakeActuator) SetPatternAware(on bool) { a.patternAware = on }
func (a *fakeActuator) PauseIntake()            { a.pauses++ }
func (a *fakeActuator) ResumeIntake()           { a.pauses-- }

func TestQualityControllerRecallLadder(t *testing.T) {
	probe := &fakeProbe{matches: 100}
	act := &fakeActuator{}
	c, err := NewQualityController(QualityDemand{MinRecall: 0.9}, Spec{Policy: Shed}, probe, act)
	if err != nil {
		t.Fatal(err)
	}

	c.Step() // recall estimate 1: no action
	if act.patternAware || act.pauses != 0 {
		t.Fatalf("healthy run acted: aware=%v pauses=%d", act.patternAware, act.pauses)
	}

	probe.lost = 12 // estimate 100/112 ≈ 0.893 < 0.9: escalate to pattern-aware
	c.Step()
	if !act.patternAware {
		t.Fatal("recall dip did not switch shedding to pattern-aware")
	}
	if act.pauses != 0 {
		t.Fatal("first escalation should not pause intake")
	}

	probe.lost = 30 // estimate ≈ 0.769 < MinRecall while already aware: pause
	c.Step()
	if act.pauses != 1 {
		t.Fatalf("deep recall breach should pause intake once, got %d", act.pauses)
	}
	c.Step() // still breached: the held pause is not stacked
	if act.pauses != 1 {
		t.Fatalf("pause stacked to %d", act.pauses)
	}

	probe.matches, probe.lost = 1000, 30 // estimate ≈ 0.971 clears the band
	c.Step()
	if act.pauses != 0 {
		t.Fatalf("recovery did not release the pause, held %d", act.pauses)
	}

	got := c.Actions()
	if len(got) != 3 {
		t.Fatalf("actions = %v, want escalate/pause/resume", got)
	}
	c.Stop()
	if act.pauses != 0 {
		t.Fatalf("Stop left %d pauses held", act.pauses)
	}
}

func TestQualityControllerStateAndLatency(t *testing.T) {
	probe := &fakeProbe{matches: 10, bytes: 100}
	act := &fakeActuator{}
	c, err := NewQualityController(
		QualityDemand{MaxStateBytes: 1 << 20, MaxP99Latency: 50 * time.Millisecond},
		Spec{Policy: Shed}, probe, act)
	if err != nil {
		t.Fatal(err)
	}

	probe.bytes = 2 << 20 // heap breach: tighten admission
	c.Step()
	if act.pauses != 1 {
		t.Fatalf("state breach pauses = %d, want 1", act.pauses)
	}
	probe.bytes = 1 << 19 // drained below 0.8x: relax
	c.Step()
	if act.pauses != 0 {
		t.Fatalf("state drain pauses = %d, want 0", act.pauses)
	}

	probe.p99 = 80 * time.Millisecond // latency breach: force pattern-aware
	c.Step()
	if !act.patternAware {
		t.Fatal("latency breach did not switch shedding to pattern-aware")
	}
	probe.p99 = 10 * time.Millisecond // breach clears
	c.Step()
	probe.p99 = 90 * time.Millisecond // re-breach with degradation already maximal
	before := len(c.Actions())
	c.Step()
	c.Step() // sustained: recorded once, not per tick
	if extra := len(c.Actions()) - before; extra != 1 {
		t.Fatalf("re-breach with maximal degradation recorded %d extra actions, want 1", extra)
	}
	c.Stop()
}

func TestQualityDemandValidate(t *testing.T) {
	budget := Spec{Policy: Fail, Budget: Budget{PerOperator: 64}}
	var inf *QualityInfeasibleError
	if err := (QualityDemand{MinRecall: 0.9}).Validate(budget); !errors.As(err, &inf) {
		t.Errorf("MinRecall under Fail+budget: err=%v, want QualityInfeasibleError", err)
	}
	shed := Spec{Policy: Shed, Budget: Budget{PerOperator: 64}}
	if err := (QualityDemand{MinRecall: 1, MaxP99Latency: time.Second}).Validate(shed); !errors.As(err, &inf) {
		t.Errorf("perfect recall + latency ceiling under budget: err=%v, want QualityInfeasibleError", err)
	} else if inf.Error() == "" {
		t.Error("empty infeasibility message")
	}
	if err := (QualityDemand{MinRecall: 1.5}).Validate(shed); err == nil {
		t.Error("MinRecall above 1 accepted")
	}
	if err := (QualityDemand{MinRecall: -0.1}).Validate(shed); err == nil {
		t.Error("negative MinRecall accepted")
	}
	if err := (QualityDemand{MaxStateBytes: -1}).Validate(shed); err == nil {
		t.Error("negative MaxStateBytes accepted")
	}
	if err := (QualityDemand{MaxP99Latency: -time.Second}).Validate(shed); err == nil {
		t.Error("negative MaxP99Latency accepted")
	}
	if err := (QualityDemand{MinRecall: 0.9}).Validate(shed); err != nil {
		t.Errorf("feasible demand rejected: %v", err)
	}
	if (QualityDemand{}).Enabled() {
		t.Error("zero demand reports enabled")
	}
	if !(QualityDemand{MinRecall: 0.5}).Enabled() {
		t.Error("recall demand reports disabled")
	}
}
