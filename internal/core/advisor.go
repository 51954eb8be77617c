package core

import (
	"fmt"
	"math"
	"sort"

	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

// StreamStats describes one input stream's data characteristics, the
// information the paper's future-work section proposes to collect for
// "the automated application of the proposed optimization opportunities"
// (§7). Frequency is in events per minute; FilterSelectivity estimates the
// fraction of events surviving the pattern's pushed-down selections for
// this stream (0 when unknown, treated as 1).
type StreamStats struct {
	Frequency         float64
	FilterSelectivity float64
}

// validate rejects statistics that would silently misprice every plan:
// negative or NaN frequencies, and selectivities outside (0, 1] (the zero
// value means "unknown" and is accepted).
func (s StreamStats) validate(name string) error {
	if math.IsNaN(s.Frequency) || s.Frequency < 0 {
		return fmt.Errorf("core: invalid stream statistics for %q: frequency %v must be a non-negative number", name, s.Frequency)
	}
	sel := s.FilterSelectivity
	if math.IsNaN(sel) || sel < 0 || sel > 1 {
		return fmt.Errorf("core: invalid stream statistics for %q: filter selectivity %v must be in [0, 1] (0 = unknown)", name, sel)
	}
	return nil
}

// ValidateStats checks every stream's statistics, failing fast on values
// that would silently corrupt cost estimates (negative frequencies, NaNs,
// selectivities outside [0, 1]). A zero FilterSelectivity means "unknown"
// and is valid.
func ValidateStats(stats map[string]StreamStats) error {
	names := make([]string, 0, len(stats))
	for name := range stats {
		names = append(names, name)
	}
	sort.Strings(names) // deterministic first error
	for _, name := range names {
		if err := stats[name].validate(name); err != nil {
			return err
		}
	}
	return nil
}

func (s StreamStats) effective() float64 {
	sel := s.FilterSelectivity
	if sel == 0 {
		// The zero value is "unknown": price the stream unfiltered. Invalid
		// selectivities (< 0, > 1, NaN) are rejected by ValidateStats on
		// the Advise path instead of being clamped here.
		sel = 1
	}
	return s.Frequency * sel
}

// HighFrequencyFactor is the ratio beyond which the first stream counts as
// "significantly more frequent" than the second, the regime where sliding
// window joins outperform interval joins (§4.3.1, Performance).
const HighFrequencyFactor = 4.0

// Advise selects mapping optimizations from the pattern's shape and the
// provided stream statistics, codifying §4.3:
//
//   - O3 is enabled whenever an equi predicate keys the pattern — "Equi
//     Join predicates are always preferable as join keys" (§4.3.3) — with
//     the given parallelism;
//   - O2 is enabled for unbounded root-level iterations, where the window
//     count aggregation is mandatory (the self-join mapping supports exact
//     m only, §4.3.2). Bounded iterations keep the exact self-join chain:
//     the aggregation is approximate and cannot express Kleene*, so it is
//     never forced where the exact mapping exists;
//   - O1 is enabled unless the leading join's left stream is significantly
//     more frequent than its right after filtering — interval joins create
//     content-based windows per left element, so they win when the left
//     stream is the rarer one and lose when it floods (§4.3.1, observed on
//     NSEQ in §5.2.1). The rule evaluates the pair the translator actually
//     joins first, i.e. after §4.2.2 frequency reordering, not the
//     pattern-order pair.
//
// Frequencies also feed the translator's join reordering (§4.2.2). Streams
// missing from stats are treated as unknown, which leans conservative:
// unknown frequencies neither trigger nor suppress O1's frequency rule.
// Invalid statistics (negative or NaN frequencies, selectivities outside
// [0, 1]) are not silently clamped: the error is recorded on the returned
// Options and surfaces at Translate, PR-4-style fail-fast validation.
func Advise(p *sea.Pattern, stats map[string]StreamStats, parallelism int) Options {
	opts := Options{Parallelism: parallelism}
	if err := ValidateStats(stats); err != nil {
		opts.statsErr = err
		return opts
	}

	if an, err := sea.Analyze(p); err == nil && an.KeyAttr() != "" {
		opts.UsePartitioning = true
	}

	if it, ok := p.Root.(*sea.IterNode); ok {
		// O2 only where it is mandatory: the aggregation is approximate
		// (one count tuple per window, no constituent values), so bounded
		// iterations keep the exact θ self-join chain.
		opts.UseAggregation = it.Unbounded
	}

	opts.UseIntervalJoin = adviseIntervalJoin(p, stats)

	if len(stats) > 0 {
		opts.Frequencies = make(map[string]float64, len(stats))
		for name, s := range stats {
			opts.Frequencies[name] = s.effective()
		}
	}
	return opts
}

// CompletenessWarning checks Theorem 2's precondition: sliding windows
// detect every match only when the slide does not exceed the fastest
// involved stream's inter-arrival time (events arriving faster than the
// slide can straddle pane boundaries unseen when their timestamps are not
// aligned to the slide grid). It returns a human-readable warning, or ""
// when the configuration is provably complete or the statistics are
// insufficient to judge. Interval joins (O1) are content-based and immune.
//
// A zero or negative slide (a pattern assembled by hand, bypassing Parse's
// defaulting) makes the precondition unjudgeable, never provably complete,
// so it warns instead of silently returning "". Inter-arrival times are
// compared in sub-millisecond precision: a stream faster than one event
// per millisecond must not truncate to a zero inter-arrival.
func CompletenessWarning(p *sea.Pattern, freqs map[string]float64) string {
	if len(freqs) == 0 {
		return ""
	}
	var fastest string
	var maxFreq float64
	for _, l := range p.PositiveLeaves() {
		if f, ok := freqs[l.TypeName]; ok && f > maxFreq {
			maxFreq, fastest = f, l.TypeName
		}
	}
	if maxFreq == 0 {
		return ""
	}
	if p.Window.Slide <= 0 {
		return fmt.Sprintf(
			"window slide is %dms (unset or non-positive); Theorem 2's completeness "+
				"precondition cannot hold without a positive slide — build the pattern "+
				"through Parse or set SLIDE explicitly",
			p.Window.Slide)
	}
	interArrival := float64(event.Minute) / maxFreq // ms, sub-ms precision kept
	if float64(p.Window.Slide) <= interArrival {
		return ""
	}
	return fmt.Sprintf(
		"window slide %dms exceeds the inter-arrival time %.6gms of stream %s; "+
			"Theorem 2 requires slide <= the fastest stream's inter-arrival for "+
			"complete detection (use a smaller SLIDE or optimization O1)",
		p.Window.Slide, interArrival, fastest)
}

// adviseIntervalJoin applies the §4.3.1 frequency rule to the stream pair
// the translator joins first. With frequency estimates (and no negation,
// which pins pattern order) the translator reorders joins cheapest-first
// (§4.2.2), so the physically leading pair is the two least frequent
// streams — not the pattern-order pair. Within that pair the translator
// still puts the pattern-earlier stream on the left (ordered interval
// joins need it), so the rule must check the post-reorder left against the
// post-reorder right.
func adviseIntervalJoin(p *sea.Pattern, stats map[string]StreamStats) bool {
	leaves := p.PositiveLeaves()
	if len(leaves) < 2 {
		// Single-type patterns (iterations): the left side of every self
		// join is the same stream — interval joins always apply.
		return true
	}

	// Mirror the translator's ordering: ascending effective frequency,
	// stable, with missing stats sorting first (freq 0) — but only when
	// reordering will actually run (stats present, no negated leaf).
	order := make([]int, len(leaves))
	for i := range order {
		order[i] = i
	}
	if len(stats) > 0 && !hasNegatedLeaf(p) {
		eff := func(i int) float64 {
			s, ok := stats[leaves[order[i]].TypeName]
			if !ok {
				return 0
			}
			return s.effective()
		}
		sort.SliceStable(order, func(a, b int) bool { return eff(a) < eff(b) })
	}

	// The leading pair joins with the pattern-earlier stream on the left
	// when the pair is sequence-ordered; conjunction pairs carry no order,
	// so the cheaper stream stays left.
	li, ri := order[0], order[1]
	if _, isAnd := p.Root.(*sea.AndNode); !isAnd && ri < li {
		li, ri = ri, li
	}
	left, ok1 := stats[leaves[li].TypeName]
	right, ok2 := stats[leaves[ri].TypeName]
	if !ok1 || !ok2 || right.effective() == 0 {
		return true // unknown characteristics: default to O1
	}
	return left.effective() <= HighFrequencyFactor*right.effective()
}

func hasNegatedLeaf(p *sea.Pattern) bool {
	for _, l := range p.Leaves() {
		if l.Negated {
			return true
		}
	}
	return false
}
