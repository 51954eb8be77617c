package asp

import (
	"cep2asp/internal/event"
)

// JoinPredicate is the θ predicate of a join, evaluated over the constituent
// events of the left and right (partial) matches. The translator compiles
// it from the pattern's temporal-order constraints, the window-span check,
// and any pushed-down multi-alias predicates.
type JoinPredicate func(left, right []event.Event) bool

// WindowJoinSpec configures a sliding window join: the direct mapping of
// conjunction (Cartesian product), sequence (θ join) and iteration (θ self
// join) under explicit windowing (Table 1).
//
// The windows are [k·Slide, k·Slide+Window) for every integer k (Eqs. 4-5).
// Two records join when some window holds both their timestamps and the
// predicate holds. The operator is the interval join's under a second
// partner rule (windowRule): each pair is joined once, in the OnRecord call
// of whichever of its records arrives later, and timestamped with the later
// of their timestamps, which lies above the input watermark.
type WindowJoinSpec struct {
	Window, Slide event.Time
	// LeftKey/RightKey group events within an instance; nil means one
	// global group (the non-partitionable case of §5.1.2).
	LeftKey, RightKey KeyFn
	// Predicate filters joined pairs; nil joins everything (pure Cartesian
	// product). It is shared across parallel instances and must be
	// stateless; predicates with internal scratch must use NewPredicate.
	Predicate JoinPredicate
	// NewPredicate, when set, builds one predicate per operator instance
	// and takes precedence over Predicate.
	NewPredicate func() JoinPredicate
	// PerWindow emits each match once per window that holds both of its
	// records: the duplicate behaviour inherent to this mapping (§3.1.4,
	// second impact) that optimization O1 eliminates. The copies share one
	// *Match. The translator sets it on the root join of a branch only, so
	// duplicates do not multiply down a decomposed chain.
	PerWindow bool
}

// NewWindowJoin returns the operator factory for Stream.Connect2.
func NewWindowJoin(spec WindowJoinSpec) func(int) Operator {
	newOp := NewIntervalJoin(IntervalJoinSpec{
		LeftKey: spec.LeftKey, RightKey: spec.RightKey,
		Predicate: spec.Predicate, NewPredicate: spec.NewPredicate,
	})
	rule := &windowRule{spec.Window, spec.Slide, spec.PerWindow}
	return func(i int) Operator {
		j := newOp(i).(*intervalJoin)
		j.win = rule
		return j
	}
}

// windowRule is the window join's partner rule.
type windowRule struct {
	window, slide event.Time
	perWindow     bool
}

// firstPartner and lastPartner bound the timestamps a record at ts joins
// with: those of the windows k ∈ [kLo, kHi] = event.WindowsOf(ts, W, S)
// that hold ts, from kLo·S to kHi·S+W-1. Both are monotone in ts.
func (w *windowRule) firstPartner(ts event.Time) event.Time {
	return (event.FloorDiv(ts-w.window, w.slide) + 1) * w.slide
}

func (w *windowRule) lastPartner(ts event.Time) event.Time {
	return event.FloorDiv(ts, w.slide)*w.slide + w.window - 1
}

// copies is the number of times a pair of records at a ≤ b is emitted: once
// per window holding both under perWindow, else once.
func (w *windowRule) copies(a, b event.Time) int {
	if !w.perWindow {
		return 1
	}
	_, kHi := event.WindowsOf(a, w.window, w.slide)
	kLo, _ := event.WindowsOf(b, w.window, w.slide)
	return int(kHi - kLo + 1)
}

// recordLoss bounds the matches lost with a dropped record: every live
// opposite-side record of its group and every expected arrival, times the
// ceil(W/S) windows a record lies in. A root stage emits a pair once per
// shared window; an intermediate one emits it once, but every downstream
// extension of the pair is lost with it, so it is charged the same
// multiple. Over-counting is safe; under-counting is not.
func (w *windowRule) recordLoss(liveOpposite int, arrivals float64) float64 {
	return (float64(liveOpposite) + arrivals) * float64((w.window+w.slide-1)/w.slide)
}
