package asp

import (
	"cep2asp/internal/event"

	"cep2asp/internal/overload"
)

// arrivalRate is a cheap long-run arrival-rate estimate for one input
// side of a stateful operator: events seen over the event-time span they
// covered. It costs two compares and an increment per record, so the
// operators maintain it unconditionally and the overload layer consumes
// it only when shedding actually happens — for completion scores
// (pattern-aware victim selection) and for lost-match bounds (recall
// accounting).
type arrivalRate struct {
	seen        int64
	first, last event.Time
	primed      bool
}

func (a *arrivalRate) observe(ts event.Time) {
	if !a.primed {
		a.primed = true
		a.first, a.last = ts, ts
		a.seen = 1
		return
	}
	if ts > a.last {
		a.last = ts
	}
	a.seen++
}

// perTimeUnit returns events per event-time unit (0 until the observed
// span is non-empty).
func (a *arrivalRate) perTimeUnit() float64 {
	if !a.primed || a.last <= a.first {
		return 0
	}
	return float64(a.seen-1) / float64(a.last-a.first)
}

// clampTimeLeft floors a remaining-lifetime computation at zero; expired
// state still gets the ExpectedArrivals floor of one potential partner.
func clampTimeLeft(t event.Time) int64 {
	if t < 0 {
		return 0
	}
	return int64(t)
}

// overloadCheck builds the Shed/Pause policy check an operator instance runs
// after every record and watermark, and the release its exit runs. Both are
// nil on ordinary runs and under the Fail policy, whose checks sit in
// AddState.
func overloadCheck(op Operator, st State, col *Collector) (check, release func()) {
	env := col.env
	ov := env.cfg.Overload
	if !ov.Budget.Enabled() || ov.Policy == overload.Fail {
		return nil, nil
	}
	perOp, perJob := ov.Budget.PerOperator, ov.Budget.PerJob
	lw := ov.Budget.EffectiveLowWater()
	switch {
	case ov.Policy == overload.Shed && st != nil:
		// The live strategy may be switched mid-run by a quality controller;
		// every check reads it on this instance's own goroutine.
		strategy := env.ShedStrategy
		if ss, ok := op.(SelfShedder); ok {
			// Operators whose state can multiply within a single call (the
			// NFA under skip-till-any-match) cap themselves at insertion
			// time; post-call checks cannot bound that growth.
			eff := perOp
			if eff <= 0 || (perJob > 0 && perJob < eff) {
				eff = perJob
			}
			if eff > 0 {
				ss.SetStateBudget(eff, int64(lw*float64(eff)), col.recordShed)
			}
			strategy = func() overload.ShedStrategy {
				by := env.ShedStrategy()
				ss.SetShedStrategy(by == overload.PatternAware)
				return by
			}
			strategy()
		}
		return func() {
			by := strategy()
			if perOp > 0 && col.instState >= perOp {
				col.recordShed(st.Shed(int64(lw*float64(perOp)), by, col))
			}
			if perJob <= 0 || col.instState == 0 {
				return
			}
			if total := env.totalState.Load(); total >= perJob {
				// The noticing instance sheds the job-wide excess from its
				// own state (it cannot reach the others'); every stateful
				// instance runs this check, so pressure lands where state
				// actually sits.
				target := max(col.instState-(total-int64(lw*float64(perJob))), 0)
				col.recordShed(st.Shed(target, by, col))
			}
		}, nil
	case ov.Policy == overload.Pause:
		gate := env.gate
		lowOp, lowJob := int64(lw*float64(perOp)), int64(lw*float64(perJob))
		raised := false
		check = func() {
			if !raised {
				if (perOp > 0 && col.instState >= perOp) ||
					(perJob > 0 && env.totalState.Load() >= perJob) {
					raised = true
					gate.Raise()
				}
				return
			}
			if (perOp <= 0 || col.instState <= lowOp) &&
				(perJob <= 0 || env.totalState.Load() <= lowJob) {
				raised = false
				gate.Lower()
			}
		}
		return check, func() {
			if raised {
				gate.Lower()
			}
		}
	}
	return nil, nil
}
