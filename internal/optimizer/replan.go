package optimizer

import (
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
)

// Replanner returns the re-planning policy core.Run applies to one run of
// p: the first plan is built from the configured statistics, every later
// one from the statistics the running plan's metrics showed when the
// re-plan was judged due. core.Run cuts the old plan at a checkpoint
// barrier and replays the rewound tail into the same sinks, so no match is
// lost or duplicated.
func (o *Optimizer) Replanner(p *sea.Pattern) core.Replanner {
	return &replanner{o: o, p: p, stats: cloneStats(o.cfg.Stats), forced: o.cfg.ReplanAfterEvents}
}

type replanner struct {
	o *Optimizer
	p *sea.Pattern
	// stats is what the next plan is built from; forced the pending
	// ReplanAfterEvents trigger (0 once fired); plans the generations
	// planned so far.
	stats  map[string]core.StreamStats
	forced int64
	plans  int
}

func (r *replanner) Plan() (*core.Plan, string, error) {
	plan, err := core.Translate(r.p, r.o.adviseWith(r.p, r.stats))
	if err != nil {
		return nil, "", err
	}
	r.plans++
	return plan, ExplainPlan(plan, r.stats), nil
}

func (r *replanner) Poll() time.Duration {
	if r.plans > r.o.cfg.MaxReplans {
		return 0
	}
	return r.o.cfg.CheckInterval
}

// Due decides whether the observed statistics justify switching plans:
// enough events seen, drift beyond the threshold, and — because a re-plan
// costs a barrier plus a partial replay — only when the re-optimized plan
// actually has a different shape. A pending forced trigger
// (ReplanAfterEvents) bypasses the drift and shape checks. A positive
// verdict adopts the observed statistics for the next plan.
func (r *replanner) Due(snap obs.Snapshot, cur *core.Plan) bool {
	total := sourceEventsFrom(snap)
	observed := observedFrom(snap, r.p)
	if r.forced > 0 {
		if total < r.forced {
			return false
		}
		r.forced = 0 // fire exactly once
		r.stats = observed
		return true
	}
	if total < r.o.cfg.MinEvents {
		return false
	}
	est := r.stats
	if len(est) == 0 {
		est = uniformStats(r.p) // cold start: judge against a uniform prior
	}
	if drift(est, observed) < r.o.cfg.ReplanThreshold {
		return false
	}
	cand, err := core.Translate(r.p, r.o.adviseWith(r.p, observed))
	if err != nil || cand.Explain() == cur.Explain() {
		return false
	}
	r.stats = observed
	return true
}
