// Package optimizer is the cost-based pattern compiler the paper leaves as
// future work: "the automated application of the proposed optimization
// opportunities" driven by collected stream statistics (§7). It layers on
// top of internal/core's rule advisor:
//
//   - statistics collection: Measure derives exact per-stream rates and
//     filter selectivities from recorded data; the re-planning monitor
//     reads the same quantities live from the obs registry of a running
//     plan;
//   - plan rewriting: Advise turns statistics into core.Options with a
//     cardinality-based join cost model attached, which switches the
//     translator from heuristic ascending-frequency left-deep chains to
//     greedy cheapest-pair-first (bushy) join trees, and auto-selects
//     O1/O2/O3 per §4.3's rules;
//   - online re-planning: Replanner is core.Run's re-planning policy — it
//     watches observed selectivities while a plan executes and, when they
//     drift from the estimates far enough to change the plan shape, has
//     core.Run cut the run at a checkpoint barrier and continue under the
//     re-optimized plan without losing or duplicating matches.
package optimizer

import (
	"fmt"
	"strings"
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

// Config parameterizes an Optimizer.
type Config struct {
	// Stats are the initial per-type stream statistics (events per minute
	// and filter selectivity), keyed by event type name. Empty means cold
	// start: the first plan is the heuristic one and statistics are
	// learned online.
	Stats map[string]core.StreamStats
	// Parallelism is handed through to core.Advise for O3.
	Parallelism int
	// ReplanThreshold is the drift factor beyond which a re-plan is
	// considered: the largest ratio between an observed stream's share of
	// the effective input volume and its estimated share. Defaults to 2;
	// must be >= 1.
	ReplanThreshold float64
	// MaxReplans bounds how many times a run may re-plan. Zero selects the
	// default of 1; negative disables online re-planning.
	MaxReplans int
	// CheckInterval is how often a run polls observed statistics while the
	// plan executes. Defaults to 100ms.
	CheckInterval time.Duration
	// MinEvents is the number of source events that must be observed
	// before drift is judged (avoids re-planning on startup noise).
	// Defaults to 256.
	MinEvents int64
	// ReplanAfterEvents, when positive, forces exactly one re-plan as soon
	// as the sources have emitted this many events, regardless of drift —
	// a deterministic trigger for tests exercising the re-plan protocol.
	ReplanAfterEvents int64
}

// Optimizer compiles patterns into cost-optimized plans and re-plans
// them online (Replanner).
type Optimizer struct {
	cfg Config
}

// New validates the configuration (fail-fast on invalid statistics) and
// returns an Optimizer.
func New(cfg Config) (*Optimizer, error) {
	if err := core.ValidateStats(cfg.Stats); err != nil {
		return nil, err
	}
	if cfg.Parallelism < 0 {
		return nil, fmt.Errorf("optimizer: parallelism %d must be non-negative", cfg.Parallelism)
	}
	if cfg.ReplanThreshold == 0 {
		cfg.ReplanThreshold = 2
	}
	if cfg.ReplanThreshold < 1 {
		return nil, fmt.Errorf("optimizer: re-plan threshold %v must be >= 1", cfg.ReplanThreshold)
	}
	if cfg.MaxReplans == 0 {
		cfg.MaxReplans = 1
	}
	if cfg.CheckInterval <= 0 {
		cfg.CheckInterval = 100 * time.Millisecond
	}
	if cfg.MinEvents <= 0 {
		cfg.MinEvents = 256
	}
	return &Optimizer{cfg: cfg}, nil
}

// Advise derives cost-based Options for the pattern from the configured
// statistics: core.Advise's O1/O2/O3 selection plus CostBasedJoins, which
// switches the translator to greedy cheapest-pair-first join trees.
func (o *Optimizer) Advise(p *sea.Pattern) core.Options {
	return o.adviseWith(p, o.cfg.Stats)
}

func (o *Optimizer) adviseWith(p *sea.Pattern, stats map[string]core.StreamStats) core.Options {
	opts := core.Advise(p, stats, o.cfg.Parallelism)
	opts.CostBasedJoins = true
	return opts
}

// Plan translates the pattern under cost-based Options.
func (o *Optimizer) Plan(p *sea.Pattern) (*core.Plan, error) {
	return core.Translate(p, o.Advise(p))
}

// Explain translates the pattern and renders the plan with per-node
// estimated cardinalities.
func (o *Optimizer) Explain(p *sea.Pattern) (string, error) {
	plan, err := o.Plan(p)
	if err != nil {
		return "", err
	}
	return ExplainPlan(plan, o.cfg.Stats), nil
}

// ExplainPlan renders a plan tree with each node annotated with its
// estimated output rate (events per minute) under the given statistics —
// the "estimated vs. observed" half of plan diagnostics. Unknown leaf
// rates are priced at 1/min, as the translator's join cost does.
func ExplainPlan(plan *core.Plan, stats map[string]core.StreamStats) string {
	name := plan.Pattern.Name
	if name == "" {
		name = "(unnamed)"
	}
	wmin := float64(plan.Pattern.Window.Size) / float64(event.Minute)
	if wmin <= 0 {
		wmin = 1
	}
	slide := plan.Pattern.Window.Slide
	var estimate func(n core.PlanNode) float64
	estimate = func(n core.PlanNode) float64 {
		switch v := n.(type) {
		case *core.ScanPlan:
			return leafRate(stats, v.TypeName)
		case *core.JoinPlan:
			return estimate(v.Left) * estimate(v.Right) * wmin
		case *core.UnionPlan:
			var sum float64
			for _, k := range v.Branches {
				sum += estimate(k)
			}
			return sum
		case *core.AggregatePlan:
			// One count tuple per slide at most.
			if slide > 0 {
				return float64(event.Minute) / float64(slide)
			}
			return 1
		case *core.NextOccurrencePlan:
			return leafRate(stats, v.T1.TypeName)
		default:
			var sum float64
			for _, k := range n.Kids() {
				sum += estimate(k)
			}
			return sum
		}
	}
	var b strings.Builder
	fmt.Fprintf(&b, "-- %s plan for pattern %s (est. events/min per node)\n", plan.Opts, name)
	var walk func(n core.PlanNode, depth int)
	walk = func(n core.PlanNode, depth int) {
		fmt.Fprintf(&b, "%s%s  — est %.4g/min\n",
			strings.Repeat("  ", depth), n.Describe(), estimate(n))
		for _, k := range n.Kids() {
			walk(k, depth+1)
		}
	}
	walk(plan.Root, 0)
	return b.String()
}

func leafRate(stats map[string]core.StreamStats, typeName string) float64 {
	s, ok := stats[typeName]
	if !ok {
		return 1
	}
	eff := s.Frequency
	if sel := s.FilterSelectivity; sel > 0 {
		eff *= sel
	}
	if eff <= 0 {
		return 1
	}
	return eff
}

func cloneStats(stats map[string]core.StreamStats) map[string]core.StreamStats {
	if stats == nil {
		return nil
	}
	out := make(map[string]core.StreamStats, len(stats))
	for k, v := range stats {
		out[k] = v
	}
	return out
}
