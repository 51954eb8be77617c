// Package core implements the paper's primary contribution: the general
// operator mapping of §4 that translates SEA patterns into ASP queries.
// Conjunction becomes a Cartesian product, sequence a θ join on timestamp
// order, disjunction a union, iteration a chain of θ self joins, and the
// negated sequence a next-occurrence UDF feeding a selective join (Table
// 1). Decomposing the pattern into multiple operators — instead of one
// stateful unary CEP operator — is what unlocks pipeline parallelism,
// operator reordering and key partitioning.
//
// The package exposes the three optimization opportunities of §4.3:
//
//	O1 — interval joins replace sliding window joins (content-based
//	     windows, no slide parameter, no duplicates);
//	O2 — iterations become window count aggregations (approximate,
//	     enables the Kleene+ variation, cannot express Kleene*);
//	O3 — equi predicates become partitioning keys, parallelizing the
//	     stateful operators.
package core

import (
	"fmt"
	"strings"

	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// Options selects the execution mode and optimizations of a translation.
type Options struct {
	// UseIntervalJoin enables O1: interval joins instead of sliding
	// window joins.
	UseIntervalJoin bool
	// UseAggregation enables O2 for root-level iterations: a window count
	// aggregation instead of self joins. Unbounded iterations require it.
	UseAggregation bool
	// UsePartitioning enables O3: equi predicates become partition keys
	// and stateful operators run Parallelism instances.
	UsePartitioning bool
	// Parallelism is the instance count for partitioned operators; the
	// paper's workers expose 16 task slots each (§5.1.1). Defaults to 1.
	Parallelism int
	// Frequencies estimates events per minute per event type name and
	// drives join reordering (§4.2.2, §5.1.2: "adjust the join order to
	// improve performance"). Types without estimates keep pattern order.
	Frequencies map[string]float64

	// CostBasedJoins makes the translator price every join of a pattern
	// without negation at l × r × W (joinCost) and build a greedy
	// cheapest-pair-first join tree, possibly bushy, instead of the
	// ascending-frequency left-deep chain. The optimizer sets it.
	CostBasedJoins bool

	// statsErr is a deferred invalid-statistics error recorded by Advise
	// (PR-4-style fail-fast validation): Translate surfaces it instead of
	// building a mispriced plan from silently clamped statistics.
	statsErr error
}

func (o Options) String() string {
	var opts []string
	if o.UseIntervalJoin {
		opts = append(opts, "O1")
	}
	if o.UseAggregation {
		opts = append(opts, "O2")
	}
	if o.UsePartitioning {
		opts = append(opts, "O3")
	}
	if o.CostBasedJoins {
		opts = append(opts, "CBO")
	}
	if len(opts) == 0 {
		return "FASP"
	}
	return "FASP-" + strings.Join(opts, "+")
}

// Plan is a translated pattern: a logical operator tree ready for physical
// construction by Build.
type Plan struct {
	Pattern *sea.Pattern
	Root    PlanNode
	Opts    Options
}

// PlanNode is a node of the logical operator tree.
type PlanNode interface {
	// Aliases returns the constituent aliases of this node's output, in
	// layout order (iteration aliases repeat per constituent).
	Aliases() []string
	// Describe renders a one-line description for plan explanations.
	Describe() string
	// Kids returns the child nodes.
	Kids() []PlanNode
}

// ScanPlan reads one event type's stream and applies its pushed-down
// selections (filter pushdown over the decomposed pattern, §1).
type ScanPlan struct {
	TypeName string
	Type     event.Type
	Alias    string
	Filters  []sea.BoolExpr
}

// Aliases implements PlanNode.
func (s *ScanPlan) Aliases() []string { return []string{s.Alias} }

// Kids implements PlanNode.
func (s *ScanPlan) Kids() []PlanNode { return nil }

// Describe implements PlanNode.
func (s *ScanPlan) Describe() string {
	if len(s.Filters) == 0 {
		return fmt.Sprintf("Scan %s AS %s", s.TypeName, s.Alias)
	}
	return fmt.Sprintf("Scan %s AS %s WHERE %s", s.TypeName, s.Alias, sea.Conjoin(s.Filters))
}

// OrderPair requires a strict timestamp order between two constituents of a
// join's combined layout — the θ predicate of the sequence mapping.
type OrderPair struct {
	Before, After int // combined layout positions: events[Before].TS < events[After].TS
}

// EquiSpec is a partition-key pair extracted from an equality predicate
// (O3): both sides are hashed on the respective attribute.
type EquiSpec struct {
	LeftPos   int
	LeftAttr  string
	RightPos  int
	RightAttr string
}

// AuxCheck encodes the negated-sequence selection σ ats >= e3.ts (§4.1):
// the annotated T1 constituent's next-occurrence timestamp must not precede
// the following component's earliest constituent.
type AuxCheck struct {
	T1Pos     int
	RightPoss []int // positions of the following component's constituents
}

// JoinPlan composes two sub-plans: a sliding window join by default, an
// interval join under O1. All temporal constraints — the window span check
// and the per-pair order constraints — are part of the θ predicate.
type JoinPlan struct {
	Interval    bool
	Left, Right PlanNode
	// Ordered reports that every left constituent precedes every right
	// constituent (adjacent sequence components): interval joins then use
	// bounds (0, W) instead of (-W, W) (§4.3.1).
	Ordered bool
	Window  sea.Window
	Orders  []OrderPair
	// PairPred is the iteration's consecutive-pair constraint between the
	// last left and the single right constituent, if any.
	PairPred  sea.BoolExpr
	PairAlias string
	// Preds are multi-alias conjuncts first fully bound at this join
	// (combined layout: left aliases then right aliases).
	Preds []sea.BoolExpr
	// Equi is the partition key under O3, nil otherwise.
	Equi *EquiSpec
	// AuxChecks are negated-sequence selections bound at this join.
	AuxChecks []AuxCheck
	// PerWindow makes a window join emit each match once per window that
	// holds both its records (§3.1.4). Translate sets it on a branch's root
	// join only: every other stage emits each pair once, so the duplicates
	// do not multiply down a chain and only the final stage's remain
	// observable.
	PerWindow bool
}

// Aliases implements PlanNode.
func (j *JoinPlan) Aliases() []string {
	return append(append([]string{}, j.Left.Aliases()...), j.Right.Aliases()...)
}

// Kids implements PlanNode.
func (j *JoinPlan) Kids() []PlanNode { return []PlanNode{j.Left, j.Right} }

// Describe implements PlanNode.
func (j *JoinPlan) Describe() string {
	kind := "WindowJoin"
	if j.Interval {
		kind = "IntervalJoin"
	}
	var parts []string
	if j.Ordered {
		parts = append(parts, "ordered")
	}
	if j.Equi != nil {
		parts = append(parts, fmt.Sprintf("partitioned by [%d].%s==[%d].%s", j.Equi.LeftPos, j.Equi.LeftAttr, j.Equi.RightPos, j.Equi.RightAttr))
	}
	if len(j.Preds) > 0 {
		parts = append(parts, fmt.Sprintf("θ: %s", sea.Conjoin(j.Preds)))
	}
	if j.PairPred != nil {
		parts = append(parts, fmt.Sprintf("pairwise: %s", j.PairPred))
	}
	if len(j.AuxChecks) > 0 {
		parts = append(parts, "nseq-selection")
	}
	detail := ""
	if len(parts) > 0 {
		detail = " (" + strings.Join(parts, ", ") + ")"
	}
	return fmt.Sprintf("%s %s%s", kind, j.Window, detail)
}

// UnionPlan unifies disjunction branches (the ∪ mapping).
type UnionPlan struct {
	Branches []PlanNode
	// All branches share one canonical output schema by construction —
	// the union compatibility the mapping demands (§4.1).
}

// Aliases implements PlanNode: a disjunction match carries one branch's
// constituents; the canonical layout is branch-local, so the union exposes
// no stable alias positions.
func (u *UnionPlan) Aliases() []string { return nil }

// Kids implements PlanNode.
func (u *UnionPlan) Kids() []PlanNode { return u.Branches }

// Describe implements PlanNode.
func (u *UnionPlan) Describe() string { return fmt.Sprintf("Union (%d branches)", len(u.Branches)) }

// AggregatePlan is the O2 mapping of iteration: a sliding window count
// aggregation emitting one approximate result tuple per window with at
// least M relevant events (§4.3.2).
type AggregatePlan struct {
	Scan      *ScanPlan
	M         int
	Unbounded bool
	Window    sea.Window
	// KeyAttr partitions the count under O3: the attribute of the
	// iteration's pairwise equality e[i].attr == e[i+1].attr; "" for none.
	KeyAttr string
}

// Aliases implements PlanNode.
func (a *AggregatePlan) Aliases() []string { return []string{a.Scan.Alias} }

// Kids implements PlanNode.
func (a *AggregatePlan) Kids() []PlanNode { return []PlanNode{a.Scan} }

// Describe implements PlanNode.
func (a *AggregatePlan) Describe() string {
	cmp := "=="
	if a.Unbounded {
		cmp = ">="
	}
	return fmt.Sprintf("WindowAggregate count %s %d %s", cmp, a.M, a.Window) + partitionedBy(a.KeyAttr)
}

func partitionedBy(attr string) string {
	if attr == "" {
		return ""
	}
	return " (partitioned by " + attr + ")"
}

// NextOccurrencePlan wraps a T1 scan with the negated-sequence UDF: its
// output is the T1 stream annotated with the ats attribute (§4.1).
type NextOccurrencePlan struct {
	T1     *ScanPlan
	Neg    *ScanPlan // the negated type's scan, with the blocker's filters
	Window sea.Window
	// EquiT1 holds equality conjuncts correlating the blocker with T1
	// (evaluated inside the UDF).
	EquiT1 []sea.BoolExpr
	// NegAlias is the negated alias (for predicate compilation).
	NegAlias string
	// KeyAttr partitions the UDF under O3: the common attribute of an
	// EquiT1 equality; "" for none.
	KeyAttr string
}

// Aliases implements PlanNode.
func (n *NextOccurrencePlan) Aliases() []string { return []string{n.T1.Alias} }

// Kids implements PlanNode.
func (n *NextOccurrencePlan) Kids() []PlanNode { return []PlanNode{n.T1, n.Neg} }

// Describe implements PlanNode.
func (n *NextOccurrencePlan) Describe() string {
	return fmt.Sprintf("NextOccurrence ¬%s after %s within %s", n.Neg.TypeName, n.T1.Alias, n.Window) + partitionedBy(n.KeyAttr)
}

// CEPPlan is the baseline mapping: the whole pattern in one unary NFA
// operator applied to the union of all sources (the FCEP approach the paper
// evaluates against).
type CEPPlan struct {
	Prog    *nfa.Program
	Sources []*ScanPlan // unfiltered: FCEP evaluates all selections inside the NFA
	Keyed   bool
}

// Aliases implements PlanNode.
func (c *CEPPlan) Aliases() []string { return nil }

// Kids implements PlanNode.
func (c *CEPPlan) Kids() []PlanNode {
	out := make([]PlanNode, len(c.Sources))
	for i, s := range c.Sources {
		out[i] = s
	}
	return out
}

// Describe implements PlanNode.
func (c *CEPPlan) Describe() string {
	return fmt.Sprintf("CEP-NFA (%d stages, %s, unary operator on unioned input)", len(c.Prog.Stages), c.Prog.Policy)
}

// Explain renders the plan tree, one node per line.
func (p *Plan) Explain() string {
	var b strings.Builder
	name := p.Pattern.Name
	if name == "" {
		name = "(unnamed)"
	}
	fmt.Fprintf(&b, "-- %s plan for pattern %s\n", p.Opts, name)
	var walk func(n PlanNode, depth int)
	walk = func(n PlanNode, depth int) {
		b.WriteString(strings.Repeat("  ", depth))
		b.WriteString(n.Describe())
		b.WriteByte('\n')
		for _, k := range n.Kids() {
			walk(k, depth+1)
		}
	}
	walk(p.Root, 0)
	return b.String()
}
