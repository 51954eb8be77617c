package sea

import (
	"fmt"
	"sort"

	"cep2asp/internal/event"
)

// This file encodes the paper's formal operator semantics (§3.2, Eqs. 9-14)
// directly and naively: for every sliding window [tsB, tsB+W) (Eqs. 4-5) it
// enumerates the set of event combinations satisfying the pattern structure
// and predicates, then eliminates duplicates across overlapping windows.
//
// The encoding makes no attempt to be fast — it is the correctness oracle
// against which both execution paths (the decomposed ASP pipeline and the
// NFA under skip-till-any-match) are property-tested, implementing the
// semantic-equivalence notion of Negri et al. used in §4: equal output sets
// after duplicate elimination.

// Evaluate returns the deduplicated set of matches of p over the finite
// stream events, under explicit sliding windows and the
// skip-till-any-match selection policy. Events need not be sorted.
// Unbounded iterations are not supported by the oracle (their O2 mapping is
// approximate by design, §4.3.2); Evaluate panics on them to catch misuse
// in tests.
func Evaluate(p *Pattern, events []event.Event) []*event.Match {
	if hasUnbounded(p.Root) {
		panic("sea: reference semantics does not define unbounded iteration")
	}
	sorted := make([]event.Event, len(events))
	copy(sorted, events)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].TS < sorted[j].TS })

	e := &evaluator{p: p, negated: make(map[string]*EventLeaf)}
	for _, l := range p.Leaves() {
		if l.Negated {
			e.negated[l.Alias] = l
		}
	}
	e.splitWhere()

	seen := make(map[string]*event.Match)
	var out []*event.Match
	if len(sorted) == 0 {
		return nil
	}
	w, s := p.Window.Size, p.Window.Slide
	minTS, maxTS := sorted[0].TS, sorted[len(sorted)-1].TS
	// Windows [k*s, k*s+W) that intersect [minTS, maxTS].
	kLo := event.FloorDiv(minTS-w+1, s)
	kHi := event.FloorDiv(maxTS, s)
	for k := kLo; k <= kHi; k++ {
		tsB := k * s
		tsE := tsB + w
		ws := sliceWindow(sorted, tsB, tsE)
		if len(ws) == 0 {
			continue
		}
		for _, part := range e.evalNode(p.Root, ws) {
			if !e.accept(part, ws) {
				continue
			}
			m := part.toMatch()
			k := m.Key()
			if _, dup := seen[k]; dup {
				continue
			}
			seen[k] = m
			out = append(out, m)
		}
	}
	return out
}

func hasUnbounded(n Node) bool {
	if it, ok := n.(*IterNode); ok {
		return it.Unbounded
	}
	for _, c := range children(n) {
		if hasUnbounded(c) {
			return true
		}
	}
	return false
}

func sliceWindow(sorted []event.Event, tsB, tsE event.Time) []event.Event {
	lo := sort.Search(len(sorted), func(i int) bool { return sorted[i].TS >= tsB })
	hi := sort.Search(len(sorted), func(i int) bool { return sorted[i].TS >= tsE })
	return sorted[lo:hi]
}

// boundEvent is one constituent of a candidate binding.
type boundEvent struct {
	alias string
	e     event.Event
}

// negCheck defers a negation constraint: no event of leaf's type satisfying
// its predicates may occur in the open interval (after, before).
type negCheck struct {
	leaf   *EventLeaf
	after  event.Time
	before event.Time
}

// part is a (partial) binding produced by structural evaluation.
type part struct {
	order      []boundEvent
	tsB, tsE   event.Time
	negChecks  []negCheck
	pendingNeg *EventLeaf // negated leaf awaiting its right boundary
}

func (p part) toMatch() *event.Match {
	events := make([]event.Event, len(p.order))
	for i, b := range p.order {
		events[i] = b.e
	}
	return event.NewMatch(events...)
}

type evaluator struct {
	p       *Pattern
	negated map[string]*EventLeaf
	// WHERE conjuncts, split by rôle:
	positive []BoolExpr // conjuncts over positive aliases only
	negPreds []BoolExpr // conjuncts involving a negated alias
}

func (ev *evaluator) splitWhere() {
	for _, c := range conjuncts(ev.p.Where) {
		neg := false
		for _, a := range refsOf(c).aliases {
			if ev.negated[a] != nil {
				neg = true
			}
		}
		if neg {
			ev.negPreds = append(ev.negPreds, c)
		} else {
			ev.positive = append(ev.positive, c)
		}
	}
}

// evalNode enumerates the structural bindings of n over the window events ws
// (sorted by timestamp).
func (ev *evaluator) evalNode(n Node, ws []event.Event) []part {
	switch v := n.(type) {
	case *EventLeaf:
		var parts []part
		for _, e := range ws {
			if e.Type == v.Type {
				parts = append(parts, part{
					order: []boundEvent{{alias: v.Alias, e: e}},
					tsB:   e.TS, tsE: e.TS,
				})
			}
		}
		return parts
	case *IterNode:
		var ofType []event.Event
		for _, e := range ws {
			if e.Type == v.Leaf.Type {
				ofType = append(ofType, e)
			}
		}
		// All strictly increasing m-combinations (Eq. 12); ws is sorted,
		// and per-producer timestamps are discrete and increasing, so a
		// combination in index order with strictly increasing timestamps
		// is exactly what the definition demands.
		var parts []part
		combo := make([]event.Event, 0, v.M)
		var rec func(start int)
		rec = func(start int) {
			if len(combo) == v.M {
				p := part{order: make([]boundEvent, v.M), tsB: combo[0].TS, tsE: combo[v.M-1].TS}
				for i, e := range combo {
					p.order[i] = boundEvent{alias: v.Leaf.Alias, e: e}
				}
				parts = append(parts, p)
				return
			}
			for i := start; i < len(ofType); i++ {
				if len(combo) > 0 && ofType[i].TS <= combo[len(combo)-1].TS {
					continue
				}
				combo = append(combo, ofType[i])
				rec(i + 1)
				combo = combo[:len(combo)-1]
			}
		}
		rec(0)
		return parts
	case *SeqNode:
		return ev.evalSeq(v, ws)
	case *AndNode:
		parts := ev.evalNode(v.Children[0], ws)
		for _, c := range v.Children[1:] {
			next := ev.evalNode(c, ws)
			var combined []part
			for _, a := range parts {
				for _, b := range next {
					combined = append(combined, joinParts(a, b, false))
				}
			}
			parts = combined
		}
		return parts
	case *OrNode:
		var parts []part
		for _, c := range v.Children {
			parts = append(parts, ev.evalNode(c, ws)...)
		}
		return parts
	}
	panic(fmt.Sprintf("sea: evalNode: unknown node %T", n))
}

func (ev *evaluator) evalSeq(n *SeqNode, ws []event.Event) []part {
	var parts []part
	first := true
	for _, c := range n.Children {
		if leaf, ok := c.(*EventLeaf); ok && leaf.Negated {
			// Mark every current partial as awaiting the negation's right
			// boundary; the next positive child closes the interval.
			for i := range parts {
				parts[i].pendingNeg = leaf
			}
			continue
		}
		next := ev.evalNode(c, ws)
		if first {
			parts = next
			first = false
			continue
		}
		var combined []part
		for _, a := range parts {
			for _, b := range next {
				// Sequence order (Eq. 10), generalized to composite
				// components: all of a precedes all of b.
				if a.tsE >= b.tsB {
					continue
				}
				combined = append(combined, joinParts(a, b, true))
			}
		}
		parts = combined
	}
	return parts
}

// joinParts concatenates two partial bindings. When seq is true and a has a
// pending negation, the join closes the absence interval (a.tsE, b.tsB).
func joinParts(a, b part, seq bool) part {
	order := make([]boundEvent, 0, len(a.order)+len(b.order))
	order = append(order, a.order...)
	order = append(order, b.order...)
	out := part{
		order: order,
		tsB:   minTime(a.tsB, b.tsB),
		tsE:   maxTime(a.tsE, b.tsE),
	}
	out.negChecks = append(out.negChecks, a.negChecks...)
	out.negChecks = append(out.negChecks, b.negChecks...)
	if seq && a.pendingNeg != nil {
		out.negChecks = append(out.negChecks, negCheck{leaf: a.pendingNeg, after: a.tsE, before: b.tsB})
	}
	return out
}

func minTime(a, b event.Time) event.Time {
	if a < b {
		return a
	}
	return b
}

func maxTime(a, b event.Time) event.Time {
	if a > b {
		return a
	}
	return b
}

// accept applies the WHERE clause and negation checks to a complete
// structural binding.
func (ev *evaluator) accept(p part, ws []event.Event) bool {
	bind := make(map[string]event.Event, len(p.order))
	perAlias := make(map[string][]event.Event)
	for _, b := range p.order {
		if _, ok := bind[b.alias]; !ok {
			bind[b.alias] = b.e
		}
		perAlias[b.alias] = append(perAlias[b.alias], b.e)
	}

	for _, conj := range ev.positive {
		if !ev.holdsUniversally(conj, bind, perAlias) {
			return false
		}
	}

	for _, nc := range p.negChecks {
		for _, e := range ws {
			if e.Type != nc.leaf.Type {
				continue
			}
			if e.TS <= nc.after || e.TS >= nc.before {
				continue
			}
			if ev.blockerSatisfies(nc.leaf.Alias, e, bind) {
				return false // an occurrence voids the negated sequence
			}
		}
	}
	return true
}

// holdsUniversally evaluates one conjunct, universally quantified over the
// constituents of any iteration alias it references. Pairwise (indexed)
// conjuncts quantify over consecutive constituent pairs. Conjuncts touching
// aliases absent from the binding (other disjunction branches) hold
// vacuously via three-valued evaluation.
func (ev *evaluator) holdsUniversally(conj BoolExpr, bind map[string]event.Event, perAlias map[string][]event.Event) bool {
	r := refsOf(conj)
	refs := r.aliases
	if r.indexed {
		alias := refs[0]
		seq := perAlias[alias]
		if len(seq) == 0 {
			return true
		}
		pred, err := CompileAdjacent(conj, alias)
		if err != nil {
			return false
		}
		for i := 0; i+1 < len(seq); i++ {
			if !pred(seq[i : i+2]) {
				return false
			}
		}
		return true
	}
	// Universal quantification over iteration constituents: expand every
	// referenced alias that has multiple constituents.
	var multi []string
	for _, a := range refs {
		if len(perAlias[a]) > 1 {
			multi = append(multi, a)
		}
	}
	if len(multi) == 0 {
		return EvalPartial(conj, bind)
	}
	local := make(map[string]event.Event, len(bind))
	for k, v := range bind {
		local[k] = v
	}
	var rec func(i int) bool
	rec = func(i int) bool {
		if i == len(multi) {
			return EvalPartial(conj, local)
		}
		for _, e := range perAlias[multi[i]] {
			local[multi[i]] = e
			if !rec(i + 1) {
				return false
			}
		}
		return true
	}
	return rec(0)
}

// blockerSatisfies checks whether a candidate blocker event for the negated
// alias satisfies the negation predicates (per-event thresholds and equi
// correlations with bound aliases). An event failing them does not void the
// match.
func (ev *evaluator) blockerSatisfies(alias string, e event.Event, bind map[string]event.Event) bool {
	local := make(map[string]event.Event, len(bind)+1)
	for k, v := range bind {
		local[k] = v
	}
	local[alias] = e
	for _, conj := range ev.negPreds {
		touches := false
		for _, a := range refsOf(conj).aliases {
			if a == alias {
				touches = true
			}
		}
		if !touches {
			continue
		}
		if !EvalPartial(conj, local) {
			return false
		}
	}
	return true
}
