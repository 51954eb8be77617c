package core

import (
	"fmt"
	"sort"

	"cep2asp/internal/cep"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// Translate maps a SEA pattern into an ASP operator plan following Table 1,
// with the selected optimizations applied. The resulting plan decomposes
// the pattern workload into filters, joins, unions and aggregations, each
// an independent pipeline stage (§1, §4).
//
// Predicate placement reads sea.Analyze's classes: unary conjuncts are
// pushed into the scans (including per-constituent thresholds on iteration
// aliases, which hold universally); pairwise ones become θ predicates of
// the self joins; negation ones run in the next-occurrence UDF; join ones
// attach to the first join binding all their aliases. Conjuncts spanning
// disjunction branches are never fully bound and hold vacuously — matching
// the reference semantics' three-valued treatment.
func Translate(p *sea.Pattern, opts Options) (*Plan, error) {
	if opts.statsErr != nil {
		// Fail-fast: Advise recorded invalid stream statistics; building a
		// plan from them would silently misprice every decision.
		return nil, opts.statsErr
	}
	if opts.Parallelism <= 0 {
		opts.Parallelism = 1
	}
	an, err := sea.Analyze(p)
	if err != nil {
		return nil, err
	}
	t := &translator{pat: p, an: an, opts: opts, ordered: make(map[string]map[string]bool)}
	for _, c := range an.Conjuncts {
		if c.Class == sea.Join {
			t.joinPreds = append(t.joinPreds, &pendingPred{Conjunct: c})
		}
	}

	// Disjunction distributes outward so every union branch is OR-free:
	// SEQ(A, OR(B, C)) ≡ OR(SEQ(A, B), SEQ(A, C)). Each branch translates
	// independently; the top-level union is the ∪ mapping of Table 1.
	alts := orFree(p.Root)
	for _, alt := range alts {
		t.collectOrder(alt)
	}
	var roots []PlanNode
	for _, alt := range alts {
		t.resetForBranch()
		s, err := t.node(alt, true)
		if err != nil {
			return nil, err
		}
		if pend := t.unassignedAux(); pend != "" {
			return nil, fmt.Errorf("core: negated-sequence selection for alias %q was never bound", pend)
		}
		if j, ok := s.node.(*JoinPlan); ok {
			j.PerWindow = true
		}
		roots = append(roots, s.node)
	}
	root := roots[0]
	if len(roots) > 1 {
		root = &UnionPlan{Branches: roots}
	}
	return &Plan{Pattern: p, Root: root, Opts: opts}, nil
}

// orFree expands a pattern structure into OR-free alternatives by
// distributing disjunction over sequence and conjunction.
func orFree(n sea.Node) []sea.Node {
	switch v := n.(type) {
	case *sea.EventLeaf, *sea.IterNode:
		return []sea.Node{n}
	case *sea.OrNode:
		var out []sea.Node
		for _, c := range v.Children {
			out = append(out, orFree(c)...)
		}
		return out
	case *sea.SeqNode:
		return distribute(v.Children, func(cs []sea.Node) sea.Node { return &sea.SeqNode{Children: cs} })
	case *sea.AndNode:
		return distribute(v.Children, func(cs []sea.Node) sea.Node { return &sea.AndNode{Children: cs} })
	}
	return []sea.Node{n}
}

func distribute(children []sea.Node, rebuild func([]sea.Node) sea.Node) []sea.Node {
	combos := [][]sea.Node{nil}
	for _, c := range children {
		alts := orFree(c)
		var next [][]sea.Node
		for _, combo := range combos {
			for _, a := range alts {
				row := make([]sea.Node, len(combo)+1)
				copy(row, combo)
				row[len(combo)] = a
				next = append(next, row)
			}
		}
		combos = next
	}
	out := make([]sea.Node, len(combos))
	for i, combo := range combos {
		out[i] = rebuild(combo)
	}
	return out
}

// resetForBranch clears per-branch predicate assignments so each
// disjunction alternative binds its own copy of the shared conjuncts.
func (t *translator) resetForBranch() {
	for _, pp := range t.joinPreds {
		pp.assigned = false
	}
	t.aux = nil
}

type pendingPred struct {
	sea.Conjunct
	assigned bool
}

type pendingAux struct {
	t1Alias  string
	rights   []string
	assigned bool
}

type translator struct {
	pat  *sea.Pattern
	an   sea.Analysis
	opts Options

	joinPreds []*pendingPred
	aux       []*pendingAux

	// ordered[a][b]: every constituent of alias a occurs strictly before
	// every constituent of alias b (sequence siblings).
	ordered map[string]map[string]bool
}

type sub struct {
	node    PlanNode
	aliases []string
	freq    float64
}

// collectOrder derives the strict temporal-order relation between aliases
// from the pattern structure: children of a sequence are pairwise ordered.
func (t *translator) collectOrder(n sea.Node) []string {
	switch v := n.(type) {
	case *sea.EventLeaf:
		if v.Negated {
			return nil
		}
		return []string{v.Alias}
	case *sea.IterNode:
		return []string{v.Leaf.Alias}
	case *sea.SeqNode:
		var all []string
		var groups [][]string
		for _, c := range v.Children {
			g := t.collectOrder(c)
			groups = append(groups, g)
			all = append(all, g...)
		}
		for i := 0; i < len(groups); i++ {
			for j := i + 1; j < len(groups); j++ {
				for _, a := range groups[i] {
					for _, b := range groups[j] {
						if t.ordered[a] == nil {
							t.ordered[a] = make(map[string]bool)
						}
						t.ordered[a][b] = true
					}
				}
			}
		}
		return all
	case *sea.AndNode:
		var all []string
		for _, c := range v.Children {
			all = append(all, t.collectOrder(c)...)
		}
		return all
	case *sea.OrNode:
		var all []string
		for _, c := range v.Children {
			all = append(all, t.collectOrder(c)...)
		}
		return all
	}
	return nil
}

func (t *translator) scan(l *sea.EventLeaf) *ScanPlan {
	return &ScanPlan{
		TypeName: l.TypeName,
		Type:     l.Type,
		Alias:    l.Alias,
		Filters:  t.an.Unary(l.Alias),
	}
}

func (t *translator) freq(typeName string) float64 {
	if t.opts.Frequencies == nil {
		return 0
	}
	return t.opts.Frequencies[typeName]
}

func (t *translator) node(n sea.Node, root bool) (*sub, error) {
	switch v := n.(type) {
	case *sea.EventLeaf:
		if v.Negated {
			return nil, fmt.Errorf("core: negated leaf %q outside sequence translation", v.Alias)
		}
		return &sub{node: t.scan(v), aliases: []string{v.Alias}, freq: t.freq(v.TypeName)}, nil
	case *sea.IterNode:
		return t.iter(v, root)
	case *sea.SeqNode:
		return t.nary(v.Children, true)
	case *sea.AndNode:
		return t.nary(v.Children, false)
	case *sea.OrNode:
		return nil, fmt.Errorf("core: disjunction should have been distributed outward before node translation")
	}
	return nil, fmt.Errorf("core: unknown pattern node %T", n)
}

// iter maps ITER_m: under O2 (or for unbounded iterations) a window count
// aggregation; otherwise a chain of m-1 θ self joins (Table 1).
func (t *translator) iter(v *sea.IterNode, root bool) (*sub, error) {
	alias := v.Leaf.Alias
	if v.Unbounded && !t.opts.UseAggregation {
		return nil, fmt.Errorf("core: unbounded iteration of %q requires optimization O2 (aggregation); the θ self-join mapping supports exact m only (§4.3.2)", alias)
	}
	// The pairwise equality e[i].attr == e[i+1].attr keys the iteration
	// (O3): all constituents then share the attribute.
	var pairs []sea.BoolExpr
	keyAttr := ""
	for _, c := range t.an.Conjuncts {
		if c.Class != sea.Pairwise || c.On != alias {
			continue
		}
		pairs = append(pairs, c.Expr)
		if c.Equi != nil && keyAttr == "" && t.opts.UsePartitioning {
			keyAttr = c.Equi.L.Attr
		}
	}
	if t.opts.UseAggregation {
		if !root {
			return nil, fmt.Errorf("core: O2 aggregation applies to top-level iterations only; nested iteration of %q needs the self-join mapping", alias)
		}
		return &sub{
			node: &AggregatePlan{
				Scan:      t.scan(v.Leaf),
				M:         v.M,
				Unbounded: v.Unbounded,
				Window:    t.pat.Window,
				KeyAttr:   keyAttr,
			},
			aliases: []string{alias},
			freq:    t.freq(v.Leaf.TypeName),
		}, nil
	}

	var pairPred sea.BoolExpr
	if len(pairs) > 0 {
		pairPred = sea.Conjoin(pairs)
	}

	acc := &sub{node: t.scan(v.Leaf), aliases: []string{alias}, freq: t.freq(v.Leaf.TypeName)}
	for k := 1; k < v.M; k++ {
		join := &JoinPlan{
			Interval:  t.opts.UseIntervalJoin,
			Left:      acc.node,
			Right:     t.scan(v.Leaf),
			Ordered:   true,
			Window:    t.pat.Window,
			Orders:    []OrderPair{{Before: k - 1, After: k}},
			PairPred:  pairPred,
			PairAlias: alias,
		}
		if keyAttr != "" {
			join.Equi = &EquiSpec{LeftPos: 0, LeftAttr: keyAttr, RightPos: 0, RightAttr: keyAttr}
		}
		acc = &sub{node: join, aliases: append(acc.aliases, alias), freq: acc.freq}
	}
	// M == 1 degenerates to a single occurrence: the scan alone.
	return acc, nil
}

// nary builds the join tree for a sequence or conjunction. With frequency
// estimates and no negation, children join in ascending frequency order —
// the manual reordering the decomposition enables (§4.2.2, §5.1.2) — as a
// left-deep chain; under Options.CostBasedJoins the tree is instead built
// greedily cheapest-pair-first, which yields bushy/balanced shapes where
// they are cheaper. The temporal-order
// constraints are enforced through θ predicates computed from original
// pattern positions, so any join order is semantically equivalent.
func (t *translator) nary(children []sea.Node, seq bool) (*sub, error) {
	_ = seq // order constraints derive from collectOrder, not from here
	var elems []seqElement
	for _, c := range children {
		if leaf, ok := c.(*sea.EventLeaf); ok && leaf.Negated {
			if len(elems) == 0 {
				return nil, fmt.Errorf("core: negation of %q has no preceding element", leaf.Alias)
			}
			elems[len(elems)-1].neg = leaf
			continue
		}
		elems = append(elems, seqElement{node: c})
	}

	hasNeg := false
	subs := make([]*sub, len(elems))
	for i, el := range elems {
		var s *sub
		var err error
		if el.neg != nil {
			hasNeg = true
			s, err = t.negated(el, elems, i)
		} else {
			s, err = t.node(el.node, false)
		}
		if err != nil {
			return nil, err
		}
		subs[i] = s
	}

	if !hasNeg && t.opts.CostBasedJoins && len(subs) > 1 {
		return t.greedyTree(subs)
	}

	order := make([]int, len(subs))
	for i := range order {
		order[i] = i
	}
	if !hasNeg && t.opts.Frequencies != nil {
		sort.SliceStable(order, func(a, b int) bool { return subs[order[a]].freq < subs[order[b]].freq })
	}

	acc := subs[order[0]]
	for _, i := range order[1:] {
		var err error
		acc, err = t.join(acc, subs[i])
		if err != nil {
			return nil, err
		}
	}
	return acc, nil
}

// greedyTree builds a cost-based join tree: repeatedly join the pair of
// remaining sub-plans whose estimated output cardinality is smallest
// (ties: earliest pattern positions, keeping the construction
// deterministic). Flattened sequences are associative (§3.2), so any
// pairing is legal; the greedy choice re-balances nested SEQ(A, SEQ(B, C))
// shapes into whatever tree the estimates favour.
func (t *translator) greedyTree(subs []*sub) (*sub, error) {
	cost := joinCost(t.pat.Window.Size)
	pool := append([]*sub{}, subs...)
	for len(pool) > 1 {
		bi, bj := 0, 1
		best := cost(pool[0].freq, pool[1].freq)
		for i := 0; i < len(pool); i++ {
			for j := i + 1; j < len(pool); j++ {
				if c := cost(pool[i].freq, pool[j].freq); c < best {
					best, bi, bj = c, i, j
				}
			}
		}
		joined, err := t.join(pool[bi], pool[bj])
		if err != nil {
			return nil, err
		}
		joined.freq = best
		pool[bi] = joined
		pool = append(pool[:bj], pool[bj+1:]...)
	}
	return pool[0], nil
}

// joinCost prices a two-way sliding window join from its input rates: with
// l and r effective events per minute and a window of W minutes, every
// right event meets l*W left candidates, so the output rate is l * r * W
// per minute (§3.1.4's per-window cross product, amortized). Unknown rates
// (<= 0) are priced at one event per minute, keeping them neutral rather
// than free.
func joinCost(window event.Time) func(left, right float64) float64 {
	wmin := float64(window) / float64(event.Minute)
	if wmin <= 0 {
		wmin = 1
	}
	return func(left, right float64) float64 {
		if left <= 0 {
			left = 1
		}
		if right <= 0 {
			right = 1
		}
		return left * right * wmin
	}
}

// seqElement pairs a positive sequence element with the negation that
// immediately follows it, if any.
type seqElement struct {
	node sea.Node
	neg  *sea.EventLeaf
}

// negated wraps the element preceding a negation into the next-occurrence
// UDF plan and registers the deferred ats selection against the following
// element (§4.1, Negated Sequence).
func (t *translator) negated(el seqElement, elems []seqElement, i int) (*sub, error) {
	t1Leaf, ok := el.node.(*sea.EventLeaf)
	if !ok || t1Leaf.Negated {
		return nil, fmt.Errorf("core: negation of %q must directly follow a positive event element; composite left neighbours are not expressible in the next-occurrence UDF", el.neg.Alias)
	}
	if i+1 >= len(elems) {
		return nil, fmt.Errorf("core: negation of %q has no following element", el.neg.Alias)
	}
	// Split the negated alias' predicates: per-event thresholds filter the
	// blocker stream (its scan); equalities with the T1 alias run inside the
	// UDF, and under O3 one on a common attribute keys it.
	var equiT1 []sea.BoolExpr
	keyAttr := ""
	for _, c := range t.an.Conjuncts {
		if c.Class != sea.Negation || c.On != el.neg.Alias || len(c.Aliases) == 1 {
			continue
		}
		other := c.Equi.L
		if other.Alias == el.neg.Alias {
			other = c.Equi.R
		}
		if other.Alias != t1Leaf.Alias {
			return nil, fmt.Errorf("core: predicate %s on negated alias %q must be a per-event condition or an equality with the preceding element %q", c.Expr, el.neg.Alias, t1Leaf.Alias)
		}
		equiT1 = append(equiT1, c.Expr)
		if c.Equi.L.Attr == c.Equi.R.Attr && keyAttr == "" && t.opts.UsePartitioning {
			keyAttr = c.Equi.L.Attr
		}
	}
	var rights []string
	for _, l := range elems[i+1].node.Leaves(nil) {
		if !l.Negated {
			rights = append(rights, l.Alias)
		}
	}
	t.aux = append(t.aux, &pendingAux{t1Alias: t1Leaf.Alias, rights: rights})
	plan := &NextOccurrencePlan{
		T1:       t.scan(t1Leaf),
		Neg:      t.scan(el.neg),
		Window:   t.pat.Window,
		EquiT1:   equiT1,
		NegAlias: el.neg.Alias,
		KeyAttr:  keyAttr,
	}
	return &sub{node: plan, aliases: []string{t1Leaf.Alias}, freq: t.freq(t1Leaf.TypeName)}, nil
}

// join composes two sub-plans, deciding sides, order predicates, equi keys
// and predicate assignment.
func (t *translator) join(a, b *sub) (*sub, error) {
	// Put the pattern-earlier side left so ordered interval joins can use
	// the (0, W) bounds.
	if t.allBefore(b.aliases, a.aliases) {
		a, b = b, a
	}
	combined := append(append([]string{}, a.aliases...), b.aliases...)
	pos := firstPositions(combined)

	join := &JoinPlan{
		Interval: t.opts.UseIntervalJoin,
		Left:     a.node,
		Right:    b.node,
		Ordered:  t.allBefore(a.aliases, b.aliases),
		Window:   t.pat.Window,
	}

	// Order constraints between cross constituents with a known relation.
	for i, la := range a.aliases {
		for j, rb := range b.aliases {
			switch {
			case t.ordered[la][rb]:
				join.Orders = append(join.Orders, OrderPair{Before: i, After: len(a.aliases) + j})
			case t.ordered[rb][la]:
				join.Orders = append(join.Orders, OrderPair{Before: len(a.aliases) + j, After: i})
			}
		}
	}

	// Multi-alias predicates first fully bound here.
	bound := make(map[string]bool, len(combined))
	for _, al := range combined {
		bound[al] = true
	}
	for _, pp := range t.joinPreds {
		if pp.assigned {
			continue
		}
		all := true
		for _, al := range pp.Aliases {
			if !bound[al] {
				all = false
				break
			}
		}
		if !all {
			continue
		}
		pp.assigned = true
		join.Preds = append(join.Preds, pp.Expr)
		// Equi key for O3: one side's alias on each input.
		if eq := pp.Equi; eq != nil && join.Equi == nil && t.opts.UsePartitioning {
			l, r := eq.L, eq.R
			if !containsAlias(a.aliases, l.Alias) {
				l, r = r, l
			}
			if containsAlias(a.aliases, l.Alias) && containsAlias(b.aliases, r.Alias) {
				join.Equi = &EquiSpec{LeftPos: indexOf(a.aliases, l.Alias), LeftAttr: l.Attr, RightPos: indexOf(b.aliases, r.Alias), RightAttr: r.Attr}
			}
		}
	}

	// Negated-sequence selections first fully bound here.
	for _, pa := range t.aux {
		if pa.assigned || !bound[pa.t1Alias] {
			continue
		}
		allRights := true
		for _, r := range pa.rights {
			if !bound[r] {
				allRights = false
				break
			}
		}
		if !allRights {
			continue
		}
		pa.assigned = true
		check := AuxCheck{T1Pos: pos[pa.t1Alias]}
		for i, al := range combined {
			for _, r := range pa.rights {
				if al == r {
					check.RightPoss = append(check.RightPoss, i)
				}
			}
		}
		join.AuxChecks = append(join.AuxChecks, check)
	}

	return &sub{node: join, aliases: combined, freq: minFreq(a.freq, b.freq)}, nil
}

func (t *translator) allBefore(as, bs []string) bool {
	if len(as) == 0 || len(bs) == 0 {
		return false
	}
	for _, a := range as {
		for _, b := range bs {
			if !t.ordered[a][b] {
				return false
			}
		}
	}
	return true
}

func (t *translator) unassignedAux() string {
	for _, pa := range t.aux {
		if !pa.assigned {
			return pa.t1Alias
		}
	}
	return ""
}

func firstPositions(aliases []string) map[string]int {
	pos := make(map[string]int, len(aliases))
	for i, a := range aliases {
		if _, ok := pos[a]; !ok {
			pos[a] = i
		}
	}
	return pos
}

func containsAlias(list []string, a string) bool {
	for _, x := range list {
		if x == a {
			return true
		}
	}
	return false
}

func indexOf(list []string, a string) int {
	for i, x := range list {
		if x == a {
			return i
		}
	}
	return -1
}

func minFreq(a, b float64) float64 {
	if a == 0 {
		return b
	}
	if b == 0 || a < b {
		return a
	}
	return b
}

// TranslateFCEP builds the baseline plan: the entire pattern as one NFA
// operator over the union of all sources, under skip-till-any-match — the
// configuration the paper benchmarks (§5.1.2).
func TranslateFCEP(p *sea.Pattern, opts Options) (*Plan, error) {
	an, err := sea.Analyze(p)
	if err != nil {
		return nil, err
	}
	var key func(event.Event) int64
	if attr := an.NFAKeyAttr(); attr != "" && opts.UsePartitioning {
		f, _ := event.Accessor(attr) // known: Analyze checked it
		key = func(e event.Event) int64 { return f.Key(&e) }
	}
	prog, err := cep.Compile(p, nfa.SkipTillAnyMatch, key)
	if err != nil {
		return nil, err
	}
	seen := make(map[event.Type]bool)
	var sources []*ScanPlan
	for _, l := range p.Leaves() {
		if seen[l.Type] {
			continue
		}
		seen[l.Type] = true
		sources = append(sources, &ScanPlan{TypeName: l.TypeName, Type: l.Type, Alias: l.Alias})
	}
	return &Plan{
		Pattern: p,
		Root:    &CEPPlan{Prog: prog, Sources: sources, Keyed: key != nil},
		Opts:    opts,
	}, nil
}
