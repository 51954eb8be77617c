package sea

import (
	"slices"

	"cep2asp/internal/event"
)

// Class says where the operator mapping places a WHERE conjunct: the
// operator at which all its aliases are first bound (§4).
type Class int

const (
	// Unary conjuncts test one event alone: a scan filter below the joins,
	// the accept of an NFA stage. Constant conjuncts (no alias) are unary
	// too, for every alias at once.
	Unary Class = iota
	// Pairwise conjuncts constrain consecutive constituents e[i], e[i+1] of
	// one iteration alias: the θ predicate of its self joins.
	Pairwise
	// Negation conjuncts touch a negated alias: the blocker filter of the
	// negated sequence's next-occurrence UDF.
	Negation
	// Join conjuncts relate several positive aliases: a θ predicate of the
	// first join binding them all.
	Join
)

func (c Class) String() string {
	return [...]string{"unary", "pairwise", "negation", "join"}[c]
}

// Equality is an attribute equality L == R, the shape that can key an
// operator (O3): between two aliases (a.x == b.y), or between consecutive
// constituents of one iteration alias on one attribute (e[i].x == e[i+1].x).
type Equality struct{ L, R AttrRef }

// Conjunct is one top-level conjunct of a WHERE clause with its placement.
type Conjunct struct {
	Expr    BoolExpr
	Aliases []string // sorted
	Class   Class
	// On is the alias the conjunct is placed on: the tested alias of a
	// unary conjunct, the iteration alias of a pairwise one, the first
	// negated alias of a negation one; empty for joins and constants.
	On string
	// Equi is set when the conjunct is an Equality.
	Equi *Equality
}

// Analysis is the one classification of a pattern's WHERE clause that the
// translator, the builder, the NFA compiler, the optimizer and the
// validator all read. The reference semantics deliberately does not.
type Analysis struct {
	Conjuncts []Conjunct // in WHERE order
	positive  []string   // positive aliases, in pattern order
}

// Analyze walks the WHERE clause once and classifies each conjunct. It
// returns a *ValidationError for references Validate rejects: unknown
// aliases and attributes, indexed references outside one iteration alias,
// and negated aliases correlated other than by an equality.
func Analyze(p *Pattern) (Analysis, error) {
	var an Analysis
	leaves := make(map[string]*EventLeaf)
	for _, l := range p.Leaves() {
		leaves[l.Alias] = l
		if !l.Negated {
			an.positive = append(an.positive, l.Alias)
		}
	}
	iter := make(map[string]bool)
	iterationAliases(p.Root, iter)

	for _, e := range conjuncts(p.Where) {
		r := refsOf(e)
		c := Conjunct{Expr: e, Aliases: r.aliases, Equi: equality(e)}
		for _, a := range r.aliases {
			l, ok := leaves[a]
			if !ok {
				return Analysis{}, invalidf("WHERE references unknown alias %q", a)
			}
			if l.Negated && c.Class != Negation {
				c.Class, c.On = Negation, a
			}
		}
		if r.unknownAttr != "" {
			return Analysis{}, invalidf("WHERE references unknown attribute %q", r.unknownAttr)
		}
		switch {
		case r.indexed:
			for _, a := range r.aliases {
				if !iter[a] {
					return Analysis{}, invalidf("indexed reference on %q, which is not an iteration alias", a)
				}
			}
			if len(r.aliases) != 1 {
				return Analysis{}, invalidf("indexed predicates must reference a single iteration alias, got %v", r.aliases)
			}
			c.Class, c.On = Pairwise, r.aliases[0]
		case c.Class == Negation:
			// Only per-event predicates and equalities are expressible in
			// the NSEQ next-occurrence UDF (§4.1, Negated Sequence).
			if len(r.aliases) > 1 && c.Equi == nil {
				return Analysis{}, invalidf("predicate %s correlates negated alias %q with other events; only per-event predicates and attribute equalities are supported on negated elements", e, c.On)
			}
		case len(r.aliases) > 1:
			c.Class = Join
		case len(r.aliases) == 1:
			c.On = r.aliases[0]
		}
		an.Conjuncts = append(an.Conjuncts, c)
	}
	return an, nil
}

// Unary returns the conjuncts that test one event of alias alone, in WHERE
// order: the scan filters of its leaf (a negated leaf's included) and the
// accept of its NFA stages. Constant conjuncts are in every alias' list.
func (an Analysis) Unary(alias string) []BoolExpr {
	var out []BoolExpr
	for _, c := range an.Conjuncts {
		if len(c.Aliases) == 0 || (len(c.Aliases) == 1 && c.Aliases[0] == alias && c.Class != Pairwise) {
			out = append(out, c.Expr)
		}
	}
	return out
}

// KeyAttr returns the attribute by which the whole pattern can be
// partitioned: equalities on that one attribute connect every positive
// alias, an iteration alias through e[i].attr == e[i+1].attr (the paper
// keys by sensor id, §5.2.3). Returns "" when no such attribute exists.
func (an Analysis) KeyAttr() string {
	var attrs []string
	covered := make(map[string]map[string]bool) // attr -> aliases covered
	for _, c := range an.Conjuncts {
		if c.Equi == nil || c.Equi.L.Attr != c.Equi.R.Attr {
			continue
		}
		attr := c.Equi.L.Attr
		if covered[attr] == nil {
			attrs = append(attrs, attr)
			covered[attr] = make(map[string]bool)
		}
		covered[attr][c.Equi.L.Alias] = true
		covered[attr][c.Equi.R.Alias] = true
	}
next:
	for _, attr := range attrs {
		for _, a := range an.positive {
			if !covered[attr][a] {
				continue next
			}
		}
		return attr
	}
	return ""
}

// equality returns e as an Equality, or nil when it has another shape.
func equality(e BoolExpr) *Equality {
	c, ok := e.(Cmp)
	if !ok || c.Op != CmpEQ {
		return nil
	}
	l, lok := c.L.(AttrRef)
	r, rok := c.R.(AttrRef)
	switch {
	case !lok || !rok:
		return nil
	case l.Index == IndexNone && r.Index == IndexNone && l.Alias != r.Alias:
	case l.Index != IndexNone && r.Index != IndexNone && l.Index != r.Index && l.Alias == r.Alias && l.Attr == r.Attr:
	default:
		return nil
	}
	return &Equality{L: l, R: r}
}

// refs is what one walk over an expression finds.
type refs struct {
	aliases     []string // sorted, distinct
	indexed     bool     // some reference is e[i] or e[i+1]
	unknownAttr string   // the first attribute the event schema lacks
}

func refsOf(e BoolExpr) refs {
	var r refs
	var num func(NumExpr)
	num = func(n NumExpr) {
		switch v := n.(type) {
		case AttrRef:
			if i, found := slices.BinarySearch(r.aliases, v.Alias); !found {
				r.aliases = slices.Insert(r.aliases, i, v.Alias)
			}
			r.indexed = r.indexed || v.Index != IndexNone
			if _, ok := event.Accessor(v.Attr); !ok && r.unknownAttr == "" {
				r.unknownAttr = v.Attr
			}
		case Arith:
			num(v.L)
			num(v.R)
		}
	}
	var walk func(BoolExpr)
	walk = func(b BoolExpr) {
		switch v := b.(type) {
		case Cmp:
			num(v.L)
			num(v.R)
		case And:
			walk(v.L)
			walk(v.R)
		case Or:
			walk(v.L)
			walk(v.R)
		case Not:
			walk(v.E)
		}
	}
	walk(e)
	return r
}

// conjuncts flattens nested Ands into the list of top-level conjuncts.
func conjuncts(e BoolExpr) []BoolExpr {
	if _, ok := e.(TrueExpr); ok {
		return nil
	}
	if a, ok := e.(And); ok {
		return append(conjuncts(a.L), conjuncts(a.R)...)
	}
	return []BoolExpr{e}
}

func iterationAliases(n Node, set map[string]bool) {
	if it, ok := n.(*IterNode); ok {
		set[it.Leaf.Alias] = true
	}
	for _, c := range children(n) {
		iterationAliases(c, set)
	}
}
