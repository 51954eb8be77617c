package sea

import (
	"fmt"

	"cep2asp/internal/event"
)

// Layout maps pattern aliases to positions in a composite match's
// constituent slice. Translators fix a layout when they decompose a pattern
// into operators, allowing predicates to be compiled once into closures that
// index directly into the match.
type Layout map[string]int

// Predicate is a compiled boolean predicate over the constituents of a
// (partial) match.
type Predicate func(events []event.Event) bool

// PairPredicate is a compiled predicate over two consecutive iteration
// constituents (e[i], e[i+1]).
type PairPredicate func(a, b event.Event) bool

// CompileBool compiles e against the given layout. Every alias referenced by
// e must be present in the layout and no iteration-indexed references may
// appear (compile those with CompilePair). The returned closure performs no
// allocation.
func CompileBool(e BoolExpr, layout Layout) (Predicate, error) {
	switch v := e.(type) {
	case TrueExpr:
		return func([]event.Event) bool { return true }, nil
	case And:
		l, err := CompileBool(v.L, layout)
		if err != nil {
			return nil, err
		}
		r, err := CompileBool(v.R, layout)
		if err != nil {
			return nil, err
		}
		return func(es []event.Event) bool { return l(es) && r(es) }, nil
	case Or:
		l, err := CompileBool(v.L, layout)
		if err != nil {
			return nil, err
		}
		r, err := CompileBool(v.R, layout)
		if err != nil {
			return nil, err
		}
		return func(es []event.Event) bool { return l(es) || r(es) }, nil
	case Not:
		inner, err := CompileBool(v.E, layout)
		if err != nil {
			return nil, err
		}
		return func(es []event.Event) bool { return !inner(es) }, nil
	case Cmp:
		l, err := compileNum(v.L, layout)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(v.R, layout)
		if err != nil {
			return nil, err
		}
		return compileCmp(v.Op, l, r), nil
	default:
		return nil, fmt.Errorf("sea: cannot compile expression %T", e)
	}
}

type numFn func(events []event.Event) float64

func compileCmp(op CmpOp, l, r numFn) Predicate {
	switch op {
	case CmpEQ:
		return func(es []event.Event) bool { return l(es) == r(es) }
	case CmpNE:
		return func(es []event.Event) bool { return l(es) != r(es) }
	case CmpLT:
		return func(es []event.Event) bool { return l(es) < r(es) }
	case CmpLE:
		return func(es []event.Event) bool { return l(es) <= r(es) }
	case CmpGT:
		return func(es []event.Event) bool { return l(es) > r(es) }
	case CmpGE:
		return func(es []event.Event) bool { return l(es) >= r(es) }
	}
	return func([]event.Event) bool { return false }
}

func compileNum(e NumExpr, layout Layout) (numFn, error) {
	switch v := e.(type) {
	case NumLit:
		val := v.V
		return func([]event.Event) float64 { return val }, nil
	case AttrRef:
		if v.Index != IndexNone {
			return nil, fmt.Errorf("sea: indexed reference %s outside iteration context", v)
		}
		pos, ok := layout[v.Alias]
		if !ok {
			return nil, fmt.Errorf("sea: alias %q not in layout", v.Alias)
		}
		attr := v.Attr
		// Resolve the attribute accessor once, at compile time.
		if _, ok := (event.Event{}).Attr(attr); !ok {
			return nil, fmt.Errorf("sea: unknown attribute %q", attr)
		}
		return func(es []event.Event) float64 {
			val, _ := es[pos].Attr(attr)
			return val
		}, nil
	case Arith:
		l, err := compileNum(v.L, layout)
		if err != nil {
			return nil, err
		}
		r, err := compileNum(v.R, layout)
		if err != nil {
			return nil, err
		}
		switch v.Op {
		case OpAdd:
			return func(es []event.Event) float64 { return l(es) + r(es) }, nil
		case OpSub:
			return func(es []event.Event) float64 { return l(es) - r(es) }, nil
		case OpMul:
			return func(es []event.Event) float64 { return l(es) * r(es) }, nil
		case OpDiv:
			return func(es []event.Event) float64 { return l(es) / r(es) }, nil
		}
	}
	return nil, fmt.Errorf("sea: cannot compile numeric expression %T", e)
}

// CompilePair compiles an iteration predicate referencing alias[i] and
// alias[i+1] into a closure over the consecutive pair. Plain (unindexed)
// references are rejected; mix per-event thresholds and pairwise constraints
// as separate conjuncts instead.
func CompilePair(e BoolExpr, alias string) (PairPredicate, error) {
	pred, err := CompileAdjacent(e, alias)
	if err != nil {
		return nil, err
	}
	return func(a, b event.Event) bool {
		return pred([]event.Event{a, b})
	}, nil
}

// CompileAdjacent is CompilePair for a caller that already holds the pair
// side by side: the predicate reads the two-element slice {alias[i],
// alias[i+1]} and so needs no slice built per call.
func CompileAdjacent(e BoolExpr, alias string) (Predicate, error) {
	return CompileBool(rewriteIndexed(e, alias), Layout{pairSlotI: 0, pairSlotNext: 1})
}

// Internal alias names used when lowering indexed references onto a
// two-element layout.
const (
	pairSlotI    = "\x00i"
	pairSlotNext = "\x00i+1"
)

func rewriteIndexed(e BoolExpr, alias string) BoolExpr {
	switch v := e.(type) {
	case And:
		return And{L: rewriteIndexed(v.L, alias), R: rewriteIndexed(v.R, alias)}
	case Or:
		return Or{L: rewriteIndexed(v.L, alias), R: rewriteIndexed(v.R, alias)}
	case Not:
		return Not{E: rewriteIndexed(v.E, alias)}
	case Cmp:
		return Cmp{Op: v.Op, L: rewriteIndexedNum(v.L, alias), R: rewriteIndexedNum(v.R, alias)}
	}
	return e
}

func rewriteIndexedNum(e NumExpr, alias string) NumExpr {
	switch v := e.(type) {
	case AttrRef:
		if v.Alias != alias {
			return v
		}
		switch v.Index {
		case IndexI:
			return AttrRef{Alias: pairSlotI, Attr: v.Attr}
		case IndexNext:
			return AttrRef{Alias: pairSlotNext, Attr: v.Attr}
		}
		return v
	case Arith:
		return Arith{Op: v.Op, L: rewriteIndexedNum(v.L, alias), R: rewriteIndexedNum(v.R, alias)}
	}
	return e
}

// EvalPartial evaluates e under a partial binding using Kleene three-valued
// logic: conjuncts whose aliases are not all bound are unknown, and an
// unknown top-level result is treated as satisfied (vacuously true). The
// reference semantics uses this for disjunction branches, where only a
// subset of the pattern's aliases is bound (§3.2, disjunction).
func EvalPartial(e BoolExpr, bind map[string]event.Event) bool {
	v := evalTri(e, bind)
	return v != triFalse
}

type tri int

const (
	triFalse tri = iota
	triTrue
	triUnknown
)

func evalTri(e BoolExpr, bind map[string]event.Event) tri {
	switch v := e.(type) {
	case TrueExpr:
		return triTrue
	case And:
		l, r := evalTri(v.L, bind), evalTri(v.R, bind)
		if l == triFalse || r == triFalse {
			return triFalse
		}
		if l == triUnknown || r == triUnknown {
			return triUnknown
		}
		return triTrue
	case Or:
		l, r := evalTri(v.L, bind), evalTri(v.R, bind)
		if l == triTrue || r == triTrue {
			return triTrue
		}
		if l == triUnknown || r == triUnknown {
			return triUnknown
		}
		return triFalse
	case Not:
		switch evalTri(v.E, bind) {
		case triTrue:
			return triFalse
		case triFalse:
			return triTrue
		default:
			return triUnknown
		}
	case Cmp:
		l, lok := evalNumPartial(v.L, bind)
		r, rok := evalNumPartial(v.R, bind)
		if !lok || !rok {
			return triUnknown
		}
		var res bool
		switch v.Op {
		case CmpEQ:
			res = l == r
		case CmpNE:
			res = l != r
		case CmpLT:
			res = l < r
		case CmpLE:
			res = l <= r
		case CmpGT:
			res = l > r
		case CmpGE:
			res = l >= r
		}
		if res {
			return triTrue
		}
		return triFalse
	}
	return triUnknown
}

func evalNumPartial(e NumExpr, bind map[string]event.Event) (float64, bool) {
	switch v := e.(type) {
	case NumLit:
		return v.V, true
	case AttrRef:
		if v.Index != IndexNone {
			// Pairwise iteration constraints are evaluated separately
			// against consecutive constituents; here they are unknown.
			return 0, false
		}
		ev, ok := bind[v.Alias]
		if !ok {
			return 0, false
		}
		val, ok := ev.Attr(v.Attr)
		return val, ok
	case Arith:
		l, lok := evalNumPartial(v.L, bind)
		r, rok := evalNumPartial(v.R, bind)
		if !lok || !rok {
			return 0, false
		}
		switch v.Op {
		case OpAdd:
			return l + r, true
		case OpSub:
			return l - r, true
		case OpMul:
			return l * r, true
		case OpDiv:
			return l / r, true
		}
	}
	return 0, false
}
