package sea

import (
	"fmt"

	"cep2asp/internal/event"
)

// Layout maps pattern aliases to positions in a composite match's
// constituent slice. Translators fix a layout when they decompose a pattern
// into operators, allowing predicates to be compiled once into closures that
// index directly into the match. The slots of an iteration pair are named
// alias[i] and alias[i+1] (CompileAdjacent).
type Layout map[string]int

// Predicate is a compiled boolean predicate over the constituents of a
// (partial) match.
type Predicate func(events []event.Event) bool

// CompileBool compiles e against the given layout. Every alias referenced by
// e must be present in the layout, and an iteration-indexed reference only
// resolves against a pair layout (compile those with CompileAdjacent). The
// returned closure performs no allocation.
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
		// An indexed reference names its slot of a pair layout.
		pos, ok := layout[v.Alias+[...]string{IndexI: "[i]", IndexNext: "[i+1]"}[v.Index]]
		if !ok && v.Index != IndexNone {
			return nil, fmt.Errorf("sea: indexed reference %s outside iteration context", v)
		}
		if !ok {
			return nil, fmt.Errorf("sea: alias %q not in layout", v.Alias)
		}
		// Resolve the attribute accessor once, at compile time.
		f, ok := event.Accessor(v.Attr)
		if !ok {
			return nil, fmt.Errorf("sea: unknown attribute %q", v.Attr)
		}
		return func(es []event.Event) float64 { return f.Of(&es[pos]) }, nil
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

// CompileAdjacent compiles an iteration predicate referencing alias[i] and
// alias[i+1] into a predicate over the two-element slice {alias[i],
// alias[i+1]}: a caller holding the pair side by side, or copying it into a
// scratch pair it owns, needs no slice built per call. Plain (unindexed)
// references are rejected; mix per-event thresholds and pairwise
// constraints as separate conjuncts instead.
func CompileAdjacent(e BoolExpr, alias string) (Predicate, error) {
	return CompileBool(e, Layout{alias + "[i]": 0, alias + "[i+1]": 1})
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
		ev, bound := bind[v.Alias]
		f, known := event.Accessor(v.Attr)
		if !bound || !known {
			return 0, false
		}
		return f.Of(&ev), true
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
