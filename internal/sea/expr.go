// Package sea implements the Simple Event Algebra (SEA) of the paper's §3:
// the pattern AST (sequence, conjunction, disjunction, iteration, negated
// sequence, selection, projection, window), a SASE+-style declarative
// pattern specification language (Listing 1), a predicate expression
// language for WHERE clauses, and an executable encoding of the formal
// set-based operator semantics (Eqs. 9-14) used as a correctness oracle.
package sea

import (
	"fmt"
	"strings"
)

// IndexKind distinguishes plain alias references (e.value) from the indexed
// references used inside iteration patterns, where a predicate constrains
// consecutive constituents: e[i].value < e[i+1].value (paper §5.2.2,
// ITER_2's "constraint between subsequent events").
type IndexKind int

const (
	IndexNone IndexKind = iota // e.attr
	IndexI                     // e[i].attr
	IndexNext                  // e[i+1].attr
)

// CmpOp is a comparison operator in a predicate.
type CmpOp int

const (
	CmpEQ CmpOp = iota
	CmpNE
	CmpLT
	CmpLE
	CmpGT
	CmpGE
)

func (op CmpOp) String() string {
	switch op {
	case CmpEQ:
		return "=="
	case CmpNE:
		return "!="
	case CmpLT:
		return "<"
	case CmpLE:
		return "<="
	case CmpGT:
		return ">"
	case CmpGE:
		return ">="
	}
	return "?"
}

// ArithOp is an arithmetic operator inside numeric expressions.
type ArithOp int

const (
	OpAdd ArithOp = iota
	OpSub
	OpMul
	OpDiv
)

func (op ArithOp) String() string {
	switch op {
	case OpAdd:
		return "+"
	case OpSub:
		return "-"
	case OpMul:
		return "*"
	case OpDiv:
		return "/"
	}
	return "?"
}

// NumExpr is a numeric-valued expression node. The unexported marker method
// keeps the numeric and boolean expression kinds distinct at the type level,
// so the parser can reject ill-typed clauses like "a.value AND 3".
type NumExpr interface {
	fmt.Stringer
	numExpr()
}

// BoolExpr is a boolean-valued expression node. WHERE clauses are BoolExprs.
type BoolExpr interface {
	fmt.Stringer
	boolExpr()
}

// NumLit is a numeric literal.
type NumLit struct{ V float64 }

func (n NumLit) String() string { return trimFloat(n.V) }
func (NumLit) numExpr()         {}

// AttrRef references an attribute of a bound event: alias.attr, optionally
// indexed for iteration predicates.
type AttrRef struct {
	Alias string
	Attr  string
	Index IndexKind
}

func (a AttrRef) String() string {
	switch a.Index {
	case IndexI:
		return a.Alias + "[i]." + a.Attr
	case IndexNext:
		return a.Alias + "[i+1]." + a.Attr
	}
	return a.Alias + "." + a.Attr
}

func (AttrRef) numExpr() {}

// Arith combines two numeric expressions.
type Arith struct {
	Op   ArithOp
	L, R NumExpr
}

func (a Arith) String() string {
	return "(" + a.L.String() + " " + a.Op.String() + " " + a.R.String() + ")"
}
func (Arith) numExpr() {}

// Cmp compares two numeric expressions, producing a boolean.
type Cmp struct {
	Op   CmpOp
	L, R NumExpr
}

func (c Cmp) String() string { return c.L.String() + " " + c.Op.String() + " " + c.R.String() }
func (Cmp) boolExpr()        {}

// And is a boolean conjunction.
type And struct{ L, R BoolExpr }

func (a And) String() string { return "(" + a.L.String() + " AND " + a.R.String() + ")" }
func (And) boolExpr()        {}

// Or is a boolean disjunction.
type Or struct{ L, R BoolExpr }

func (o Or) String() string { return "(" + o.L.String() + " OR " + o.R.String() + ")" }
func (Or) boolExpr()        {}

// Not negates a boolean expression.
type Not struct{ E BoolExpr }

func (n Not) String() string { return "NOT " + n.E.String() }
func (Not) boolExpr()        {}

// TrueExpr is the neutral predicate; an absent WHERE clause parses to it.
type TrueExpr struct{}

func (TrueExpr) String() string { return "TRUE" }
func (TrueExpr) boolExpr()      {}

// Conjoin rebuilds a conjunction from parts; an empty list yields TrueExpr.
func Conjoin(parts []BoolExpr) BoolExpr {
	if len(parts) == 0 {
		return TrueExpr{}
	}
	e := parts[0]
	for _, p := range parts[1:] {
		e = And{L: e, R: p}
	}
	return e
}

func trimFloat(v float64) string {
	s := fmt.Sprintf("%g", v)
	return strings.TrimSuffix(s, ".0")
}
