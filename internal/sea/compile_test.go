package sea

import (
	"testing"
	"testing/quick"

	"cep2asp/internal/event"
)

// ref, refI and refNext build the references alias.attr, alias[i].attr and
// alias[i+1].attr; lit builds a numeric literal.
func ref(alias, attr string) AttrRef     { return AttrRef{Alias: alias, Attr: attr} }
func refI(alias, attr string) AttrRef    { return AttrRef{Alias: alias, Attr: attr, Index: IndexI} }
func refNext(alias, attr string) AttrRef { return AttrRef{Alias: alias, Attr: attr, Index: IndexNext} }
func lit(v float64) NumLit               { return NumLit{V: v} }

func TestCompileBoolBasic(t *testing.T) {
	// q.value >= 100 AND v.value <= 30
	expr := And{
		L: Cmp{Op: CmpGE, L: ref("q", "value"), R: lit(100)},
		R: Cmp{Op: CmpLE, L: ref("v", "value"), R: lit(30)},
	}
	pred, err := CompileBool(expr, Layout{"q": 0, "v": 1})
	if err != nil {
		t.Fatal(err)
	}
	tests := []struct {
		q, v float64
		want bool
	}{
		{100, 30, true},
		{99, 30, false},
		{100, 31, false},
		{150, 10, true},
	}
	for _, tc := range tests {
		got := pred([]event.Event{{Value: tc.q}, {Value: tc.v}})
		if got != tc.want {
			t.Errorf("pred(q=%g, v=%g) = %v, want %v", tc.q, tc.v, got, tc.want)
		}
	}
}

func TestCompileArithmeticAndOps(t *testing.T) {
	// (a.value + 1) * 2 - 4 / 2 != a.id  ... exercises every arith op.
	expr := Cmp{
		Op: CmpNE,
		L: Arith{Op: OpSub,
			L: Arith{Op: OpMul, L: Arith{Op: OpAdd, L: ref("a", "value"), R: lit(1)}, R: lit(2)},
			R: Arith{Op: OpDiv, L: lit(4), R: lit(2)},
		},
		R: ref("a", "id"),
	}
	pred, err := CompileBool(expr, Layout{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	// (3+1)*2-2 = 6; id=6 -> equal -> NE false
	if pred([]event.Event{{Value: 3, ID: 6}}) {
		t.Error("NE returned true for equal values")
	}
	if !pred([]event.Event{{Value: 3, ID: 7}}) {
		t.Error("NE returned false for unequal values")
	}
}

func TestCompileOrNot(t *testing.T) {
	expr := Or{
		L: Not{E: Cmp{Op: CmpGT, L: ref("a", "value"), R: lit(5)}},
		R: Cmp{Op: CmpEQ, L: ref("a", "id"), R: lit(9)},
	}
	pred, err := CompileBool(expr, Layout{"a": 0})
	if err != nil {
		t.Fatal(err)
	}
	if !pred([]event.Event{{Value: 3, ID: 0}}) { // NOT(3>5) = true
		t.Error("want true via NOT branch")
	}
	if !pred([]event.Event{{Value: 10, ID: 9}}) { // id==9
		t.Error("want true via OR branch")
	}
	if pred([]event.Event{{Value: 10, ID: 1}}) {
		t.Error("want false")
	}
}

func TestCompileMissingAlias(t *testing.T) {
	_, err := CompileBool(Cmp{Op: CmpGT, L: ref("zz", "value"), R: lit(1)}, Layout{"a": 0})
	if err == nil {
		t.Fatal("CompileBool accepted alias missing from layout")
	}
}

func TestCompileIndexedOutsideIter(t *testing.T) {
	_, err := CompileBool(Cmp{Op: CmpLT, L: refI("e", "value"), R: lit(1)}, Layout{"e": 0})
	if err == nil {
		t.Fatal("CompileBool accepted indexed reference")
	}
}

func TestCompileAdjacentIncreasing(t *testing.T) {
	// e[i].value < e[i+1].value — the paper's ITER_2 constraint.
	expr := Cmp{Op: CmpLT, L: refI("e", "value"), R: refNext("e", "value")}
	pred, err := CompileAdjacent(expr, "e")
	if err != nil {
		t.Fatal(err)
	}
	if !pred([]event.Event{{Value: 1}, {Value: 2}}) {
		t.Error("1 < 2 should hold")
	}
	if pred([]event.Event{{Value: 2}, {Value: 2}}) {
		t.Error("2 < 2 should not hold")
	}
}

func TestCompileAdjacentMixedRefs(t *testing.T) {
	// A pairwise predicate can also mention other plain aliases... but
	// those must be rejected since CompileAdjacent only has the pair layout.
	expr := Cmp{Op: CmpLT, L: refI("e", "value"), R: ref("q", "value")}
	if _, err := CompileAdjacent(expr, "e"); err == nil {
		t.Fatal("CompileAdjacent accepted a foreign plain alias")
	}
}

func TestEvalPartialVacuous(t *testing.T) {
	// Conjuncts over unbound aliases are vacuously satisfied.
	expr := And{
		L: Cmp{Op: CmpGT, L: ref("a", "value"), R: lit(5)},
		R: Cmp{Op: CmpGT, L: ref("b", "value"), R: lit(5)},
	}
	bind := map[string]event.Event{"a": {Value: 10}}
	if !EvalPartial(expr, bind) {
		t.Error("partial binding should satisfy vacuously")
	}
	bind["a"] = event.Event{Value: 1}
	if EvalPartial(expr, bind) {
		t.Error("bound false conjunct must fail")
	}
}

func TestEvalPartialOrShortCircuit(t *testing.T) {
	// true OR unknown = true; false OR unknown = unknown -> treated true.
	expr := Or{
		L: Cmp{Op: CmpGT, L: ref("a", "value"), R: lit(5)},
		R: Cmp{Op: CmpGT, L: ref("b", "value"), R: lit(5)},
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 10}}) {
		t.Error("true OR unknown should be true")
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 1}}) {
		t.Error("false OR unknown is unknown, treated as satisfied")
	}
	// Fully bound false.
	if EvalPartial(expr, map[string]event.Event{"a": {Value: 1}, "b": {Value: 1}}) {
		t.Error("false OR false should fail")
	}
}

func TestEvalPartialNot(t *testing.T) {
	expr := Not{E: Cmp{Op: CmpGT, L: ref("a", "value"), R: lit(5)}}
	if EvalPartial(expr, map[string]event.Event{"a": {Value: 10}}) {
		t.Error("NOT true should be false")
	}
	if !EvalPartial(expr, map[string]event.Event{"a": {Value: 1}}) {
		t.Error("NOT false should be true")
	}
	// NOT unknown stays unknown -> satisfied.
	if !EvalPartial(expr, map[string]event.Event{}) {
		t.Error("NOT unknown should be treated as satisfied")
	}
}

// Property: for fully bound single-alias comparisons, compiled evaluation and
// partial evaluation agree.
func TestCompiledMatchesPartialProperty(t *testing.T) {
	ops := []CmpOp{CmpEQ, CmpNE, CmpLT, CmpLE, CmpGT, CmpGE}
	f := func(value float64, lit float64, opIdx uint8) bool {
		op := ops[int(opIdx)%len(ops)]
		expr := Cmp{Op: op, L: ref("a", "value"), R: NumLit{V: lit}}
		pred, err := CompileBool(expr, Layout{"a": 0})
		if err != nil {
			return false
		}
		e := event.Event{Value: value}
		return pred([]event.Event{e}) == EvalPartial(expr, map[string]event.Event{"a": e})
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

// TestEquiPair pins the equality tag Analyze gives a conjunct.
func TestEquiPair(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(ITER(EQQ q, 2), EQV v) WITHIN 5 MIN`)
	equi := func(e BoolExpr) (*Equality, error) {
		p.Where = e
		an, err := Analyze(p)
		if err != nil {
			return nil, err
		}
		return an.Conjuncts[0].Equi, nil
	}
	eq, err := equi(Cmp{Op: CmpEQ, L: ref("q", "id"), R: ref("v", "id")})
	if err != nil || eq == nil || *eq != (Equality{L: ref("q", "id"), R: ref("v", "id")}) {
		t.Fatalf("q.id == v.id: equality %v, err %v", eq, err)
	}
	// Not equi: different ops, same alias, literals, indexed refs.
	for _, e := range []BoolExpr{
		Cmp{Op: CmpLT, L: ref("q", "id"), R: ref("v", "id")},
		Cmp{Op: CmpEQ, L: ref("q", "id"), R: ref("q", "value")},
		Cmp{Op: CmpEQ, L: ref("q", "id"), R: lit(5)},
		Cmp{Op: CmpEQ, L: refI("q", "id"), R: refNext("q", "value")},
	} {
		if eq, err := equi(e); err != nil || eq != nil {
			t.Errorf("%s: equality %v, err %v; want none", e, eq, err)
		}
	}
	if eq, err := equi(Cmp{Op: CmpEQ, L: refI("q", "id"), R: ref("v", "id")}); err == nil || eq != nil {
		t.Errorf("indexed ref equated with another alias: equality %v, err %v; want rejected", eq, err)
	}
	// The pairwise equality of an iteration is one, in either order.
	for _, e := range []BoolExpr{
		Cmp{Op: CmpEQ, L: refI("q", "id"), R: refNext("q", "id")},
		Cmp{Op: CmpEQ, L: refNext("q", "id"), R: refI("q", "id")},
	} {
		if eq, err := equi(e); err != nil || eq == nil || eq.L.Attr != "id" || eq.R.Alias != "q" {
			t.Errorf("%s: equality %v, err %v", e, eq, err)
		}
	}
}

func TestConjunctsConjoinRoundTrip(t *testing.T) {
	a := Cmp{Op: CmpGT, L: ref("x", "value"), R: lit(1)}
	b := Cmp{Op: CmpLT, L: ref("y", "value"), R: lit(2)}
	c := Cmp{Op: CmpEQ, L: ref("x", "id"), R: ref("y", "id")}
	p := mustParse(t, `PATTERN SEQ(RTX x, RTY y) WITHIN 5 MIN`)
	p.Where = Conjoin([]BoolExpr{a, b, c})
	an, err := Analyze(p)
	if err != nil {
		t.Fatal(err)
	}
	if len(an.Conjuncts) != 3 || an.Conjuncts[0].Expr != a || an.Conjuncts[1].Expr != b || an.Conjuncts[2].Expr != c {
		t.Fatalf("Analyze split %s into %v, want its 3 parts in order", p.Where, an.Conjuncts)
	}
	p.Where = TrueExpr{}
	if an, _ := Analyze(p); len(an.Conjuncts) != 0 {
		t.Fatal("Analyze(TRUE) should have no conjuncts")
	}
	if _, ok := Conjoin(nil).(TrueExpr); !ok {
		t.Fatal("Conjoin(nil) should be TRUE")
	}
}

func TestAliasesSorted(t *testing.T) {
	e := And{
		L: Cmp{Op: CmpGT, L: ref("zeta", "value"), R: lit(1)},
		R: Cmp{Op: CmpGT, L: ref("alpha", "value"), R: ref("zeta", "value")},
	}
	got := refsOf(e).aliases
	if len(got) != 2 || got[0] != "alpha" || got[1] != "zeta" {
		t.Fatalf("aliases = %v", got)
	}
}
