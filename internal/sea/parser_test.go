package sea

import (
	"strings"
	"testing"

	"cep2asp/internal/event"
)

func mustParse(t *testing.T, src string) *Pattern {
	t.Helper()
	p, err := Parse(src)
	if err != nil {
		t.Fatalf("Parse(%q): %v", src, err)
	}
	return p
}

func TestParseListing2(t *testing.T) {
	// The paper's Listing 2 example, in our surface syntax.
	p := mustParse(t, `
		PATTERN SEQ(T1 e1, T2 e2, T3 e3)
		WHERE e1.value <= e2.value AND e3.value <= 10
		WITHIN 4 MINUTES`)
	seq, ok := p.Root.(*SeqNode)
	if !ok {
		t.Fatalf("root is %T, want *SeqNode", p.Root)
	}
	if len(seq.Children) != 3 {
		t.Fatalf("SEQ has %d children, want 3", len(seq.Children))
	}
	if p.Window.Size != 4*event.Minute {
		t.Fatalf("window size = %d, want %d", p.Window.Size, 4*event.Minute)
	}
	if p.Window.Slide != event.Minute {
		t.Fatalf("default slide = %d, want one minute", p.Window.Slide)
	}
	conjs := conjuncts(p.Where)
	if len(conjs) != 2 {
		t.Fatalf("WHERE has %d conjuncts, want 2", len(conjs))
	}
}

func TestParseNestedSeqFlattens(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(T1 a, SEQ(T2 b, T3 c)) WITHIN 1 MINUTE`)
	seq := p.Root.(*SeqNode)
	if len(seq.Children) != 3 {
		t.Fatalf("nested SEQ did not flatten: %d children", len(seq.Children))
	}
}

func TestParseNestedAndOrFlatten(t *testing.T) {
	p := mustParse(t, `PATTERN AND(T1 a, AND(T2 b, T3 c)) WITHIN 1 MINUTE`)
	if n := p.Root.(*AndNode); len(n.Children) != 3 {
		t.Fatalf("nested AND did not flatten: %d children", len(n.Children))
	}
	p = mustParse(t, `PATTERN OR(T1 a, OR(T2 b, T3 c)) WITHIN 1 MINUTE`)
	if n := p.Root.(*OrNode); len(n.Children) != 3 {
		t.Fatalf("nested OR did not flatten: %d children", len(n.Children))
	}
}

func TestParseMixedNestingPreserved(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(T1 a, AND(T2 b, T3 c)) WITHIN 1 MINUTE`)
	seq := p.Root.(*SeqNode)
	if len(seq.Children) != 2 {
		t.Fatalf("SEQ(a, AND(b,c)) flattened wrongly: %d children", len(seq.Children))
	}
	if _, ok := seq.Children[1].(*AndNode); !ok {
		t.Fatalf("second child is %T, want *AndNode", seq.Children[1])
	}
}

func TestParseNegatedSequence(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(T1 a, !T2 b, T3 c) WITHIN 10 MINUTES`)
	seq := p.Root.(*SeqNode)
	leaf, ok := seq.Children[1].(*EventLeaf)
	if !ok || !leaf.Negated {
		t.Fatalf("middle child = %v, want negated leaf", seq.Children[1])
	}
	// NOT keyword spelling.
	p = mustParse(t, `PATTERN SEQ(T1 a, NOT T2 b, T3 c) WITHIN 10 MINUTES`)
	if !p.Root.(*SeqNode).Children[1].(*EventLeaf).Negated {
		t.Fatal("NOT spelling not recognized")
	}
}

func TestParseIter(t *testing.T) {
	p := mustParse(t, `PATTERN ITER(V v, 3) WHERE v[i].value < v[i+1].value WITHIN 15 MINUTES`)
	it := p.Root.(*IterNode)
	if it.M != 3 || it.Unbounded {
		t.Fatalf("ITER = m%d unbounded=%v, want m=3 bounded", it.M, it.Unbounded)
	}
	p = mustParse(t, `PATTERN ITER(V v, 5+) WITHIN 15 MINUTES`)
	it = p.Root.(*IterNode)
	if it.M != 5 || !it.Unbounded {
		t.Fatalf("ITER = m%d unbounded=%v, want m=5 unbounded", it.M, it.Unbounded)
	}
}

func TestParseReturnClause(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN 15 MINUTES RETURN q.id, v.value AS speed`)
	if len(p.Return) != 2 {
		t.Fatalf("RETURN has %d items, want 2", len(p.Return))
	}
	if p.Return[1].As != "speed" {
		t.Fatalf("AS = %q, want speed", p.Return[1].As)
	}
	// RETURN * is the default.
	p = mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN 15 MINUTES RETURN *`)
	if len(p.Return) != 0 {
		t.Fatal("RETURN * should yield empty projection list")
	}
}

func TestParseSlide(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN 15 MINUTES SLIDE 30 SECONDS`)
	if p.Window.Slide != 30*event.Second {
		t.Fatalf("slide = %d, want %d", p.Window.Slide, 30*event.Second)
	}
}

func TestBuildDefaultSlide(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN 10 MINUTES`)
	if p.Window.Slide != event.Minute {
		t.Fatalf("default slide = %d", p.Window.Slide)
	}
	// Sub-minute windows clamp the one-minute default slide.
	p = mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN 30 SECONDS`)
	if p.Window.Slide != 30*event.Second {
		t.Fatalf("clamped slide = %d, want window size", p.Window.Slide)
	}
}

func TestParseDurationUnits(t *testing.T) {
	tests := []struct {
		src  string
		want event.Time
	}{
		{"500 MS", 500},
		{"2 SECONDS", 2 * event.Second},
		{"1 MIN", event.Minute},
		{"3 HOURS", 3 * event.Hour},
	}
	for _, tc := range tests {
		p := mustParse(t, `PATTERN SEQ(Q q, V v) WITHIN `+tc.src)
		if p.Window.Size != tc.want {
			t.Errorf("WITHIN %s = %d, want %d", tc.src, p.Window.Size, tc.want)
		}
	}
}

func TestParsePredicatePrecedence(t *testing.T) {
	p := mustParse(t, `PATTERN AND(Q q, V v) WHERE q.value + 2 * 3 >= 10 AND v.value < 5 OR v.value > 100 WITHIN 1 MIN`)
	// OR binds loosest: (A AND B) OR C.
	or, ok := p.Where.(Or)
	if !ok {
		t.Fatalf("top = %T, want Or", p.Where)
	}
	if _, ok := or.L.(And); !ok {
		t.Fatalf("left of OR = %T, want And", or.L)
	}
	// 2*3 binds tighter than +.
	and := or.L.(And)
	cmp := and.L.(Cmp)
	arith, ok := cmp.L.(Arith)
	if !ok || arith.Op != OpAdd {
		t.Fatalf("left of >= is %v, want addition", cmp.L)
	}
	if inner, ok := arith.R.(Arith); !ok || inner.Op != OpMul {
		t.Fatalf("right addend %v, want multiplication", arith.R)
	}
}

func TestParseParenthesizedBool(t *testing.T) {
	p := mustParse(t, `PATTERN AND(Q q, V v) WHERE (q.value > 1 OR v.value > 2) AND q.id == v.id WITHIN 1 MIN`)
	and, ok := p.Where.(And)
	if !ok {
		t.Fatalf("top = %T, want And", p.Where)
	}
	if _, ok := and.L.(Or); !ok {
		t.Fatalf("left = %T, want Or", and.L)
	}
}

func TestParseComments(t *testing.T) {
	mustParse(t, `
		-- congestion pattern
		PATTERN SEQ(Q q, V v) -- two streams
		WITHIN 15 MINUTES`)
}

func TestParseErrors(t *testing.T) {
	tests := []struct {
		name string
		src  string
		want string // substring of the error
	}{
		{"missing PATTERN", `SEQ(T1 a, T2 b) WITHIN 1 MIN`, "PATTERN"},
		{"missing WITHIN", `PATTERN SEQ(T1 a, T2 b)`, "WITHIN"},
		{"one element", `PATTERN SEQ(T1 a) WITHIN 1 MIN`, "at least two"},
		{"neg first", `PATTERN SEQ(!T1 a, T2 b) WITHIN 1 MIN`, "first or last"},
		{"neg last", `PATTERN SEQ(T1 a, !T2 b) WITHIN 1 MIN`, "first or last"},
		{"neg in AND", `PATTERN AND(T1 a, !T2 b) WITHIN 1 MIN`, "negation"},
		{"neg alone", `PATTERN NOT T1 a WITHIN 1 MIN`, "negation"},
		{"dup alias", `PATTERN SEQ(T1 a, T2 a) WITHIN 1 MIN`, "alias"},
		{"unknown alias", `PATTERN SEQ(T1 a, T2 b) WHERE c.value > 1 WITHIN 1 MIN`, "unknown alias"},
		{"bad iter count", `PATTERN ITER(T1 a, 0) WITHIN 1 MIN`, "positive integer"},
		{"indexed non-iter", `PATTERN SEQ(T1 a, T2 b) WHERE a[i].value < a[i+1].value WITHIN 1 MIN`, "iteration alias"},
		{"slide gt size", `PATTERN SEQ(T1 a, T2 b) WITHIN 1 MIN SLIDE 2 MIN`, "slide"},
		{"bool arith", `PATTERN SEQ(T1 a, T2 b) WHERE a.value AND 3 > 1 WITHIN 1 MIN`, "boolean"},
		{"cmp of bool", `PATTERN SEQ(T1 a, T2 b) WHERE (a.value > 1) > 2 WITHIN 1 MIN`, "numeric"},
		{"trailing", `PATTERN SEQ(T1 a, T2 b) WITHIN 1 MIN garbage garbage`, "trailing"},
		{"bad unit", `PATTERN SEQ(T1 a, T2 b) WITHIN 1 FORTNIGHT`, "unit"},
		{"unknown attr", `PATTERN SEQ(T1 a, T2 b) WHERE a.nope > 1 WITHIN 1 MIN`, ""},
		{"neg cross pred", `PATTERN SEQ(T1 a, !T2 b, T3 c) WHERE b.value > a.value WITHIN 1 MIN`, "negated"},
		{"consecutive neg", `PATTERN SEQ(T1 a, !T2 b, !T3 c, T4 d) WITHIN 1 MIN`, "consecutive"},
		{"return negated", `PATTERN SEQ(T1 a, !T2 b, T3 c) WITHIN 1 MIN RETURN b.value`, "negated"},
		{"return unknown", `PATTERN SEQ(T1 a, T2 b) WITHIN 1 MIN RETURN z.value`, "unknown"},
	}
	for _, tc := range tests {
		t.Run(tc.name, func(t *testing.T) {
			_, err := Parse(tc.src)
			if err == nil {
				t.Fatalf("Parse(%q) succeeded, want error", tc.src)
			}
			if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
				t.Fatalf("error %q does not mention %q", err, tc.want)
			}
		})
	}
}

// "unknown attr" is a compile-time rather than parse-time failure in some
// paths; make sure CompileBool rejects it.
func TestCompileUnknownAttr(t *testing.T) {
	_, err := CompileBool(Cmp{Op: CmpGT, L: AttrRef{Alias: "a", Attr: "nope"}, R: NumLit{V: 1}}, Layout{"a": 0})
	if err == nil {
		t.Fatal("CompileBool accepted unknown attribute")
	}
}

func TestPatternStringRoundTrip(t *testing.T) {
	src := `PATTERN SEQ(T1 e1, T2 e2) WHERE e1.value <= e2.value WITHIN 4 MINUTES`
	p := mustParse(t, src)
	p2, err := Parse(p.String())
	if err != nil {
		t.Fatalf("reparse of %q: %v", p.String(), err)
	}
	if p2.String() != p.String() {
		t.Fatalf("round trip mismatch:\n%s\nvs\n%s", p.String(), p2.String())
	}
}

func TestLayout(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(T1 a, !T2 b, ITER(T3 c, 3), T4 d) WITHIN 10 MIN`)
	layout := p.Layout()
	if layout["a"] != 0 {
		t.Errorf("layout[a] = %d, want 0", layout["a"])
	}
	if _, ok := layout["b"]; ok {
		t.Error("negated alias b should not be in layout")
	}
	if layout["c"] != 1 {
		t.Errorf("layout[c] = %d, want 1", layout["c"])
	}
	if layout["d"] != 4 {
		t.Errorf("layout[d] = %d, want 4 (after 3 iteration slots)", layout["d"])
	}
}

func TestSyntaxErrorPosition(t *testing.T) {
	_, err := Parse("PATTERN SEQ(BTA a,\n  %% b) WITHIN 1 MIN")
	se, ok := err.(*SyntaxError)
	if !ok {
		t.Fatalf("err = %T (%v), want *SyntaxError", err, err)
	}
	if se.Line != 2 {
		t.Fatalf("error line = %d, want 2", se.Line)
	}
}

func TestLexerNumberForms(t *testing.T) {
	for _, src := range []string{
		`PATTERN SEQ(BTA a, BTB b) WHERE a.value > 1.5e2 WITHIN 1 MIN`,
		`PATTERN SEQ(BTA a, BTB b) WHERE a.value > .5 WITHIN 1 MIN`,
		`PATTERN SEQ(BTA a, BTB b) WHERE a.value > -3 WITHIN 1 MIN`,
	} {
		if _, err := Parse(src); err != nil {
			t.Errorf("Parse(%q): %v", src, err)
		}
	}
}

func TestUnaryMinusEvaluates(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(BTA a, BTB b) WHERE a.value > -3 WITHIN 1 MIN`)
	pred, err := CompileBool(p.Where, Layout{"a": 0, "b": 1})
	if err != nil {
		t.Fatal(err)
	}
	if !pred([]event.Event{{Value: 0}, {}}) {
		t.Fatal("0 > -3 should hold")
	}
	if pred([]event.Event{{Value: -5}, {}}) {
		t.Fatal("-5 > -3 should not hold")
	}
}

func TestPositiveLeaves(t *testing.T) {
	p := mustParse(t, `PATTERN SEQ(T1 a, !T2 b, T3 c) WITHIN 10 MIN`)
	pos := p.PositiveLeaves()
	if len(pos) != 2 || pos[0].Alias != "a" || pos[1].Alias != "c" {
		t.Fatalf("PositiveLeaves = %v", pos)
	}
	if all := p.Leaves(); len(all) != 3 {
		t.Fatalf("Leaves = %d, want 3", len(all))
	}
}
