package sea

import (
	"fmt"
	"strings"
	"testing"
)

// TestAnalyzeClassifiesEachConjunctOnce is the contract every consumer of
// Analyze relies on: each top-level conjunct appears once, in WHERE order,
// with its sorted aliases, its class, the alias it is placed on and its
// equality tag.
func TestAnalyzeClassifiesEachConjunctOnce(t *testing.T) {
	type conj struct{ expr, class, on, aliases, equi string }
	cases := []struct {
		name, src string
		want      []conj
		unary     map[string]string // alias -> Conjoin(Unary(alias))
	}{
		{
			name: "SEQ",
			src:  `PATTERN SEQ(ANA a, ANB b) WHERE a.value > 5 AND a.id == b.id AND b.value <= a.value WITHIN 5 MIN`,
			want: []conj{
				{"a.value > 5", "unary", "a", "a", ""},
				{"a.id == b.id", "join", "", "a b", "a.id == b.id"},
				{"b.value <= a.value", "join", "", "a b", ""},
			},
			unary: map[string]string{"a": "a.value > 5", "b": "TRUE"},
		},
		{
			name: "AND",
			src:  `PATTERN AND(ANA a, ANB b) WHERE b.value < 3 AND b.lon == a.lat WITHIN 5 MIN`,
			want: []conj{
				{"b.value < 3", "unary", "b", "b", ""},
				{"b.lon == a.lat", "join", "", "a b", "b.lon == a.lat"},
			},
		},
		{
			name: "OR",
			src:  `PATTERN OR(ANA a, ANB b) WHERE (b.value > 1 OR a.value > 1) AND a.value > 2 WITHIN 5 MIN`,
			want: []conj{
				{"(b.value > 1 OR a.value > 1)", "join", "", "a b", ""},
				{"a.value > 2", "unary", "a", "a", ""},
			},
		},
		{
			name: "ITER",
			src:  `PATTERN ITER(ANV v, 3) WHERE v.value <= 1.6 AND v[i].id == v[i+1].id AND v[i].value < v[i+1].value WITHIN 5 MIN`,
			want: []conj{
				{"v.value <= 1.6", "unary", "v", "v", ""},
				{"v[i].id == v[i+1].id", "pairwise", "v", "v", "v[i].id == v[i+1].id"},
				{"v[i].value < v[i+1].value", "pairwise", "v", "v", ""},
			},
			unary: map[string]string{"v": "v.value <= 1.6"},
		},
		{
			name: "NSEQ",
			src:  `PATTERN SEQ(ANA a, !ANX x, ANB b) WHERE x.value > 40 AND x.id == a.id AND a.id == b.id WITHIN 5 MIN`,
			want: []conj{
				{"x.value > 40", "negation", "x", "x", ""},
				{"x.id == a.id", "negation", "x", "a x", "x.id == a.id"},
				{"a.id == b.id", "join", "", "a b", "a.id == b.id"},
			},
			unary: map[string]string{"x": "x.value > 40", "a": "TRUE"},
		},
		{
			name: "constants",
			src:  `PATTERN SEQ(ANA a, ANB b) WHERE 1 < 2 AND a.value > 0 AND FALSE WITHIN 5 MIN`,
			want: []conj{
				{"1 < 2", "unary", "", "", ""},
				{"a.value > 0", "unary", "a", "a", ""},
				{"NOT TRUE", "unary", "", "", ""},
			},
			unary: map[string]string{"a": "((1 < 2 AND a.value > 0) AND NOT TRUE)", "b": "(1 < 2 AND NOT TRUE)"},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			an, err := Analyze(mustParse(t, tc.src))
			if err != nil {
				t.Fatal(err)
			}
			if len(an.Conjuncts) != len(tc.want) {
				t.Fatalf("%d conjuncts, want %d: %v", len(an.Conjuncts), len(tc.want), an.Conjuncts)
			}
			for i, c := range an.Conjuncts {
				got := conj{c.Expr.String(), c.Class.String(), c.On, strings.Join(c.Aliases, " "), ""}
				if c.Equi != nil {
					got.equi = fmt.Sprintf("%s == %s", c.Equi.L, c.Equi.R)
				}
				if got != tc.want[i] {
					t.Errorf("conjunct %d = %+v, want %+v", i, got, tc.want[i])
				}
			}
			for alias, want := range tc.unary {
				if got := Conjoin(an.Unary(alias)).String(); got != want {
					t.Errorf("Unary(%s) = %s, want %s", alias, got, want)
				}
			}
		})
	}
}

func TestKeyAttr(t *testing.T) {
	tests := []struct {
		src  string
		want string
	}{
		{`PATTERN SEQ(TEA a, TEB b) WHERE a.id == b.id WITHIN 5 MIN`, "id"},
		{`PATTERN SEQ(TEA a, TEB b, TEC c) WHERE a.id == b.id AND b.id == c.id WITHIN 5 MIN`, "id"},
		{`PATTERN SEQ(TEA a, TEB b, TEC c) WHERE a.id == b.id WITHIN 5 MIN`, ""},
		{`PATTERN SEQ(TEA a, TEB b) WITHIN 5 MIN`, ""},
		{`PATTERN ITER(TEV v, 3) WHERE v[i].id == v[i+1].id WITHIN 5 MIN`, "id"},
		{`PATTERN ITER(TEV v, 3) WHERE v[i].lat == v[i+1].lat WITHIN 5 MIN`, "lat"},
		{`PATTERN SEQ(TEA a, !TEX x, TEB b) WHERE a.id == x.id AND a.id == b.id WITHIN 5 MIN`, "id"},
	}
	for _, tc := range tests {
		an, err := Analyze(mustParse(t, tc.src))
		if err != nil {
			t.Fatal(err)
		}
		if got := an.KeyAttr(); got != tc.want {
			t.Errorf("KeyAttr(%q) = %q, want %q", tc.src, got, tc.want)
		}
	}
}
