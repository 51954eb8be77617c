package core

import (
	"strings"
	"testing"
)

// Golden plan-explain tests: the rendered decomposition is user-facing (the
// cep2asp CLI prints it), so its shape is pinned here for each mapping of
// Table 1.
func TestExplainGoldens(t *testing.T) {
	cases := []struct {
		name    string
		pattern string
		opts    Options
		want    []string // substrings in order
	}{
		{
			name:    "conjunction → Cartesian product",
			pattern: `PATTERN AND(GXA a, GXB b) WITHIN 20 MINUTES`,
			want: []string{
				"-- FASP plan",
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE",
				"Scan GXA AS a",
				"Scan GXB AS b",
			},
		},
		{
			name:    "sequence → θ join with pushdown",
			pattern: `PATTERN SEQ(GXA a, GXB b) WHERE a.value > 5 WITHIN 20 MINUTES`,
			want: []string{
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered)",
				"Scan GXA AS a WHERE a.value > 5",
				"Scan GXB AS b",
			},
		},
		{
			name:    "disjunction → union",
			pattern: `PATTERN OR(GXA a, GXB b) WITHIN 20 MINUTES`,
			want: []string{
				"Union (2 branches)",
				"Scan GXA AS a",
				"Scan GXB AS b",
			},
		},
		{
			name:    "iteration → θ self joins",
			pattern: `PATTERN ITER(GXV v, 3) WITHIN 20 MINUTES`,
			want: []string{
				"WindowJoin",
				"WindowJoin",
				"Scan GXV AS v",
				"Scan GXV AS v",
				"Scan GXV AS v",
			},
		},
		{
			name:    "iteration under O2 → aggregation",
			pattern: `PATTERN ITER(GXV v, 3+) WITHIN 20 MINUTES`,
			opts:    Options{UseAggregation: true},
			want: []string{
				"-- FASP-O2 plan",
				"WindowAggregate count >= 3",
				"Scan GXV AS v",
			},
		},
		{
			name:    "negated sequence → next-occurrence UDF",
			pattern: `PATTERN SEQ(GXA a, !GXX x, GXB b) WITHIN 20 MINUTES`,
			want: []string{
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered, nseq-selection)",
				"NextOccurrence ¬GXX after a within WITHIN 20 MINUTES",
				"Scan GXA AS a",
				"Scan GXX AS x",
				"Scan GXB AS b",
			},
		},
		{
			name:    "O1+O3 → partitioned interval joins",
			pattern: `PATTERN SEQ(GXA a, GXB b) WHERE a.id == b.id WITHIN 20 MINUTES`,
			opts:    Options{UseIntervalJoin: true, UsePartitioning: true, Parallelism: 8},
			want: []string{
				"-- FASP-O1+O3 plan",
				"IntervalJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered, partitioned by [0].id==[0].id",
			},
		},
		{
			name:    "negated sequence equated with T1 → keyed UDF",
			pattern: `PATTERN SEQ(GXA a, !GXX x, GXB b) WHERE x.value > 5 AND x.id == a.id AND a.id == b.id WITHIN 20 MINUTES`,
			opts:    Options{UsePartitioning: true, Parallelism: 4},
			want: []string{
				"-- FASP-O3 plan",
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered, partitioned by [0].id==[0].id, θ: a.id == b.id, nseq-selection)",
				"NextOccurrence ¬GXX after a within WITHIN 20 MINUTES SLIDE 1 MINUTE (partitioned by id)",
				"Scan GXA AS a\n",
				"Scan GXX AS x WHERE x.value > 5",
				"Scan GXB AS b",
			},
		},
		{
			name:    "iteration keyed on a non-id attribute",
			pattern: `PATTERN ITER(GXV v, 3) WHERE v.value > 1 AND v[i].lat == v[i+1].lat WITHIN 20 MINUTES`,
			opts:    Options{UsePartitioning: true, Parallelism: 4},
			want: []string{
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered, partitioned by [0].lat==[0].lat, pairwise: v[i].lat == v[i+1].lat)",
				"WindowJoin WITHIN 20 MINUTES SLIDE 1 MINUTE (ordered, partitioned by [0].lat==[0].lat, pairwise: v[i].lat == v[i+1].lat)",
				"Scan GXV AS v WHERE v.value > 1",
				"Scan GXV AS v WHERE v.value > 1",
				"Scan GXV AS v WHERE v.value > 1",
			},
		},
		{
			name:    "iteration under O2+O3 → aggregation keyed by the pairwise attribute",
			pattern: `PATTERN ITER(GXV v, 3+) WHERE v[i].lat == v[i+1].lat WITHIN 20 MINUTES`,
			opts:    Options{UseAggregation: true, UsePartitioning: true, Parallelism: 4},
			want: []string{
				"-- FASP-O2+O3 plan",
				"WindowAggregate count >= 3 WITHIN 20 MINUTES SLIDE 1 MINUTE (partitioned by lat)",
				"Scan GXV AS v",
			},
		},
		{
			name:    "FCEP → one NFA over unioned sources",
			pattern: `PATTERN SEQ(GXA a, GXB b) WITHIN 20 MINUTES`,
			opts:    Options{},
			want: []string{
				"CEP-NFA (2 stages, skip-till-any-match, unary operator on unioned input)",
				"Scan GXA AS a",
				"Scan GXB AS b",
			},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pat := mustPattern(t, tc.pattern)
			var plan *Plan
			var err error
			if strings.HasPrefix(tc.name, "FCEP") {
				plan, err = TranslateFCEP(pat, tc.opts)
			} else {
				plan, err = Translate(pat, tc.opts)
			}
			if err != nil {
				t.Fatal(err)
			}
			text := plan.Explain()
			pos := 0
			for _, want := range tc.want {
				idx := strings.Index(text[pos:], want)
				if idx < 0 {
					t.Fatalf("Explain missing %q after offset %d:\n%s", want, pos, text)
				}
				pos += idx + len(want)
			}
		})
	}
}
