package core

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
)

func mustPattern(t *testing.T, src string) *sea.Pattern {
	t.Helper()
	p, err := sea.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func runPlan(t *testing.T, pat *sea.Pattern, opts Options, data map[event.Type][]event.Event) *asp.Results {
	t.Helper()
	plan, err := Translate(pat, opts)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	env, res, err := Build(plan, BuildConfig{
		Engine:      asp.Config{WatermarkInterval: 1},
		Data:        data,
		KeepMatches: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return res
}

func sortedKeys(ms []*event.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	sort.Strings(out)
	return out
}

func equalSets(t *testing.T, label string, oracle, got []string) {
	t.Helper()
	if len(oracle) != len(got) {
		t.Fatalf("%s: oracle has %d matches, engine %d\noracle: %v\nengine: %v", label, len(oracle), len(got), oracle, got)
	}
	for i := range oracle {
		if oracle[i] != got[i] {
			t.Fatalf("%s: mismatch at %d: %q vs %q", label, i, oracle[i], got[i])
		}
	}
}

func genStream(rng *rand.Rand, typ event.Type, n int, maxMinute int64, id int64) []event.Event {
	used := map[int64]bool{}
	var out []event.Event
	for len(out) < n {
		m := rng.Int63n(maxMinute)
		if used[m] {
			continue
		}
		used[m] = true
		out = append(out, event.Event{
			Type: typ, ID: id, TS: m * event.Minute,
			Value: float64(rng.Intn(100)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// merge combines keyed streams of one type into one time-ordered source.
func merge(streams ...[]event.Event) []event.Event {
	var all []event.Event
	for _, s := range streams {
		all = append(all, s...)
	}
	sort.Slice(all, func(i, j int) bool { return all[i].TS < all[j].TS })
	return all
}

// optionMatrix: FASP plain, O1, and each with O3 where applicable.
var optionMatrix = []Options{
	{},
	{UseIntervalJoin: true},
}

// TestTranslationEquivalence is the paper's central correctness claim (§4,
// Negri et al. semantic equivalence): for every SEA operator, the
// decomposed ASP pipeline produces the oracle's deduplicated match set,
// with and without O1.
func TestTranslationEquivalence(t *testing.T) {
	type tcase struct {
		name    string
		pattern string
		types   []string
	}
	cases := []tcase{
		{
			name: "SEQ2",
			pattern: `PATTERN SEQ(TEA a, TEB b)
				WHERE a.value <= b.value
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB"},
		},
		{
			name: "SEQ3",
			pattern: `PATTERN SEQ(TEA a, TEB b, TEC c)
				WHERE a.value <= b.value
				WITHIN 6 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB", "TEC"},
		},
		{
			name: "AND2",
			pattern: `PATTERN AND(TEA a, TEB b)
				WHERE a.value + b.value > 40
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB"},
		},
		{
			name: "OR2",
			pattern: `PATTERN OR(TEA a, TEB b)
				WHERE a.value > 30 AND b.value > 60
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB"},
		},
		{
			name: "ITER3",
			pattern: `PATTERN ITER(TEV v, 3)
				WHERE v[i].value < v[i+1].value
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEV"},
		},
		{
			name: "ITER2 threshold",
			pattern: `PATTERN ITER(TEV v, 2)
				WHERE v.value < 70
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEV"},
		},
		{
			name: "NSEQ",
			pattern: `PATTERN SEQ(TEA a, !TEX x, TEB b)
				WHERE x.value > 40
				WITHIN 8 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEX", "TEB"},
		},
		{
			// A keyed blocker: x voids only the a of its own id.
			name: "NSEQ correlated",
			pattern: `PATTERN SEQ(TEA a, !TEX x, TEB b)
				WHERE x.id == a.id AND x.value > 40
				WITHIN 8 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEX", "TEB"},
		},
		{
			name: "SEQ with AND nested",
			pattern: `PATTERN SEQ(TEA a, AND(TEB b, TEC c))
				WITHIN 6 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB", "TEC"},
		},
		{
			name: "OR nested in SEQ",
			pattern: `PATTERN SEQ(TEA a, OR(TEB b, TEC c))
				WITHIN 6 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB", "TEC"},
		},
		{
			name: "equi keyed SEQ",
			pattern: `PATTERN SEQ(TEA a, TEB b)
				WHERE a.id == b.id
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			types: []string{"TEA", "TEB"},
		},
	}
	for _, tc := range cases {
		tc := tc
		t.Run(tc.name, func(t *testing.T) {
			pat := mustPattern(t, tc.pattern)
			for trial := 0; trial < 10; trial++ {
				rng := rand.New(rand.NewSource(int64(trial)*31 + 7))
				data := make(map[event.Type][]event.Event)
				var all []event.Event
				for _, tn := range tc.types {
					typ, _ := event.LookupType(tn)
					// Two sensors per stream to exercise keying.
					s := merge(
						genStream(rng, typ, 5, 25, 1),
						genStream(rng, typ, 5, 25, 2),
					)
					data[typ] = s
					all = append(all, s...)
				}
				oracle := sortedKeys(sea.Evaluate(pat, all))
				for _, opts := range optionMatrix {
					res := runPlan(t, pat, opts, data)
					equalSets(t, tc.name+"/"+opts.String(), oracle, sortedKeys(res.Matches()))
				}
				// O3 variants: partitioning must not change the result.
				for _, opts := range []Options{
					{UsePartitioning: true, Parallelism: 4},
					{UseIntervalJoin: true, UsePartitioning: true, Parallelism: 4},
				} {
					res := runPlan(t, pat, opts, data)
					equalSets(t, tc.name+"/"+opts.String(), oracle, sortedKeys(res.Matches()))
				}
			}
		})
	}
}

func TestTranslateRejectsUnboundedWithoutO2(t *testing.T) {
	pat := mustPattern(t, `PATTERN ITER(TEV v, 3+) WITHIN 10 MIN`)
	if _, err := Translate(pat, Options{}); err == nil {
		t.Fatal("unbounded iteration without O2 should fail")
	}
	if _, err := Translate(pat, Options{UseAggregation: true}); err != nil {
		t.Fatalf("unbounded iteration with O2 should translate: %v", err)
	}
}

func TestAggregationCountsWindows(t *testing.T) {
	// O2 approximates: one output per window with count >= m.
	pat := mustPattern(t, `PATTERN ITER(TEW v, 3) WITHIN 5 MINUTES SLIDE 5 MINUTES`)
	typ, _ := event.LookupType("TEW")
	data := map[event.Type][]event.Event{
		typ: {
			{Type: typ, ID: 1, TS: 0, Value: 1},
			{Type: typ, ID: 1, TS: 1 * event.Minute, Value: 2},
			{Type: typ, ID: 1, TS: 2 * event.Minute, Value: 3},
			{Type: typ, ID: 1, TS: 10 * event.Minute, Value: 4},
		},
	}
	res := runPlan(t, pat, Options{UseAggregation: true}, data)
	// Window [0,5) has 3 events -> one aggregate; [10,15) has 1 -> none.
	if got := res.Unique(); got != 1 {
		t.Fatalf("O2 outputs = %d, want 1", got)
	}
	if v := res.Matches()[0].Events[0].Value; v != 3 {
		t.Fatalf("count = %g, want 3", v)
	}
}

// O2 under O3 partitions the count by the attribute the iteration's pairwise
// equality names, not by id: four sensors reporting one lat are one group of
// four, while grouping by id would leave four groups of one.
func TestAggregationKeysByPairwiseAttr(t *testing.T) {
	pat := mustPattern(t, `PATTERN ITER(TEL v, 3+) WHERE v[i].lat == v[i+1].lat WITHIN 5 MINUTES SLIDE 5 MINUTES`)
	typ, _ := event.LookupType("TEL")
	var evs []event.Event
	for i := int64(0); i < 4; i++ {
		evs = append(evs, event.Event{Type: typ, ID: i + 1, Lat: 7, TS: i * event.Minute})
	}
	evs = append(evs, event.Event{Type: typ, ID: 1, Lat: 7.5, TS: 4 * event.Minute})
	res := runPlan(t, pat, Options{UseAggregation: true, UsePartitioning: true, Parallelism: 2}, map[event.Type][]event.Event{typ: evs})
	if got := res.Unique(); got != 1 {
		t.Fatalf("O2+O3 outputs = %d, want 1 (the lat-7 group)", got)
	}
	if e := res.Matches()[0].Events[0]; e.ID != 7 || e.Value != 4 {
		t.Fatalf("aggregate = key %d count %g, want key 7 count 4", e.ID, e.Value)
	}
}

// The θ predicate of FASP's ITER4 self joins runs once per candidate pair;
// its pairwise check reads a pair the instance owns, so a test allocates
// nothing.
func TestIterJoinPredicateDoesNotAllocate(t *testing.T) {
	pat := mustPattern(t, `PATTERN ITER(TEI v, 4) WHERE v.value <= 1.6 AND v[i].id == v[i+1].id WITHIN 90 MINUTES SLIDE 1 MINUTE`)
	plan, err := Translate(pat, Options{UsePartitioning: true, Parallelism: 2})
	if err != nil {
		t.Fatal(err)
	}
	newPred, err := (&builder{}).compileJoinPredicate(plan.Root.(*JoinPlan), 3, 1)
	if err != nil {
		t.Fatal(err)
	}
	pred := newPred()
	at := func(id, minute int64) event.Event { return event.Event{ID: id, TS: minute * event.Minute} }
	l := []event.Event{at(7, 0), at(7, 1), at(7, 2)}
	same, other := []event.Event{at(7, 3)}, []event.Event{at(8, 3)}
	if !pred(l, same) || pred(l, other) {
		t.Fatal("the pairwise id equality decides the wrong way")
	}
	if n := testing.AllocsPerRun(100, func() { pred(l, same); pred(l, other) }); n != 0 {
		t.Fatalf("join predicate allocates %v times per two tests, want 0", n)
	}
}

// A constant conjunct holds or fails for every event: FASP filters every
// scan with it, as the oracle and the NFA evaluate it.
func TestConstantConjunctsFilterEveryScan(t *testing.T) {
	ta, tb := event.RegisterType("TKA"), event.RegisterType("TKB")
	rng := rand.New(rand.NewSource(3))
	data := map[event.Type][]event.Event{ta: genStream(rng, ta, 6, 30, 1), tb: genStream(rng, tb, 6, 30, 1)}
	all := append(append([]event.Event{}, data[ta]...), data[tb]...)
	for _, where := range []string{"1 > 2", "FALSE", "1 < 2 AND a.value <= b.value"} {
		pat := mustPattern(t, `PATTERN SEQ(TKA a, TKB b) WHERE `+where+` WITHIN 8 MINUTES`)
		oracle := sortedKeys(sea.Evaluate(pat, all))
		equalSets(t, where, oracle, sortedKeys(runPlan(t, pat, Options{}, data).Matches()))
	}
}

func TestPlanShapes(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(TEA a, TEB b, TEC c)
		WHERE a.value > 10 AND a.id == b.id AND b.id == c.id
		WITHIN 15 MINUTES`)

	plan, err := Translate(pat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// Two chained joins; filter pushed into a's scan.
	j, ok := plan.Root.(*JoinPlan)
	if !ok {
		t.Fatalf("root = %T, want *JoinPlan", plan.Root)
	}
	if j.Interval {
		t.Fatal("plain FASP must use sliding window joins")
	}
	if _, ok := j.Left.(*JoinPlan); !ok {
		t.Fatalf("left = %T, want nested *JoinPlan (left-deep decomposition)", j.Left)
	}
	inner := j.Left.(*JoinPlan)
	scanA, ok := inner.Left.(*ScanPlan)
	if !ok {
		t.Fatalf("innermost left = %T, want *ScanPlan", inner.Left)
	}
	if len(scanA.Filters) != 1 {
		t.Fatalf("filter pushdown failed: scan a has %d filters", len(scanA.Filters))
	}

	// O1 flips the join kind.
	planO1, _ := Translate(pat, Options{UseIntervalJoin: true})
	if !planO1.Root.(*JoinPlan).Interval {
		t.Fatal("O1 should use interval joins")
	}

	// O3 extracts equi keys.
	planO3, _ := Translate(pat, Options{UsePartitioning: true, Parallelism: 4})
	if planO3.Root.(*JoinPlan).Equi == nil {
		t.Fatal("O3 did not extract the equi key")
	}

	// Explain renders every node.
	text := plan.Explain()
	for _, want := range []string{"WindowJoin", "Scan TEA", "Scan TEB", "Scan TEC"} {
		if !strings.Contains(text, want) {
			t.Fatalf("Explain missing %q:\n%s", want, text)
		}
	}
}

func TestJoinReorderingByFrequency(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(TEA a, TEB b, TEC c) WITHIN 15 MINUTES`)
	plan, err := Translate(pat, Options{Frequencies: map[string]float64{
		"TEA": 100, "TEB": 1, "TEC": 10,
	}})
	if err != nil {
		t.Fatal(err)
	}
	// Cheapest join first: (b ⋈ c), then a joins last. The final join
	// swaps a to the left side because it precedes b and c in the pattern
	// (ordered interval-join bounds need the earlier side left).
	root := plan.Root.(*JoinPlan)
	if scan, ok := root.Left.(*ScanPlan); !ok || scan.TypeName != "TEA" {
		t.Fatalf("most frequent stream should join last (left side), got %v", root.Left.Describe())
	}
	inner, ok := root.Right.(*JoinPlan)
	if !ok {
		t.Fatalf("right = %T, want the (b ⋈ c) join", root.Right)
	}
	if scan, ok := inner.Left.(*ScanPlan); !ok || scan.TypeName != "TEB" {
		t.Fatalf("least frequent stream should join first, got %v", inner.Left.Describe())
	}
	// Reordered plans stay semantically equivalent (ordered θ preds).
	rng := rand.New(rand.NewSource(99))
	ta, _ := event.LookupType("TEA")
	tb, _ := event.LookupType("TEB")
	tc, _ := event.LookupType("TEC")
	data := map[event.Type][]event.Event{
		ta: genStream(rng, ta, 8, 25, 1),
		tb: genStream(rng, tb, 8, 25, 1),
		tc: genStream(rng, tc, 8, 25, 1),
	}
	var all []event.Event
	for _, s := range data {
		all = append(all, s...)
	}
	oracle := sortedKeys(sea.Evaluate(pat, all))
	res := runPlan(t, pat, Options{Frequencies: map[string]float64{"TEA": 100, "TEB": 1, "TEC": 10}}, data)
	equalSets(t, "reordered", oracle, sortedKeys(res.Matches()))
}

func TestTranslateFCEPPlan(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(TEA a, TEB b) WHERE a.id == b.id WITHIN 5 MINUTES`)
	plan, err := TranslateFCEP(pat, Options{UsePartitioning: true, Parallelism: 4})
	if err != nil {
		t.Fatal(err)
	}
	cp, ok := plan.Root.(*CEPPlan)
	if !ok {
		t.Fatalf("root = %T, want *CEPPlan", plan.Root)
	}
	if !cp.Keyed {
		t.Fatal("equi-keyed pattern should key the NFA")
	}
	if len(cp.Sources) != 2 {
		t.Fatalf("sources = %d, want 2", len(cp.Sources))
	}
	// Without partitioning: single-threaded NFA.
	plan2, _ := TranslateFCEP(pat, Options{})
	if plan2.Root.(*CEPPlan).Keyed {
		t.Fatal("keying requires O3")
	}
}

// TestFCEPvsFASPEquivalence: both execution paths agree after dedup — the
// end-to-end statement of the paper's semantic-equivalence argument.
func TestFCEPvsFASPEquivalence(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(TEA a, !TEX x, TEB b)
		WHERE a.value <= b.value
		WITHIN 8 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("TEA")
	tb, _ := event.LookupType("TEB")
	tx, _ := event.LookupType("TEX")
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 1000))
		data := map[event.Type][]event.Event{
			ta: genStream(rng, ta, 6, 30, 1),
			tb: genStream(rng, tb, 6, 30, 1),
			tx: genStream(rng, tx, 4, 30, 1),
		}
		fasp := runPlan(t, pat, Options{}, data)

		plan, err := TranslateFCEP(pat, Options{})
		if err != nil {
			t.Fatal(err)
		}
		env, res, err := Build(plan, BuildConfig{
			Engine:      asp.Config{WatermarkInterval: 1},
			Data:        data,
			KeepMatches: true,
		})
		if err != nil {
			t.Fatal(err)
		}
		if err := env.Execute(context.Background()); err != nil {
			t.Fatal(err)
		}
		equalSets(t, "fcep-vs-fasp", sortedKeys(fasp.Matches()), sortedKeys(res.Matches()))
	}
}

// TestFCEPNegationKeyedByBlockers: under O3 one automaton is keyed only by
// an attribute that reaches its negated aliases. a.id == b.id leaves x
// unkeyed, and an X of either id voids every partial it follows; keyed by
// id, an X would reach one partition only and leave the other's matches
// standing. At parallelism 2 on two keys the match set is the oracle's.
func TestFCEPNegationKeyedByBlockers(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(TEA a, !TEX x, TEB b) WHERE a.id == b.id WITHIN 8 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("TEA")
	tb, _ := event.LookupType("TEB")
	tx, _ := event.LookupType("TEX")
	total := 0
	for trial := 0; trial < 5; trial++ {
		rng := rand.New(rand.NewSource(int64(trial) + 2000))
		data := map[event.Type][]event.Event{
			ta: merge(genStream(rng, ta, 6, 30, 1), genStream(rng, ta, 6, 30, 2)),
			tb: merge(genStream(rng, tb, 6, 30, 1), genStream(rng, tb, 6, 30, 2)),
			tx: merge(genStream(rng, tx, 3, 30, 1), genStream(rng, tx, 3, 30, 2)),
		}
		var all []event.Event
		for _, s := range data {
			all = append(all, s...)
		}
		want := sortedKeys(sea.Evaluate(pat, all))
		total += len(want)
		got := runPlanLate(t, pat, Options{UsePartitioning: true, Parallelism: 2}, true, data, 0)
		equalSets(t, "FCEP+O3", want, sortedKeys(got.Matches()))
	}
	if total == 0 {
		t.Fatal("the oracle found no match on any trial; the streams are inert")
	}
}

func TestBuildMissingDataFails(t *testing.T) {
	pat := mustPattern(t, `PATTERN SEQ(TEA a, TEMissing b) WITHIN 5 MIN`)
	plan, err := Translate(pat, Options{})
	if err != nil {
		t.Fatal(err)
	}
	_, _, err = Build(plan, BuildConfig{Data: map[event.Type][]event.Event{}})
	if err == nil {
		t.Fatal("Build without data should fail")
	}
}
