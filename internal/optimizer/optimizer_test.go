package optimizer

import (
	"context"
	"math/rand"
	"sort"
	"strings"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

func mustPattern(t *testing.T, src string) *sea.Pattern {
	t.Helper()
	p, err := sea.Parse(src)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func mkStream(typ event.Type, n int, seed int64) []event.Event {
	rng := rand.New(rand.NewSource(seed))
	out := make([]event.Event, n)
	ts := int64(0)
	for i := range out {
		// Timestamps on the slide grid with inter-arrival >= slide: the
		// domain where Theorem 2 guarantees the engine's completeness, so
		// the reference evaluator is a valid oracle.
		ts += (1 + rng.Int63n(3)) * event.Minute
		out[i] = event.Event{
			Type: typ, ID: int64(rng.Intn(3) + 1),
			TS:    ts,
			Value: float64(rng.Intn(100)),
		}
	}
	return out
}

func patternData(t *testing.T, p *sea.Pattern, n int, seed int64) map[event.Type][]event.Event {
	t.Helper()
	data := make(map[event.Type][]event.Event)
	for _, l := range p.Leaves() {
		if _, ok := data[l.Type]; ok {
			continue
		}
		seed++
		data[l.Type] = mkStream(l.Type, n, seed)
	}
	return data
}

func oracleKeys(p *sea.Pattern, data map[event.Type][]event.Event) []string {
	var all []event.Event
	for _, s := range data {
		all = append(all, s...)
	}
	return sortedKeys(sea.Evaluate(p, all))
}

func sortedKeys(ms []*event.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	sort.Strings(out)
	return out
}

func runOnce(t *testing.T, p *sea.Pattern, opts core.Options, data map[event.Type][]event.Event) []string {
	t.Helper()
	plan, err := core.Translate(p, opts)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	env, res, err := core.Build(plan, core.BuildConfig{
		Engine:      asp.Config{WatermarkInterval: 1},
		Data:        data,
		DedupSink:   true,
		KeepMatches: true,
	})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	return sortedKeys(res.Matches())
}

// Plan equivalence: whatever join order, pushdown and operator selection
// the cost model picks — under any statistics — the optimized plan's match
// set must equal the naive topology's and the reference evaluator's.
func TestOptimizedPlanEquivalence(t *testing.T) {
	patterns := []string{
		`PATTERN SEQ(OPA a, OPB b, OPC c) WHERE a.value < 70 AND b.value >= 10 WITHIN 8 MIN SLIDE 1 MIN`,
		`PATTERN AND(OPA a, OPB b, OPC c) WHERE a.id == b.id WITHIN 6 MIN SLIDE 1 MIN`,
		`PATTERN ITER(OPV v, 3) WITHIN 6 MIN SLIDE 1 MIN`,
		`PATTERN SEQ(OPA a, !OPB n, OPC c) WHERE n.value > 50 WITHIN 8 MIN SLIDE 1 MIN`,
	}
	// Skew permutations: each assigns different relative rates and
	// selectivities, driving the greedy tree into different shapes.
	skews := []map[string]core.StreamStats{
		nil, // cost model with unknown rates
		{"OPA": {Frequency: 100}, "OPB": {Frequency: 1}, "OPC": {Frequency: 10}, "OPV": {Frequency: 5}},
		{"OPA": {Frequency: 1}, "OPB": {Frequency: 100}, "OPC": {Frequency: 100}, "OPV": {Frequency: 50}},
		{"OPA": {Frequency: 60, FilterSelectivity: 0.05}, "OPB": {Frequency: 60, FilterSelectivity: 1}, "OPC": {Frequency: 60, FilterSelectivity: 0.5}, "OPV": {Frequency: 60}},
	}
	for pi, src := range patterns {
		p := mustPattern(t, src)
		data := patternData(t, p, 35, int64(pi)*17)
		oracle := oracleKeys(p, data)
		naive := runOnce(t, p, core.Options{}, data)
		equalSets(t, "naive vs oracle", oracle, naive)
		for si, stats := range skews {
			o, err := New(Config{Stats: stats})
			if err != nil {
				t.Fatal(err)
			}
			got := runOnce(t, p, o.Advise(p), data)
			equalSets(t, src+" skew", oracle, got)
			_ = si
		}
	}
}

func equalSets(t *testing.T, label string, oracle, got []string) {
	t.Helper()
	if len(oracle) != len(got) {
		t.Fatalf("%s: oracle has %d matches, engine %d\noracle: %v\nengine: %v",
			label, len(oracle), len(got), oracle, got)
	}
	for i := range oracle {
		if oracle[i] != got[i] {
			t.Fatalf("%s: match %d differs: %s vs %s", label, i, oracle[i], got[i])
		}
	}
}

// With skewed statistics the greedy builder must produce a bushy tree:
// four equally rated streams pair up (A⋈B)⋈(C⋈D) instead of the heuristic
// left-deep chain.
func TestGreedyTreeGoesBushy(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(OPA a, OPB b, OPC c, OPD d) WITHIN 8 MIN SLIDE 1 MIN`)
	stats := map[string]core.StreamStats{
		"OPA": {Frequency: 10}, "OPB": {Frequency: 10},
		"OPC": {Frequency: 10}, "OPD": {Frequency: 10},
	}
	o, err := New(Config{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	plan, err := o.Plan(p)
	if err != nil {
		t.Fatal(err)
	}
	root, ok := plan.Root.(*core.JoinPlan)
	if !ok {
		t.Fatalf("root is %T", plan.Root)
	}
	if _, lj := root.Left.(*core.JoinPlan); !lj {
		t.Fatalf("expected bushy tree, left is %s", root.Left.Describe())
	}
	if _, rj := root.Right.(*core.JoinPlan); !rj {
		t.Fatalf("expected bushy tree, right is %s\n%s", root.Right.Describe(), plan.Explain())
	}
	// And the match set stays equivalent.
	data := patternData(t, p, 30, 99)
	equalSets(t, "bushy", oracleKeys(p, data), runOnce(t, p, o.Advise(p), data))
}

// intermediateTuples runs the plan opts give p and returns what its non-root
// joins emitted, summed, and the unique matches it detected.
func intermediateTuples(t *testing.T, p *sea.Pattern, opts core.Options, data map[event.Type][]event.Event) (tuples, unique int64) {
	t.Helper()
	plan, err := core.Translate(p, opts)
	if err != nil {
		t.Fatalf("Translate: %v", err)
	}
	env, res, err := core.Build(plan, core.BuildConfig{Data: data, DedupSink: true})
	if err != nil {
		t.Fatalf("Build: %v", err)
	}
	if err := env.Execute(context.Background()); err != nil {
		t.Fatalf("Execute: %v", err)
	}
	// Joins are built children first, so the root is the last one.
	var joins []int64
	for _, m := range env.NodeStats() {
		if strings.HasPrefix(m.Name, "⋈") {
			joins = append(joins, m.Out.Load())
		}
	}
	for _, out := range joins[:len(joins)-1] {
		tuples += out
	}
	return tuples, res.Unique()
}

// TestAdvisedPlanEmitsFewerIntermediateTuples prices plans by the
// intermediate tuples they emit, the cost unit of Kolchinsky & Schuster. On
// the skewed workload of harness.OptimizeSkew — two dense QnV streams and a
// rare, heavily filtered PM10 stream — the pattern-order plan joins q with v
// first; the advised plan must detect the same matches from strictly fewer
// intermediate tuples.
func TestAdvisedPlanEmitsFewerIntermediateTuples(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 m)
		WHERE q.value < 60 AND v.value < 60 AND m.value < 5
		WITHIN 15 MIN SLIDE 1 MIN`)
	const sensors, minutes = 8, 120
	q, v := workload.QnV(workload.QnVConfig{Sensors: sensors, Minutes: minutes, Seed: 1})
	pm10, _, _, _ := workload.AirQuality(workload.AQConfig{Sensors: sensors, Minutes: minutes, Seed: 1})
	data := map[event.Type][]event.Event{workload.TypeQuantity: q, workload.TypeVelocity: v, workload.TypePM10: pm10}
	stats, err := Measure(p, data)
	if err != nil {
		t.Fatal(err)
	}
	o, err := New(Config{Stats: stats})
	if err != nil {
		t.Fatal(err)
	}
	naive, naiveUnique := intermediateTuples(t, p, core.Options{}, data)
	advised, advisedUnique := intermediateTuples(t, p, o.Advise(p), data)
	t.Logf("intermediate tuples: pattern order %d, advised %d; unique matches %d and %d", naive, advised, naiveUnique, advisedUnique)
	if naiveUnique == 0 || advisedUnique != naiveUnique {
		t.Fatalf("unique matches: pattern order %d, advised %d; want equal and non-zero", naiveUnique, advisedUnique)
	}
	if advised >= naive {
		t.Fatalf("the advised plan emitted %d intermediate tuples, the pattern-order plan %d: want strictly fewer", advised, naive)
	}
}

func TestMeasure(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(OPA a, OPB b) WHERE a.value < 50 WITHIN 5 MIN SLIDE 1 MIN`)
	ta, _ := event.LookupType("OPA")
	tb, _ := event.LookupType("OPB")
	mk := func(typ event.Type, n int, step int64) []event.Event {
		out := make([]event.Event, n)
		for i := range out {
			out[i] = event.Event{Type: typ, ID: 1, TS: int64(i) * step, Value: float64(i % 100)}
		}
		return out
	}
	data := map[event.Type][]event.Event{
		ta: mk(ta, 200, event.Minute),    // 1/min, values 0..99 → sel 0.5
		tb: mk(tb, 200, event.Minute/10), // 10/min, unfiltered
	}
	stats, err := Measure(p, data)
	if err != nil {
		t.Fatal(err)
	}
	a, b := stats["OPA"], stats["OPB"]
	if a.Frequency < 0.9 || a.Frequency > 1.1 {
		t.Fatalf("OPA frequency %v, want ~1/min", a.Frequency)
	}
	if a.FilterSelectivity < 0.45 || a.FilterSelectivity > 0.55 {
		t.Fatalf("OPA selectivity %v, want ~0.5", a.FilterSelectivity)
	}
	if b.Frequency < 9 || b.Frequency > 11 {
		t.Fatalf("OPB frequency %v, want ~10/min", b.Frequency)
	}
	if b.FilterSelectivity != 0 {
		t.Fatalf("OPB has no filters, selectivity should stay unknown: %v", b.FilterSelectivity)
	}
	if err := core.ValidateStats(stats); err != nil {
		t.Fatalf("measured stats invalid: %v", err)
	}

	// What Measure samples is what the plan filters: each scan carries
	// exactly Unary(alias), a negated alias' blocker scan included.
	pn := mustPattern(t, `PATTERN SEQ(OPA a, !OPX n, OPB b) WHERE a.value < 50 AND n.value >= 80 AND n.id == a.id AND b.value > a.value WITHIN 5 MIN SLIDE 1 MIN`)
	tx, _ := event.LookupType("OPX")
	data[tx] = mk(tx, 200, event.Minute) // values 0..99 → n.value >= 80 passes 0.2
	plan, err := core.Translate(pn, core.Options{})
	if err != nil {
		t.Fatal(err)
	}
	an, err := sea.Analyze(pn)
	if err != nil {
		t.Fatal(err)
	}
	filters := make(map[string]string)
	var walk func(core.PlanNode)
	walk = func(n core.PlanNode) {
		if s, ok := n.(*core.ScanPlan); ok {
			filters[s.Alias] = sea.Conjoin(s.Filters).String()
		}
		for _, k := range n.Kids() {
			walk(k)
		}
	}
	walk(plan.Root)
	if len(filters) != 3 || filters["n"] != "n.value >= 80" {
		t.Fatalf("scan filters %v, want one scan per alias and n's blocker filter", filters)
	}
	for alias, f := range filters {
		if want := sea.Conjoin(an.Unary(alias)).String(); f != want {
			t.Errorf("scan %s filters %s, Unary(%s) = %s", alias, f, alias, want)
		}
	}
	stats, err = Measure(pn, data)
	if err != nil {
		t.Fatal(err)
	}
	if a, n, b := stats["OPA"].FilterSelectivity, stats["OPX"].FilterSelectivity, stats["OPB"].FilterSelectivity; a != 0.5 || n != 0.2 || b != 0 {
		t.Fatalf("selectivities a %v, n %v, b %v; want 0.5, 0.2 and unknown", a, n, b)
	}
}

func TestExplainPlanAnnotatesCosts(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(OPA a, OPB b) WITHIN 5 MIN SLIDE 1 MIN`)
	o, err := New(Config{Stats: map[string]core.StreamStats{
		"OPA": {Frequency: 2}, "OPB": {Frequency: 8},
	}})
	if err != nil {
		t.Fatal(err)
	}
	out, err := o.Explain(p)
	if err != nil {
		t.Fatal(err)
	}
	for _, want := range []string{"est 2/min", "est 8/min", "est 80/min", "CBO"} {
		if !strings.Contains(out, want) {
			t.Fatalf("explain output lacks %q:\n%s", want, out)
		}
	}
}

func TestNewRejectsInvalidConfig(t *testing.T) {
	if _, err := New(Config{Stats: map[string]core.StreamStats{
		"OPA": {Frequency: 10, FilterSelectivity: 1.5},
	}}); err == nil {
		t.Fatal("invalid selectivity accepted")
	}
	if _, err := New(Config{ReplanThreshold: 0.5}); err == nil {
		t.Fatal("sub-1 re-plan threshold accepted")
	}
	if _, err := New(Config{Parallelism: -1}); err == nil {
		t.Fatal("negative parallelism accepted")
	}
}
