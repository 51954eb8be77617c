package cep

import (
	"context"
	"math/rand"
	"sort"
	"testing"

	"cep2asp/internal/asp"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
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

func TestCompileRejectsAndOr(t *testing.T) {
	for _, src := range []string{
		`PATTERN AND(CA a, CB b) WITHIN 5 MIN`,
		`PATTERN OR(CA a, CB b) WITHIN 5 MIN`,
		`PATTERN SEQ(CA a, AND(CB b, CC c)) WITHIN 5 MIN`,
	} {
		_, err := Compile(mustPattern(t, src), nfa.SkipTillAnyMatch, nil)
		if err == nil {
			t.Errorf("Compile(%q) succeeded; FCEP does not support AND/OR (Table 2)", src)
		}
	}
}

func TestCompileRejectsUnboundedIter(t *testing.T) {
	_, err := Compile(mustPattern(t, `PATTERN ITER(CA a, 3+) WITHIN 5 MIN`), nfa.SkipTillAnyMatch, nil)
	if err == nil {
		t.Fatal("Compile accepted unbounded iteration")
	}
}

func TestCompileSeqWithPredicates(t *testing.T) {
	p := mustPattern(t, `
		PATTERN SEQ(CA a, CB b)
		WHERE a.value >= 10 AND b.value > a.value
		WITHIN 5 MINUTES`)
	prog, err := Compile(p, nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stages) != 2 {
		t.Fatalf("stages = %d, want 2", len(prog.Stages))
	}
	m, err := nfa.NewMachine(prog)
	if err != nil {
		t.Fatal(err)
	}
	var out []*event.Match
	emit := func(ma *event.Match) { out = append(out, ma) }
	ta, _ := event.LookupType("CA")
	tb, _ := event.LookupType("CB")
	m.OnEvent(event.Event{Type: ta, TS: 0, Value: 5}, emit) // fails a pred
	m.OnEvent(event.Event{Type: ta, TS: 60000, Value: 20}, emit)
	m.OnEvent(event.Event{Type: tb, TS: 120000, Value: 15}, emit) // fails cross
	m.OnEvent(event.Event{Type: tb, TS: 180000, Value: 25}, emit)
	if len(out) != 1 {
		t.Fatalf("got %d matches, want 1", len(out))
	}
}

func TestCompileIterExpansion(t *testing.T) {
	p := mustPattern(t, `
		PATTERN ITER(CV v, 3)
		WHERE v[i].value < v[i+1].value
		WITHIN 10 MINUTES`)
	prog, err := Compile(p, nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stages) != 3 {
		t.Fatalf("iteration should expand to 3 stages, got %d", len(prog.Stages))
	}
}

// A negation before an iteration stays attached after the stage that
// precedes it while the iteration expands behind it.
func TestBuilderTimesAndNegation(t *testing.T) {
	prog, err := Compile(mustPattern(t, `PATTERN SEQ(CA a, !CX x, ITER(CB b, 3)) WITHIN 10 MINUTES`), nfa.SkipTillAnyMatch, nil)
	if err != nil {
		t.Fatal(err)
	}
	if len(prog.Stages) != 4 {
		t.Fatalf("stages = %d, want 4 (1 + 3 expanded)", len(prog.Stages))
	}
	if len(prog.Negations) != 1 || prog.Negations[0].After != 0 {
		t.Fatalf("negation wrong: %+v", prog.Negations)
	}
}

// runFCEP executes a pattern via the unary CEP operator in the engine:
// union all sources, then the single operator — the paper's FCEP topology.
func runFCEP(t *testing.T, pat *sea.Pattern, streams map[string][]event.Event) []*event.Match {
	t.Helper()
	return runFCEPAt(t, pat, nil, 1, streams)
}

// runFCEPAt runs the pattern's operator over the union of the streams with
// a watermark every interval records per source.
func runFCEPAt(t *testing.T, pat *sea.Pattern, key func(event.Event) int64, interval int, streams map[string][]event.Event) []*event.Match {
	t.Helper()
	prog, err := Compile(pat, nfa.SkipTillAnyMatch, key)
	if err != nil {
		t.Fatal(err)
	}
	op, err := NewOperator(prog)
	if err != nil {
		t.Fatal(err)
	}
	env := asp.NewEnvironment(asp.Config{WatermarkInterval: interval})
	var sources []*asp.Stream
	for name, evs := range streams {
		sources = append(sources, env.Source(name, evs, false))
	}
	unioned := sources[0]
	if len(sources) > 1 {
		unioned = sources[0].Union("union", sources[1:]...)
	}
	res := asp.NewResults(true, true)
	unioned.Process("fcep", 1, nil, op).Sink("sink", res.Operator())
	if err := env.Execute(context.Background()); err != nil {
		t.Fatal(err)
	}
	return res.Matches()
}

func sortedKeys(ms []*event.Match) []string {
	out := make([]string, len(ms))
	for i, m := range ms {
		out[i] = m.Key()
	}
	sort.Strings(out)
	return out
}

func equalKeySets(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}

// genStream produces a random minute-aligned stream for one type; on
// minute-aligned data, implicit windowing (span < W) and the oracle's
// slide-by-one-minute explicit windowing agree exactly.
func genStream(rng *rand.Rand, typ event.Type, n int, maxMinute int64) []event.Event {
	used := map[int64]bool{}
	var out []event.Event
	for len(out) < n {
		m := rng.Int63n(maxMinute)
		if used[m] {
			continue
		}
		used[m] = true
		out = append(out, event.Event{
			Type: typ, ID: 1, TS: m * event.Minute,
			Value: float64(rng.Intn(100)),
		})
	}
	sort.Slice(out, func(i, j int) bool { return out[i].TS < out[j].TS })
	return out
}

// TestOracleEquivalenceSeq is the semantic-equivalence property of §4
// (Negri et al.): the NFA under skip-till-any-match and the formal
// set-semantics oracle produce identical deduplicated match sets.
func TestOracleEquivalenceSeq(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(OEA a, OEB b)
		WHERE a.value <= b.value
		WITHIN 5 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("OEA")
	tb, _ := event.LookupType("OEB")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(trial)))
		sa := genStream(rng, ta, 8, 30)
		sb := genStream(rng, tb, 8, 30)
		all := append(append([]event.Event{}, sa...), sb...)
		oracle := sortedKeys(sea.Evaluate(pat, all))
		fcep := sortedKeys(runFCEP(t, pat, map[string][]event.Event{"a": sa, "b": sb}))
		if !equalKeySets(oracle, fcep) {
			t.Fatalf("trial %d: oracle %v != fcep %v", trial, oracle, fcep)
		}
	}
}

func TestOracleEquivalenceIter(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN ITER(OEV v, 3)
		WHERE v[i].value < v[i+1].value
		WITHIN 10 MINUTES SLIDE 1 MINUTE`)
	tv, _ := event.LookupType("OEV")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(100 + trial)))
		sv := genStream(rng, tv, 10, 40)
		oracle := sortedKeys(sea.Evaluate(pat, sv))
		fcep := sortedKeys(runFCEP(t, pat, map[string][]event.Event{"v": sv}))
		if !equalKeySets(oracle, fcep) {
			t.Fatalf("trial %d: oracle %d matches != fcep %d matches", trial, len(oracle), len(fcep))
		}
	}
}

func TestOracleEquivalenceNseq(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(OEA a, !OEX x, OEB b)
		WHERE x.value > 50
		WITHIN 8 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("OEA")
	tb, _ := event.LookupType("OEB")
	tx, _ := event.LookupType("OEX")
	for trial := 0; trial < 25; trial++ {
		rng := rand.New(rand.NewSource(int64(200 + trial)))
		sa := genStream(rng, ta, 6, 30)
		sb := genStream(rng, tb, 6, 30)
		sx := genStream(rng, tx, 6, 30)
		all := append(append(append([]event.Event{}, sa...), sb...), sx...)
		oracle := sortedKeys(sea.Evaluate(pat, all))
		fcep := sortedKeys(runFCEP(t, pat, map[string][]event.Event{"a": sa, "b": sb, "x": sx}))
		if !equalKeySets(oracle, fcep) {
			t.Fatalf("trial %d: oracle %v != fcep %v", trial, oracle, fcep)
		}
	}
}

func TestOracleEquivalenceSeq3(t *testing.T) {
	pat := mustPattern(t, `
		PATTERN SEQ(OEA a, OEB b, OEC c)
		WITHIN 6 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("OEA")
	tb, _ := event.LookupType("OEB")
	tc, _ := event.LookupType("OEC")
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(300 + trial)))
		sa := genStream(rng, ta, 6, 25)
		sb := genStream(rng, tb, 6, 25)
		sc := genStream(rng, tc, 6, 25)
		all := append(append(append([]event.Event{}, sa...), sb...), sc...)
		oracle := sortedKeys(sea.Evaluate(pat, all))
		fcep := sortedKeys(runFCEP(t, pat, map[string][]event.Event{"a": sa, "b": sb, "c": sc}))
		if !equalKeySets(oracle, fcep) {
			t.Fatalf("trial %d: oracle %d != fcep %d", trial, len(oracle), len(fcep))
		}
	}
}

func TestOracleEquivalenceNseqCorrelated(t *testing.T) {
	// Blocker correlated with the preceding element by sensor id.
	pat := mustPattern(t, `
		PATTERN SEQ(OEA a, !OEX x, OEB b)
		WHERE x.id == a.id
		WITHIN 8 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("OEA")
	tb, _ := event.LookupType("OEB")
	tx, _ := event.LookupType("OEX")
	for trial := 0; trial < 15; trial++ {
		rng := rand.New(rand.NewSource(int64(500 + trial)))
		var all []event.Event
		streams := map[string][]event.Event{}
		for name, typ := range map[string]event.Type{"a": ta, "b": tb, "x": tx} {
			s1 := genStream(rng, typ, 4, 30)
			s2 := genStream(rng, typ, 4, 30)
			for i := range s2 {
				s2[i].ID = 2
			}
			merged := append(s1, s2...)
			sort.Slice(merged, func(i, j int) bool { return merged[i].TS < merged[j].TS })
			streams[name] = merged
			all = append(all, merged...)
		}
		oracle := sortedKeys(sea.Evaluate(pat, all))
		fcep := sortedKeys(runFCEP(t, pat, streams))
		if !equalKeySets(oracle, fcep) {
			t.Fatalf("trial %d: oracle %d != fcep %d", trial, len(oracle), len(fcep))
		}
	}
}

func TestOracleEquivalencePoliciesNested(t *testing.T) {
	// Policy results nest: sc ⊆ stnm ⊆ stam on arbitrary compiled patterns.
	pat := mustPattern(t, `
		PATTERN SEQ(OEA a, OEB b)
		WHERE a.value <= b.value
		WITHIN 5 MINUTES SLIDE 1 MINUTE`)
	ta, _ := event.LookupType("OEA")
	tb, _ := event.LookupType("OEB")
	for trial := 0; trial < 10; trial++ {
		rng := rand.New(rand.NewSource(int64(700 + trial)))
		sa := genStream(rng, ta, 8, 25)
		sb := genStream(rng, tb, 8, 25)
		run := func(policy nfa.Policy) map[string]bool {
			prog, err := Compile(pat, policy, nil)
			if err != nil {
				t.Fatal(err)
			}
			m, err := nfa.NewMachine(prog)
			if err != nil {
				t.Fatal(err)
			}
			set := map[string]bool{}
			emit := func(ma *event.Match) { set[ma.Key()] = true }
			merged := append(append([]event.Event{}, sa...), sb...)
			sort.Slice(merged, func(i, j int) bool { return merged[i].TS < merged[j].TS })
			for _, e := range merged {
				m.OnEvent(e, emit)
			}
			m.OnWatermark(event.MaxWatermark, emit)
			return set
		}
		stam := run(nfa.SkipTillAnyMatch)
		stnm := run(nfa.SkipTillNextMatch)
		sc := run(nfa.StrictContiguity)
		for k := range stnm {
			if !stam[k] {
				t.Fatalf("trial %d: stnm result not in stam", trial)
			}
		}
		for k := range sc {
			if !stam[k] {
				t.Fatalf("trial %d: sc result not in stam", trial)
			}
		}
	}
}
