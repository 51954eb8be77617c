package main

import (
	"context"
	"encoding/json"
	"io"
	"math/rand"
	"os"
	"path/filepath"
	"reflect"
	"regexp"
	"testing"

	"cep2asp"
	"cep2asp/internal/obs"
)

type manifest struct {
	Command    []string `json:"command"`
	Paths      []string `json:"paths"`
	RunSeconds int      `json:"run_seconds"`
	Workloads  []struct{ Name, Why string }
	EndToEnd   []manifestMetric `json:"end_to_end"`
	PerLayer   []manifestMetric `json:"per_layer"`
}

type manifestMetric struct {
	Name, Unit, Better string
	Bound              float64
}

// TestManifestMatchesTables holds BENCHMARK.json to the tables the program
// reports from, so a metric cannot be declared and not emitted or the
// reverse.
func TestManifestMatchesTables(t *testing.T) {
	data, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var m manifest
	if err := json.Unmarshal(data, &m); err != nil {
		t.Fatal(err)
	}
	if !reflect.DeepEqual(m.Paths, []string{"bench"}) {
		t.Errorf("paths = %v, want [bench]", m.Paths)
	}
	if len(m.Workloads) != len(workloads) {
		t.Fatalf("%d workloads in the manifest, %d in workloads.go", len(m.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if m.Workloads[i].Name != w.Name || m.Workloads[i].Why != w.Why {
			t.Errorf("workload %d: manifest has %+v, workloads.go %q: %q", i, m.Workloads[i], w.Name, w.Why)
		}
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(kind string, got []manifestMetric, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: %d metrics in the manifest, %d in metrics.go", kind, len(got), len(want))
		}
		for i, d := range want {
			if got[i] != (manifestMetric{d.Name, d.Unit, d.Better, d.Bound}) {
				t.Errorf("%s metric %d: manifest has %+v, metrics.go %+v", kind, i, got[i], d)
			}
			if !name.MatchString(d.Name) {
				t.Errorf("%s metric name %q is not a valid name", kind, d.Name)
			}
		}
	}
	check("end_to_end", m.EndToEnd, endToEnd)
	check("per_layer", m.PerLayer, perLayer)
}

func smokeConfig(t *testing.T, w *workload, seed int64, trace bool) config {
	return config{
		workload: w, seed: seed, seconds: 0.2, trace: trace, smoke: true,
		expectUnique: -1, outDir: t.TempDir(), log: io.Discard,
	}
}

// TestSmoke runs every workload at the smoke size in both modes and checks
// what the contract asks of a run: every declared metric emitted, no failed
// operation, the same unique-match count for the same seed, and a spans
// file whose parents exist and whose self times add up to the run.
func TestSmoke(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		t.Run(w.Name, func(t *testing.T) {
			var uniques []int64
			for _, trace := range []bool{false, true} {
				cfg := smokeConfig(t, w, 7, trace)
				res, err := run(context.Background(), cfg)
				if err != nil {
					t.Fatal(err)
				}
				if !res.Correct || res.Failed != 0 || res.Attempted < 1 {
					t.Errorf("trace=%v: correct=%v attempted=%d failed=%d", trace, res.Correct, res.Attempted, res.Failed)
				}
				defs := endToEnd
				if trace {
					defs = perLayer
				}
				if len(res.Metrics) != len(defs) {
					t.Errorf("trace=%v: %d metrics emitted, %d declared", trace, len(res.Metrics), len(defs))
				}
				for _, d := range defs {
					if m, ok := res.Metrics[d.Name]; !ok || m.Unit != d.Unit {
						t.Errorf("trace=%v: metric %s: emitted=%v unit %q, want unit %q", trace, d.Name, ok, m.Unit, d.Unit)
					}
				}
				uniques = append(uniques, res.unique)
				if trace {
					checkSpans(t, filepath.Join(cfg.outDir, w.Name+".spans.json"))
				}
			}
			if uniques[0] != uniques[1] {
				t.Errorf("same seed, unique matches %d then %d", uniques[0], uniques[1])
			}
		})
	}
}

func checkSpans(t *testing.T, path string) {
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	var spans []span
	if err := json.Unmarshal(data, &spans); err != nil {
		t.Fatal(err)
	}
	byID := map[int]span{}
	for _, s := range spans {
		byID[s.ID] = s
	}
	var self, wall int64
	for _, s := range spans {
		if s.Parent == 0 {
			wall += s.EndNs - s.StartNs
		} else if _, ok := byID[s.Parent]; !ok {
			t.Errorf("span %d (%s) has no parent %d", s.ID, s.Name, s.Parent)
		}
		if s.SelfNs < 0 || s.EndNs < s.StartNs {
			t.Errorf("span %d (%s): start %d end %d self %d", s.ID, s.Name, s.StartNs, s.EndNs, s.SelfNs)
		}
		self += s.SelfNs
	}
	if len(spans) == 0 || self != wall {
		t.Errorf("%d spans, self times sum to %dns, the run lasted %dns", len(spans), self, wall)
	}
}

func TestSeedsSetInputs(t *testing.T) {
	for i := range workloads {
		w := &workloads[i]
		a, b, c := w.generate(1, true), w.generate(1, true), w.generate(2, true)
		if !reflect.DeepEqual(a, b) {
			t.Errorf("%s: the same seed gave different inputs", w.Name)
		}
		if reflect.DeepEqual(a, c) {
			t.Errorf("%s: different seeds gave the same inputs", w.Name)
		}
	}
}

// TestWrongExpectedUniqueFails shows the gate has teeth: a run held to a
// unique-match count it cannot produce reports failed operations.
func TestWrongExpectedUniqueFails(t *testing.T) {
	cfg := smokeConfig(t, &workloads[0], 7, false)
	cfg.expectUnique = 1 << 40
	res, err := run(context.Background(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Correct || res.Failed == 0 {
		t.Errorf("correct=%v failed=%d with an impossible expected unique count", res.Correct, res.Failed)
	}
}

// TestOracleSliceHoldsAnchor checks the slice the oracle check cuts: small
// enough for the reference semantics and still holding the match it was cut
// around.
func TestOracleSliceHoldsAnchor(t *testing.T) {
	w, err := findWorkload("iter_join")
	if err != nil {
		t.Fatal(err)
	}
	in := w.generate(3, true)
	pattern, err := cep2asp.Parse(w.PSL)
	if err != nil {
		t.Fatal(err)
	}
	b := &bench{w: w, pattern: pattern}
	st, err := b.job(in, false).Run(context.Background())
	if err != nil {
		t.Fatal(err)
	}
	if len(st.Matches) == 0 {
		t.Fatal("no match at the smoke size; pick another seed")
	}
	anchor := anchorMatch(st.Matches)
	slice := oracleSlice(in, anchor, pattern.Window.Size)
	if n := slice.events(); n > oracleStreamCap+len(anchor.Events) {
		t.Errorf("slice has %d events, cap is %d plus the anchor's", n, oracleStreamCap)
	}
	found := false
	for _, m := range cep2asp.EvaluateReference(pattern, slice[0]) {
		found = found || m.Key() == anchor.Key()
	}
	if !found {
		t.Error("the reference semantics does not find the anchor match in its slice")
	}
}

// TestHistQuantileInsideEngineBucket holds the interpolated quantile to the
// bucket whose upper bound the engine reports for the same quantile.
func TestHistQuantileInsideEngineBucket(t *testing.T) {
	rng := rand.New(rand.NewSource(1))
	var h obs.Histogram
	for i := 0; i < 20000; i++ {
		h.Record(int64(rng.ExpFloat64() * 3e6))
	}
	st := h.State()
	for _, q := range []float64{0.5, 0.95, 0.99} {
		upper := float64(h.Quantile(q))
		got := histQuantile(st, q)
		if got > upper || got < upper*0.9 {
			t.Errorf("q=%v: interpolated %v, engine bucket upper bound %v", q, got, upper)
		}
	}
}
