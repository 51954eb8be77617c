package harness

import (
	"context"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/obs"
	"cep2asp/internal/supervise"
	"cep2asp/internal/workload"
)

// tinyScale keeps harness tests fast.
func tinyScale() Scale {
	return Scale{
		QnVSensors: 5, QnVMinutes: 60,
		AQSensors: 5, AQMinutes: 60,
		Slots: 2, Seed: 42,
		Engine:  scaleEngine(1_000_000),
		Timeout: time.Minute,
	}
}

func TestRunSEQ1BothApproaches(t *testing.T) {
	sc := tinyScale()
	qnv := sc.qnvData()
	pat := PatternSEQ1(0.2, 15)
	fcep := sc.run(context.Background(), "t", pat, FCEP, qnv)
	fasp := sc.run(context.Background(), "t", pat, FASP, qnv)
	for _, r := range []RunResult{fcep, fasp} {
		if r.Failed {
			t.Fatalf("%s failed: %v", r.Approach, r.Err)
		}
		if r.Events != int64(2*sc.QnVSensors*sc.QnVMinutes) {
			t.Fatalf("%s events = %d", r.Approach, r.Events)
		}
		if r.ThroughputTps <= 0 {
			t.Fatalf("%s throughput = %f", r.Approach, r.ThroughputTps)
		}
		if r.AvgLatency <= 0 {
			t.Fatalf("%s latency = %v", r.Approach, r.AvgLatency)
		}
	}
	// Semantic equivalence: same unique match count.
	if fcep.Unique != fasp.Unique {
		t.Fatalf("unique matches differ: FCEP %d vs FASP %d", fcep.Unique, fasp.Unique)
	}
	if fasp.Unique == 0 {
		t.Fatal("expected some matches at 20% filter fraction")
	}
}

func TestRunAllApproachesAgreeOnITER(t *testing.T) {
	sc := tinyScale()
	data := only(sc.qnvData(), workload.TypeVelocity)
	pat := PatternITER(3, 0.3, 10, true, false)
	var uniques []int64
	for _, a := range []Approach{FCEP, FASP, FASPO1} {
		r := sc.run(context.Background(), "t", pat, a, data)
		if r.Failed {
			t.Fatalf("%s failed: %v", a.Name, r.Err)
		}
		uniques = append(uniques, r.Unique)
	}
	if uniques[0] != uniques[1] || uniques[1] != uniques[2] {
		t.Fatalf("unique counts disagree: %v", uniques)
	}
	// O2 is approximate: one output per qualifying window, not per combo.
	r := sc.run(context.Background(), "t", pat, FASPO2, data)
	if r.Failed {
		t.Fatalf("O2 failed: %v", r.Err)
	}
}

func TestRunNSEQAgree(t *testing.T) {
	sc := tinyScale()
	data := mergedData(sc.qnvData(), only(sc.aqData(), workload.TypePM10))
	pat := PatternNSEQ1(0.3, 15)
	fcep := sc.run(context.Background(), "t", pat, FCEP, data)
	fasp := sc.run(context.Background(), "t", pat, FASP, data)
	if fcep.Failed || fasp.Failed {
		t.Fatalf("failures: %v / %v", fcep.Err, fasp.Err)
	}
	if fcep.Unique != fasp.Unique {
		t.Fatalf("NSEQ unique matches differ: FCEP %d vs FASP %d", fcep.Unique, fasp.Unique)
	}
}

func TestKeyedApproachesAgree(t *testing.T) {
	sc := tinyScale()
	qnv := sc.qnvData()
	data := mergedData(qnv, only(sc.aqData(), workload.TypePM10))
	pat := PatternSEQ7(0.4, 15)
	var uniques []int64
	for _, a := range []Approach{WithO3(FCEP, 4), WithO3(FASP, 4), WithO3(FASPO1, 4)} {
		r := sc.run(context.Background(), "t", pat, a, data)
		if r.Failed {
			t.Fatalf("%s failed: %v", a.Name, r.Err)
		}
		uniques = append(uniques, r.Unique)
	}
	if uniques[0] != uniques[1] || uniques[1] != uniques[2] {
		t.Fatalf("keyed unique counts disagree: %v", uniques)
	}
}

func TestStateBudgetFailureReported(t *testing.T) {
	sc := tinyScale()
	sc.Engine.Overload.Budget.PerJob = 50 // absurdly small: every stateful run must fail
	qnv := sc.qnvData()
	r := sc.run(context.Background(), "t", PatternSEQ1(0.5, 60), FCEP, qnv)
	if !r.Failed {
		t.Fatal("expected state-budget failure")
	}
	if r.Err == nil || !strings.Contains(r.Err.Error(), "state") {
		t.Fatalf("unexpected error: %v", r.Err)
	}
}

// TestRunHonoursEngineConfig: Run executes under spec.Engine as given, so
// a registry attached there — and nowhere else — yields the per-operator
// snapshot on the result.
func TestRunHonoursEngineConfig(t *testing.T) {
	sc := tinyScale()
	reg := obs.NewRegistry()
	r := Run(context.Background(), RunSpec{
		Name:     "t",
		Pattern:  PatternSEQ1(0.2, 15),
		Approach: FASP,
		Data:     sc.qnvData(),
		Engine:   asp.Config{Metrics: reg},
	})
	if r.Failed {
		t.Fatalf("run failed: %v", r.Err)
	}
	if len(r.Operators) == 0 {
		t.Fatal("no per-operator snapshot: the run ignored Engine.Metrics")
	}
}

// countingStore counts the checkpoints saved into it, whichever attempt
// completed them.
type countingStore struct {
	checkpoint.Store
	saves atomic.Int64
}

func (s *countingStore) Save(snap *checkpoint.Snapshot) error {
	s.saves.Add(1)
	return s.Store.Save(snap)
}

// TestRestartReportsEveryAttemptsCheckpoints: a supervised run that
// restarts once reports the checkpoints of both attempts, not only the
// last attempt's.
func TestRestartReportsEveryAttemptsCheckpoints(t *testing.T) {
	sc := tinyScale()
	sc.CheckpointInterval = 2 * time.Millisecond
	policy := supervise.DefaultPolicy()
	sc.RestartPolicy = &policy
	qnv := sc.qnvData()
	// Panic 5 records before the end of one source, after the first
	// attempt has completed checkpoints.
	sc.ChaosFaults = []chaos.Fault{{Kind: chaos.Panic, Node: "src:QnVVelocity",
		AtHit: int64(len(qnv[workload.TypeVelocity]) - 5)}}
	spec := sc.spec("t", PatternSEQ1(0.2, 15), FASP, qnv)
	store := &countingStore{Store: spec.Engine.Checkpoint.Store}
	spec.Engine.Checkpoint.Store = store
	spec.SourceRatePerSec = 3000
	r := Run(context.Background(), spec)
	if r.Failed {
		t.Fatalf("run failed: %v", r.Err)
	}
	if r.Restarts != 1 {
		t.Fatalf("restarts = %d, want 1", r.Restarts)
	}
	got, saved := int64(len(r.Checkpoints)), store.saves.Load()
	t.Logf("%d checkpoints reported, %d completed across both attempts", got, saved)
	if got != saved || saved == 0 {
		t.Fatalf("row reports %d checkpoints; the attempts completed %d", got, saved)
	}
}

// TestTraceExportFailureReachesRow: a Chrome trace that cannot be written
// is an error on the row instead of vanishing; the run itself completed.
func TestTraceExportFailureReachesRow(t *testing.T) {
	file := filepath.Join(t.TempDir(), "file")
	if err := os.WriteFile(file, nil, 0o644); err != nil {
		t.Fatal(err)
	}
	sc := tinyScale()
	sc.TraceRate = 0.01
	sc.TraceOut = filepath.Join(file, "t.json") // below a regular file
	r := sc.run(context.Background(), "t", PatternSEQ1(0.2, 15), FASP, sc.qnvData())
	if r.Failed || !errors.Is(r.Err, ErrTraceExport) {
		t.Fatalf("failed = %v, err = %v; want a completed run with a trace export error", r.Failed, r.Err)
	}
	if r.Unique == 0 {
		t.Fatal("the row lost the run's counts")
	}
}

func TestTable2Support(t *testing.T) {
	table := Table2Support()
	for _, want := range []string{"AND", "SEQ", "OR", "ITER", "NSEQ"} {
		if !strings.Contains(table, want) {
			t.Fatalf("Table 2 missing %s:\n%s", want, table)
		}
	}
	// FCEP must reject AND and OR, FASP must support everything.
	lines := strings.Split(table, "\n")
	for _, l := range lines {
		if strings.HasPrefix(l, "AND") || strings.HasPrefix(l, "OR") {
			if !strings.Contains(l, "✗") {
				t.Fatalf("FCEP should not support %q", l)
			}
		}
		if strings.HasPrefix(l, "SEQ") || strings.HasPrefix(l, "ITER") || strings.HasPrefix(l, "NSEQ") {
			if strings.Contains(l, "✗") {
				t.Fatalf("unexpected unsupported entry: %q", l)
			}
		}
	}
}

func TestWorkloadGenerators(t *testing.T) {
	q, v := workload.QnV(workload.QnVConfig{Sensors: 3, Minutes: 10, Seed: 7})
	if len(q) != 30 || len(v) != 30 {
		t.Fatalf("QnV sizes = %d/%d, want 30/30", len(q), len(v))
	}
	st := workload.Describe(q)
	if st.Sensors != 3 {
		t.Fatalf("sensors = %d, want 3", st.Sensors)
	}
	// Determinism.
	q2, _ := workload.QnV(workload.QnVConfig{Sensors: 3, Minutes: 10, Seed: 7})
	for i := range q {
		if q[i] != q2[i] {
			t.Fatal("QnV not deterministic")
		}
	}
	// Time order.
	for i := 1; i < len(q); i++ {
		if q[i-1].TS > q[i].TS {
			t.Fatal("QnV stream not time-ordered")
		}
	}
	pm10, pm25, temp, hum := workload.AirQuality(workload.AQConfig{Sensors: 3, Minutes: 60, Seed: 7})
	for _, s := range [][]int{{len(pm10)}, {len(pm25)}, {len(temp)}, {len(hum)}} {
		if s[0] == 0 {
			t.Fatal("empty AQ stream")
		}
	}
	// Inter-arrival 3-5 minutes per sensor.
	perSensor := map[int64][]int64{}
	for _, e := range pm10 {
		perSensor[e.ID] = append(perSensor[e.ID], e.TS)
	}
	for id, tss := range perSensor {
		for i := 1; i < len(tss); i++ {
			gap := tss[i] - tss[i-1]
			if gap < 3*60000 || gap > 5*60000 {
				t.Fatalf("sensor %d inter-arrival %d out of [3,5] minutes", id, gap)
			}
		}
	}
}

func TestFig3aShape(t *testing.T) {
	if testing.Short() {
		t.Skip("scaled experiment")
	}
	sc := tinyScale()
	rows := Fig3aBaseline(context.Background(), sc)
	if len(rows) != 10 {
		t.Fatalf("fig3a rows = %d, want 10", len(rows))
	}
	byKey := map[string]RunResult{}
	for _, r := range rows {
		if r.Failed {
			t.Fatalf("%s/%s failed: %v", r.Name, r.Approach, r.Err)
		}
		byKey[r.Name+"/"+r.Approach] = r
	}
	// Semantic equivalence within each pattern (O2 excluded: approximate).
	for _, pat := range []string{"fig3a/SEQ1", "fig3a/ITER3_1", "fig3a/NSEQ1"} {
		fcep, fasp := byKey[pat+"/FCEP"], byKey[pat+"/FASP"]
		if fcep.Unique != fasp.Unique {
			t.Errorf("%s: unique FCEP %d != FASP %d", pat, fcep.Unique, fasp.Unique)
		}
		o1 := byKey[pat+"/FASP-O1"]
		if o1.Unique != fasp.Unique {
			t.Errorf("%s: unique O1 %d != FASP %d", pat, o1.Unique, fasp.Unique)
		}
	}
}

func TestLatencyAtSustainableRate(t *testing.T) {
	sc := tinyScale()
	rows := LatencyAtSustainableRate(context.Background(), sc, 0.5)
	if len(rows) != 6 {
		t.Fatalf("rows = %d, want 6 (3 approaches x full+throttled)", len(rows))
	}
	for i := 0; i < len(rows); i += 2 {
		full, throttled := rows[i], rows[i+1]
		if full.Failed || throttled.Failed {
			t.Fatalf("latency runs failed: %v / %v", full.Err, throttled.Err)
		}
		if throttled.Unique != full.Unique {
			t.Fatalf("%s: throttling changed results: %d vs %d", full.Approach, throttled.Unique, full.Unique)
		}
		// The throttled run must actually be slower than full speed.
		if throttled.ThroughputTps >= full.ThroughputTps {
			t.Fatalf("%s: throttled %.0f >= full %.0f tpl/s", full.Approach, throttled.ThroughputTps, full.ThroughputTps)
		}
	}
}
