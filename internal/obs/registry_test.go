package obs

import (
	"encoding/json"
	"io"
	"math"
	"net/http"
	"strings"
	"testing"
)

func TestNilRegistrySafe(t *testing.T) {
	var r *Registry
	if op := r.Operator("x", 0); op != nil {
		t.Fatal("nil registry returned a handle")
	}
	if e := r.Edge("a", "b", 1, nil); e != nil {
		t.Fatal("nil registry returned an edge handle")
	}
	r.ObserveEventTime(5)
	r.ResetGraph()
	var op *OperatorMetrics
	op.ObserveEventTime(5)
	var em *EdgeMetrics
	if em.Queued() != 0 {
		t.Fatal("nil edge Queued != 0")
	}
	s := r.Snapshot()
	if len(s.Operators) != 0 || len(s.Edges) != 0 {
		t.Fatal("nil registry snapshot not empty")
	}
}

func TestRegistrySnapshot(t *testing.T) {
	r := NewRegistry()
	op := r.Operator("join", 1)
	op.In.Add(10)
	op.Out.Add(4)
	op.Late.Add(2)
	op.Partials.Store(7)
	op.Proc.Record(1000)
	op.Watermark.Store(500)
	op.ObserveEventTime(800)
	depth := 3
	e := r.Edge("src", "join", 64, func() int { return depth })
	e.Sent.Add(10)
	e.BlockedNanos.Add(999)

	s := r.Snapshot()
	if len(s.Operators) != 1 || len(s.Edges) != 1 {
		t.Fatalf("snapshot sizes: %d ops, %d edges", len(s.Operators), len(s.Edges))
	}
	o := s.Operators[0]
	if o.Node != "join" || o.Instance != 1 || o.In != 10 || o.Out != 4 || o.Late != 2 || o.Partials != 7 {
		t.Fatalf("operator snapshot mismatch: %+v", o)
	}
	if !o.WatermarkValid || o.Watermark != 500 {
		t.Fatalf("watermark: %+v", o)
	}
	if o.WatermarkLagMs != 300 {
		t.Fatalf("lag = %d, want 300", o.WatermarkLagMs)
	}
	if o.ProcCount != 1 || o.ProcMax != 1000 {
		t.Fatalf("proc histogram: %+v", o)
	}
	ed := s.Edges[0]
	if ed.Queued != 3 || ed.Capacity != 64 || ed.Sent != 10 || ed.BlockedNanos != 999 {
		t.Fatalf("edge snapshot mismatch: %+v", ed)
	}
	if math.Abs(ed.FillPct-3.0/64*100) > 1e-9 {
		t.Fatalf("fill pct = %g", ed.FillPct)
	}
}

func TestRegistryLagClampsAndUnset(t *testing.T) {
	r := NewRegistry()
	op := r.Operator("sink", 0)
	// No watermark yet: invalid, zero lag.
	s := r.Snapshot()
	if s.Operators[0].WatermarkValid || s.Operators[0].WatermarkLagMs != 0 {
		t.Fatalf("unset watermark leaked: %+v", s.Operators[0])
	}
	// Watermark ahead of max event time (MaxWatermark flush): lag clamps to 0.
	op.Watermark.Store(math.MaxInt64)
	r.ObserveEventTime(100)
	s = r.Snapshot()
	if s.Operators[0].WatermarkLagMs != 0 {
		t.Fatalf("lag not clamped: %d", s.Operators[0].WatermarkLagMs)
	}
}

func TestRegistryResetGraphKeepsHistograms(t *testing.T) {
	r := NewRegistry()
	r.Operator("a", 0)
	r.Edge("a", "b", 1, nil)
	var h Histogram
	h.Record(42)
	r.RegisterHistogram("sink_detection_latency", &h)
	r.ResetGraph()
	s := r.Snapshot()
	if len(s.Operators) != 0 || len(s.Edges) != 0 {
		t.Fatal("ResetGraph left graph instruments")
	}
	if len(s.Histograms) != 1 || s.Histograms[0].Count != 1 {
		t.Fatal("ResetGraph dropped named histograms")
	}
	// Re-registering under the same name replaces the histogram.
	var h2 Histogram
	r.RegisterHistogram("sink_detection_latency", &h2)
	if s := r.Snapshot(); len(s.Histograms) != 1 || s.Histograms[0].Count != 0 {
		t.Fatalf("re-register did not replace: %+v", s.Histograms)
	}
}

func TestPrometheusAndTopologyEndpoints(t *testing.T) {
	r := NewRegistry()
	op := r.Operator("σ:q#1", 0)
	op.In.Add(5)
	op.Out.Add(3)
	op.Watermark.Store(1234)
	op.WatermarkNanos.Add(2_500_000)
	r.ObserveEventTime(2000)
	depth := 7
	r.Edge("src:\"QnV\"", "σ:q#1", 128, func() int { return depth })
	var h Histogram
	h.Record(5_000_000)
	r.RegisterHistogram("sink detection-latency", &h)

	srv, addr, err := Serve("127.0.0.1:0", r)
	if err != nil {
		t.Fatal(err)
	}
	defer srv.Close()

	resp, err := http.Get("http://" + addr + "/metrics")
	if err != nil {
		t.Fatal(err)
	}
	body, _ := io.ReadAll(resp.Body)
	resp.Body.Close()
	text := string(body)
	for _, want := range []string{
		`cep2asp_operator_records_in_total{node="σ:q#1",instance="0"} 5`,
		`cep2asp_operator_watermark_ms{node="σ:q#1",instance="0"} 1234`,
		`cep2asp_operator_watermark_lag_ms{node="σ:q#1",instance="0"} 766`,
		`cep2asp_operator_watermark_seconds_sum{node="σ:q#1",instance="0"} 0.0025`,
		`cep2asp_edge_queue_depth{from="src:\"QnV\"",to="σ:q#1"} 7`,
		`cep2asp_stream_max_event_time_ms 2000`,
		`cep2asp_sink_detection_latency_seconds{quantile="0.99"}`,
		`cep2asp_sink_detection_latency_seconds_count 1`,
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("/metrics missing %q in:\n%s", want, text)
		}
	}

	resp, err = http.Get("http://" + addr + "/debug/topology")
	if err != nil {
		t.Fatal(err)
	}
	var topo struct {
		Nodes []struct {
			Name        string `json:"name"`
			Parallelism int    `json:"parallelism"`
			In          int64  `json:"in"`
		} `json:"nodes"`
		Edges []struct {
			From    string  `json:"from"`
			Queued  int     `json:"queued"`
			FillPct float64 `json:"fill_pct"`
		} `json:"edges"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&topo); err != nil {
		t.Fatal(err)
	}
	resp.Body.Close()
	if len(topo.Nodes) != 1 || topo.Nodes[0].Name != "σ:q#1" || topo.Nodes[0].In != 5 {
		t.Fatalf("topology nodes: %+v", topo.Nodes)
	}
	if len(topo.Edges) != 1 || topo.Edges[0].Queued != 7 {
		t.Fatalf("topology edges: %+v", topo.Edges)
	}
	if topo.Edges[0].FillPct <= 0 {
		t.Fatal("fill pct not computed")
	}
}

func TestTopologyAggregatesInstances(t *testing.T) {
	r := NewRegistry()
	for i := 0; i < 3; i++ {
		op := r.Operator("join", i)
		op.In.Add(int64(i + 1))
		op.Watermark.Store(int64(100 * (i + 1)))
		op.WatermarkNanos.Add(10)
	}
	r.ObserveEventTime(1000)
	topo := Topology(r.Snapshot()).(topology)
	if len(topo.Nodes) != 1 {
		t.Fatalf("nodes = %d", len(topo.Nodes))
	}
	n := topo.Nodes[0]
	if n.Parallelism != 3 || n.In != 6 || n.WmNanos != 30 {
		t.Fatalf("aggregate mismatch: %+v", n)
	}
	if n.Watermark != 100 { // min over instances
		t.Fatalf("node watermark = %d, want min 100", n.Watermark)
	}
	if n.WmLagMs != 900 { // max lag over instances
		t.Fatalf("node lag = %d, want 900", n.WmLagMs)
	}
}

func TestRegistryHealthCounters(t *testing.T) {
	var nilr *Registry
	nilr.RecordFailure("boom")
	nilr.RecordRestart()
	nilr.RecordDeadLetter()
	if h := nilr.Health(); h != (HealthSnapshot{}) {
		t.Fatalf("nil registry health = %+v", h)
	}

	r := NewRegistry()
	r.RecordFailure("asp: operator join/0 panicked: boom")
	r.RecordRestart()
	r.RecordRestart()
	r.RecordDeadLetter()
	r.RecordDeadLetter()
	r.RecordDeadLetter()

	h := r.Health()
	if h.Failures != 1 || h.Restarts != 2 || h.DeadLetters != 3 {
		t.Fatalf("health = %+v", h)
	}
	if !strings.Contains(h.LastFailure, "join/0 panicked") {
		t.Fatalf("last failure = %q", h.LastFailure)
	}

	// Job-level health survives the graph reset a rebuilt attempt performs.
	r.Operator("join", 0)
	r.ResetGraph()
	if h := r.Health(); h.Failures != 1 || h.Restarts != 2 || h.DeadLetters != 3 {
		t.Fatalf("health after ResetGraph = %+v", h)
	}
	if s := r.Snapshot(); s.Health != h {
		t.Fatalf("snapshot health = %+v, want %+v", s.Health, h)
	}

	var b strings.Builder
	WritePrometheus(&b, r.Snapshot())
	text := b.String()
	for _, want := range []string{
		"cep2asp_job_failures_total 1",
		"cep2asp_job_restarts_total 2",
		"cep2asp_job_dead_letters_total 3",
		"cep2asp_job_last_failure_info",
	} {
		if !strings.Contains(text, want) {
			t.Fatalf("prometheus output missing %q:\n%s", want, text)
		}
	}

	data, err := json.Marshal(Topology(r.Snapshot()))
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(data), `"restarts":2`) {
		t.Fatalf("topology json missing health: %s", data)
	}
}
