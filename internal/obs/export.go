package obs

import (
	"encoding/json"
	"fmt"
	"io"
	"net"
	"net/http"
	"net/http/pprof"
	"strings"
)

// promWriter renders snapshots in the Prometheus text exposition format.
// extra, when non-empty, is an additional label pair (e.g. `worker="1"`)
// appended to every series — the federation endpoint uses it to keep one
// worker's series distinguishable from another's. headers toggles the
// HELP/TYPE preamble so a federated export emits each metric's header once
// even though several workers contribute series.
type promWriter struct {
	w       io.Writer
	extra   string
	headers bool
}

func (p *promWriter) header(name, typ, help string) {
	if p.headers {
		fmt.Fprintf(p.w, "# HELP %s %s\n# TYPE %s %s\n", name, help, name, typ)
	}
}

// labels joins a base label set with the writer's extra labels.
func (p *promWriter) labels(base string) string {
	switch {
	case base == "":
		return p.extra
	case p.extra == "":
		return base
	default:
		return base + "," + p.extra
	}
}

// line writes one sample; val is the preformatted sample value. A metric
// with no labels at all is written bare (no `{}`).
func (p *promWriter) line(name, base, val string) {
	if l := p.labels(base); l != "" {
		fmt.Fprintf(p.w, "%s{%s} %s\n", name, l, val)
	} else {
		fmt.Fprintf(p.w, "%s %s\n", name, val)
	}
}

func d(v int64) string   { return fmt.Sprintf("%d", v) }
func g(v float64) string { return fmt.Sprintf("%g", v) }

// WritePrometheus renders the registry's current snapshot in the Prometheus
// text exposition format (version 0.0.4). Counters carry a _total suffix;
// histograms are rendered as summaries with quantile labels; durations are
// converted to seconds as the Prometheus base unit.
func WritePrometheus(w io.Writer, s Snapshot) {
	(&promWriter{w: w, headers: true}).snapshot(s)
}

// WriteClusterPrometheus renders one snapshot per worker, each series
// carrying a worker="N" label; metric headers are emitted once (with the
// first worker's section). This is the body of /cluster/metrics.
func WriteClusterPrometheus(w io.Writer, statuses []WorkerStatus) {
	for i, ws := range statuses {
		p := &promWriter{w: w, extra: fmt.Sprintf(`worker="%d"`, ws.Worker), headers: i == 0}
		p.snapshot(ws.Snap)
		p.header("cep2asp_worker_goroutines", "gauge", "Goroutines in the worker process.")
		p.line("cep2asp_worker_goroutines", "", d(int64(ws.Goroutines)))
		p.header("cep2asp_worker_heap_bytes", "gauge", "Heap bytes in use by the worker process.")
		p.line("cep2asp_worker_heap_bytes", "", d(int64(ws.HeapBytes)))
		p.header("cep2asp_worker_heartbeat_age_ms", "gauge", "Milliseconds since the worker's last stats push (0 = local).")
		p.line("cep2asp_worker_heartbeat_age_ms", "", d(ws.LastSeenMs))
	}
}

func (p *promWriter) snapshot(s Snapshot) {
	p.header("cep2asp_operator_records_in_total", "counter", "Data records received by an operator instance.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_records_in_total", opLabels(o), d(o.In))
	}
	p.header("cep2asp_operator_records_out_total", "counter", "Data records emitted by an operator instance.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_records_out_total", opLabels(o), d(o.Out))
	}
	p.header("cep2asp_operator_late_records_total", "counter", "Data records that arrived at or below the instance's watermark.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_late_records_total", opLabels(o), d(o.Late))
	}
	p.header("cep2asp_operator_watermark_ms", "gauge", "Current output watermark of the instance (event-time ms).")
	for _, o := range s.Operators {
		if o.WatermarkValid {
			p.line("cep2asp_operator_watermark_ms", opLabels(o), d(o.Watermark))
		}
	}
	p.header("cep2asp_operator_watermark_lag_ms", "gauge", "Max source event time minus the instance's watermark (event-time ms).")
	for _, o := range s.Operators {
		if o.WatermarkValid {
			p.line("cep2asp_operator_watermark_lag_ms", opLabels(o), d(o.WatermarkLagMs))
		}
	}
	p.header("cep2asp_operator_partial_matches", "gauge", "Operator-held state in accounting units (NFA partial matches, join/window buffers, aggregation groups).")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_partial_matches", opLabels(o), d(o.Partials))
	}
	p.header("cep2asp_operator_state_bytes", "gauge", "Approximate byte footprint of the instance's retained state.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_state_bytes", opLabels(o), d(o.StateBytes))
	}
	p.header("cep2asp_operator_shed_records_total", "counter", "Accounting units evicted by the instance under the Shed overload policy.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_shed_records_total", opLabels(o), d(o.Shed))
	}
	p.header("cep2asp_operator_watermark_seconds_sum", "counter", "Time the instance spent inside OnWatermark.")
	for _, o := range s.Operators {
		p.line("cep2asp_operator_watermark_seconds_sum", opLabels(o), g(secs(o.WatermarkNanos)))
	}
	p.header("cep2asp_operator_proc_seconds", "summary", "Per-record processing time: each record carries the mean of the batch it was consumed in.")
	for _, o := range s.Operators {
		l := opLabels(o)
		p.line("cep2asp_operator_proc_seconds", l+`,quantile="0.5"`, g(secs(o.ProcP50)))
		p.line("cep2asp_operator_proc_seconds", l+`,quantile="0.9"`, g(secs(o.ProcP90)))
		p.line("cep2asp_operator_proc_seconds", l+`,quantile="0.99"`, g(secs(o.ProcP99)))
		p.line("cep2asp_operator_proc_seconds_sum", l, g(secs(o.ProcSum)))
		p.line("cep2asp_operator_proc_seconds_count", l, d(o.ProcCount))
	}

	p.header("cep2asp_edge_queue_depth", "gauge", "Records queued on the edge's receiver channels.")
	for _, e := range s.Edges {
		p.line("cep2asp_edge_queue_depth", edgeLabels(e), d(int64(e.Queued)))
	}
	p.header("cep2asp_edge_capacity", "gauge", "Total buffering capacity of the edge.")
	for _, e := range s.Edges {
		p.line("cep2asp_edge_capacity", edgeLabels(e), d(int64(e.Capacity)))
	}
	p.header("cep2asp_edge_sent_total", "counter", "Records pushed into the edge.")
	for _, e := range s.Edges {
		p.line("cep2asp_edge_sent_total", edgeLabels(e), d(e.Sent))
	}
	p.header("cep2asp_edge_blocked_seconds_total", "counter", "Time senders spent blocked on the edge's full channels (backpressure).")
	for _, e := range s.Edges {
		p.line("cep2asp_edge_blocked_seconds_total", edgeLabels(e), g(secs(e.BlockedNanos)))
	}
	p.header("cep2asp_edge_batch_records", "summary", "Records per channel transfer on the edge (edge batching).")
	for _, e := range s.Edges {
		l := edgeLabels(e)
		p.line("cep2asp_edge_batch_records", l+`,quantile="0.5"`, d(e.BatchP50))
		p.line("cep2asp_edge_batch_records", l+`,quantile="0.99"`, d(e.BatchP99))
		p.line("cep2asp_edge_batch_records_sum", l, d(e.Sent))
		p.line("cep2asp_edge_batch_records_count", l, d(e.Batches))
	}

	p.header("cep2asp_pool_hits_total", "counter", "Buffers recycled from an engine buffer pool.")
	for _, pl := range s.Pools {
		p.line("cep2asp_pool_hits_total", fmt.Sprintf(`pool="%s"`, escapeLabel(pl.Name)), d(pl.Hits))
	}
	p.header("cep2asp_pool_misses_total", "counter", "Fresh allocations because an engine buffer pool was empty.")
	for _, pl := range s.Pools {
		p.line("cep2asp_pool_misses_total", fmt.Sprintf(`pool="%s"`, escapeLabel(pl.Name)), d(pl.Misses))
	}

	if len(s.Nets) > 0 {
		p.header("cep2asp_net_frames_out_total", "counter", "Data-plane frames written to a network exchange peer.")
		for _, n := range s.Nets {
			p.line("cep2asp_net_frames_out_total", fmt.Sprintf(`peer="%s"`, escapeLabel(n.Peer)), d(n.FramesOut))
		}
		p.header("cep2asp_net_bytes_out_total", "counter", "Data-plane bytes (frames incl. headers) written to a network exchange peer.")
		for _, n := range s.Nets {
			p.line("cep2asp_net_bytes_out_total", fmt.Sprintf(`peer="%s"`, escapeLabel(n.Peer)), d(n.BytesOut))
		}
		p.header("cep2asp_net_frames_in_total", "counter", "Data-plane frames received from a network exchange peer.")
		for _, n := range s.Nets {
			p.line("cep2asp_net_frames_in_total", fmt.Sprintf(`peer="%s"`, escapeLabel(n.Peer)), d(n.FramesIn))
		}
		p.header("cep2asp_net_bytes_in_total", "counter", "Data-plane bytes (frames incl. headers) received from a network exchange peer.")
		for _, n := range s.Nets {
			p.line("cep2asp_net_bytes_in_total", fmt.Sprintf(`peer="%s"`, escapeLabel(n.Peer)), d(n.BytesIn))
		}
	}

	if s.MaxEventTime != unset {
		p.header("cep2asp_stream_max_event_time_ms", "gauge", "Largest event time emitted by any source (event-time ms).")
		p.line("cep2asp_stream_max_event_time_ms", "", d(s.MaxEventTime))
	}

	p.header("cep2asp_job_failures_total", "counter", "Job execution failures (isolated operator panics and other run-fatal errors).")
	p.line("cep2asp_job_failures_total", "", d(s.Health.Failures))
	p.header("cep2asp_job_restarts_total", "counter", "Supervised restarts performed after restartable failures.")
	p.line("cep2asp_job_restarts_total", "", d(s.Health.Restarts))
	p.header("cep2asp_job_dead_letters_total", "counter", "Poison records routed to the dead-letter queue.")
	p.line("cep2asp_job_dead_letters_total", "", d(s.Health.DeadLetters))
	p.header("cep2asp_job_dead_letters_dropped_total", "counter", "Dead letters evicted from the capped dead-letter queue (drop-oldest).")
	p.line("cep2asp_job_dead_letters_dropped_total", "", d(s.Health.DeadLettersDropped))
	p.header("cep2asp_heartbeat_timeouts_total", "counter", "Worker liveness deadlines expired by the coordinator's failure detector.")
	p.line("cep2asp_heartbeat_timeouts_total", "", d(s.Health.HeartbeatTimeouts))
	if s.Health.HeartbeatTimeouts > 0 {
		p.header("cep2asp_failure_detect_ms", "gauge", "Silence duration at which the last liveness expiry fired (detection latency).")
		p.line("cep2asp_failure_detect_ms", "", d(s.Health.DetectLatencyMs))
	}
	if s.Health.LastFailure != "" {
		p.header("cep2asp_job_last_failure_info", "gauge", "Description of the most recent job failure.")
		p.line("cep2asp_job_last_failure_info", fmt.Sprintf(`error="%s"`, escapeLabel(s.Health.LastFailure)), "1")
	}

	if s.Overload.Armed {
		p.header("cep2asp_job_shed_records_total", "counter", "Accounting units evicted job-wide under the Shed overload policy.")
		p.line("cep2asp_job_shed_records_total", "", d(s.Overload.ShedRecords))
		p.header("cep2asp_job_peak_state_records", "gauge", "Largest job-wide buffered element count observed on the budgeted run.")
		p.line("cep2asp_job_peak_state_records", "", d(s.Overload.PeakState))
		p.header("cep2asp_job_matches_total", "counter", "Matches delivered to terminal (sink) nodes.")
		p.line("cep2asp_job_matches_total", "", d(s.Overload.Matches))
		p.header("cep2asp_job_lost_match_bound", "gauge", "Accumulated upper bound on matches evicted state could still have produced.")
		p.line("cep2asp_job_lost_match_bound", "", g(s.Overload.LostBound))
		p.header("cep2asp_job_recall_estimate", "gauge", "Guaranteed lower bound on achieved recall (1 = nothing lost).")
		p.line("cep2asp_job_recall_estimate", "", g(s.Overload.RecallEstimate))
	}

	for _, h := range s.Histograms {
		name := "cep2asp_" + sanitizeMetricName(h.Name) + "_seconds"
		p.header(name, "summary", "Named latency histogram.")
		p.line(name, `quantile="0.5"`, g(secs(h.P50)))
		p.line(name, `quantile="0.9"`, g(secs(h.P90)))
		p.line(name, `quantile="0.99"`, g(secs(h.P99)))
		p.line(name+"_sum", "", g(secs(h.Sum)))
		p.line(name+"_count", "", d(h.Count))
	}
}

func secs(ns int64) float64 { return float64(ns) / 1e9 }

func opLabels(o OperatorSnapshot) string {
	return fmt.Sprintf(`node="%s",instance="%d"`, escapeLabel(o.Node), o.Instance)
}

func edgeLabels(e EdgeSnapshot) string {
	return fmt.Sprintf(`from="%s",to="%s"`, escapeLabel(e.From), escapeLabel(e.To))
}

// escapeLabel escapes a Prometheus label value (backslash, quote, newline).
func escapeLabel(v string) string {
	v = strings.ReplaceAll(v, `\`, `\\`)
	v = strings.ReplaceAll(v, `"`, `\"`)
	v = strings.ReplaceAll(v, "\n", `\n`)
	return v
}

// sanitizeMetricName maps an arbitrary histogram name to the Prometheus
// metric-name alphabet [a-zA-Z0-9_].
func sanitizeMetricName(name string) string {
	var b strings.Builder
	for _, r := range name {
		switch {
		case r >= 'a' && r <= 'z', r >= 'A' && r <= 'Z', r >= '0' && r <= '9', r == '_':
			b.WriteRune(r)
		default:
			b.WriteByte('_')
		}
	}
	return b.String()
}

// topology is the JSON document served at /debug/topology: the DAG with
// per-node aggregated metrics and live per-edge queue fill.
type topology struct {
	MaxEventTime int64          `json:"max_event_time"`
	Nodes        []topoNode     `json:"nodes"`
	Edges        []EdgeSnapshot `json:"edges"`
	Health       HealthSnapshot `json:"health"`
}

type topoNode struct {
	Name        string             `json:"name"`
	Parallelism int                `json:"parallelism"`
	In          int64              `json:"in"`
	Out         int64              `json:"out"`
	Late        int64              `json:"late"`
	Watermark   int64              `json:"watermark"`
	WmValid     bool               `json:"watermark_valid"`
	WmLagMs     int64              `json:"watermark_lag_ms"`
	Partials    int64              `json:"partials"`
	StateBytes  int64              `json:"state_bytes"`
	Shed        int64              `json:"shed"`
	ProcP99     int64              `json:"proc_p99_ns"`
	WmNanos     int64              `json:"wm_ns"`
	Instances   []OperatorSnapshot `json:"instances"`
}

// Topology aggregates a snapshot into the DAG view: instances grouped under
// their node (registration order preserved), watermark = min over instances,
// lag = max over instances.
func Topology(s Snapshot) any {
	t := topology{MaxEventTime: s.MaxEventTime, Edges: s.Edges, Health: s.Health}
	if t.Edges == nil {
		t.Edges = []EdgeSnapshot{}
	}
	idx := map[string]int{}
	for _, o := range s.Operators {
		i, ok := idx[o.Node]
		if !ok {
			i = len(t.Nodes)
			idx[o.Node] = i
			t.Nodes = append(t.Nodes, topoNode{Name: o.Node})
		}
		n := &t.Nodes[i]
		n.Parallelism++
		n.In += o.In
		n.Out += o.Out
		n.Late += o.Late
		n.Partials += o.Partials
		n.StateBytes += o.StateBytes
		n.Shed += o.Shed
		n.WmNanos += o.WatermarkNanos
		if o.WatermarkValid && (!n.WmValid || o.Watermark < n.Watermark) {
			n.Watermark, n.WmValid = o.Watermark, true
		}
		if o.WatermarkLagMs > n.WmLagMs {
			n.WmLagMs = o.WatermarkLagMs
		}
		if o.ProcP99 > n.ProcP99 {
			n.ProcP99 = o.ProcP99
		}
		n.Instances = append(n.Instances, o)
	}
	if t.Nodes == nil {
		t.Nodes = []topoNode{}
	}
	return t
}

// clusterWorkerView is the per-worker entry in /cluster/topology: liveness
// and resource gauges plus the per-peer data-plane frame counters, without
// the full operator snapshot (that lives in /cluster/metrics).
type clusterWorkerView struct {
	Worker     int            `json:"worker"`
	Name       string         `json:"name"`
	Attempt    int            `json:"attempt"`
	LastSeenMs int64          `json:"last_seen_ms"`
	Goroutines int            `json:"goroutines"`
	HeapBytes  uint64         `json:"heap_bytes"`
	Health     HealthSnapshot `json:"health"`
	RecordsIn  int64          `json:"records_in"`
	RecordsOut int64          `json:"records_out"`
	Nets       []NetSnapshot  `json:"nets,omitempty"`
	// Bounded-state degradation, federated per worker: total units shed,
	// peak job-wide state, and the worker's live recall estimate. Only
	// meaningful when Overload.Armed is set on the worker's snapshot.
	Shed           int64   `json:"shed,omitempty"`
	PeakState      int64   `json:"peak_state,omitempty"`
	RecallEstimate float64 `json:"recall_estimate,omitempty"`
}

// ClusterTopology reduces the federated worker statuses to the per-worker
// health view served at /cluster/topology.
func ClusterTopology(statuses []WorkerStatus) any {
	views := make([]clusterWorkerView, 0, len(statuses))
	for _, ws := range statuses {
		v := clusterWorkerView{
			Worker: ws.Worker, Name: ws.Name, Attempt: ws.Attempt,
			LastSeenMs: ws.LastSeenMs, Goroutines: ws.Goroutines,
			HeapBytes: ws.HeapBytes, Health: ws.Snap.Health, Nets: ws.Snap.Nets,
		}
		for _, o := range ws.Snap.Operators {
			v.RecordsIn += o.In
			v.RecordsOut += o.Out
		}
		if ov := ws.Snap.Overload; ov.Armed {
			v.Shed = ov.ShedRecords
			v.PeakState = ov.PeakState
			v.RecallEstimate = ov.RecallEstimate
		}
		views = append(views, v)
	}
	return map[string]any{"workers": views}
}

// Handler serves the registry's live observability surface:
//
//	/metrics          — this process's registry, Prometheus text format
//	/debug/topology   — this process's DAG view, JSON
//	/cluster/metrics  — federated per-worker series (coordinator only)
//	/cluster/topology — federated per-worker health (coordinator only)
//	/debug/pprof/*    — standard Go profiling endpoints
//	/healthz          — liveness probe
func Handler(r *Registry) http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("/metrics", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WritePrometheus(w, r.Snapshot())
	})
	mux.HandleFunc("/debug/topology", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(Topology(r.Snapshot()))
	})
	mux.HandleFunc("/cluster/metrics", func(w http.ResponseWriter, _ *http.Request) {
		fn := r.ClusterFn()
		if fn == nil {
			http.Error(w, "no cluster provider: this process is not coordinating a distributed run", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "text/plain; version=0.0.4; charset=utf-8")
		WriteClusterPrometheus(w, fn())
	})
	mux.HandleFunc("/cluster/topology", func(w http.ResponseWriter, _ *http.Request) {
		fn := r.ClusterFn()
		if fn == nil {
			http.Error(w, "no cluster provider: this process is not coordinating a distributed run", http.StatusNotFound)
			return
		}
		w.Header().Set("Content-Type", "application/json")
		enc := json.NewEncoder(w)
		enc.SetIndent("", "  ")
		enc.Encode(ClusterTopology(fn()))
	})
	mux.HandleFunc("/healthz", func(w http.ResponseWriter, _ *http.Request) {
		w.Header().Set("Content-Type", "text/plain; charset=utf-8")
		io.WriteString(w, "ok\n")
	})
	mux.HandleFunc("/debug/pprof/", pprof.Index)
	mux.HandleFunc("/debug/pprof/cmdline", pprof.Cmdline)
	mux.HandleFunc("/debug/pprof/profile", pprof.Profile)
	mux.HandleFunc("/debug/pprof/symbol", pprof.Symbol)
	mux.HandleFunc("/debug/pprof/trace", pprof.Trace)
	return mux
}

// Serve starts the live metrics endpoint on addr (":0" picks a free port)
// and returns the server plus the bound address. Shut it down with
// srv.Close when the run finishes.
func Serve(addr string, r *Registry) (*http.Server, string, error) {
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, "", err
	}
	srv := &http.Server{Handler: Handler(r)}
	go srv.Serve(ln)
	return srv, ln.Addr().String(), nil
}
