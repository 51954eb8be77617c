package main

import "sort"

// metricDef declares one metric of the manifest. BENCHMARK.json repeats
// these tables; bench_test.go fails when the two disagree.
type metricDef struct {
	Name, Unit, Better string
	Bound              float64 // end-to-end only
}

// endToEnd are the metrics an untraced run (--trace 0) reports: what a user
// of the engine sees.
var endToEnd = []metricDef{
	{"throughput_tps", "1/s", "higher", 0.25},
	{"cpu_ns_per_event", "ns", "lower", 0.25},
	{"allocs_per_event", "count", "lower", 0.25},
	{"bytes_per_event", "B", "lower", 0.25},
	{"obs_throughput_tps", "1/s", "higher", 0.25},
	{"detect_latency_p50_ms", "ms", "lower", 0.25},
	{"detect_latency_p95_ms", "ms", "lower", 0.25},
	{"setup_s", "s", "lower", 0.25},
}

// perLayer are the metrics a traced run (--trace 1) reports, measured from
// outside each layer. A layer the workload's plan does not contain reports
// zeros.
var perLayer = []metricDef{
	{Name: "workload.generate_s", Unit: "s", Better: "lower"},
	{Name: "workload.events", Unit: "count", Better: "higher"},
	{Name: "sea.parse_us", Unit: "us", Better: "lower"},
	{Name: "core.translate_us", Unit: "us", Better: "lower"},
	{Name: "core.plan_nodes", Unit: "count", Better: "lower"},

	{Name: "asp.source.records_out", Unit: "count", Better: "higher"},
	{Name: "asp.source.blocked_share", Unit: "ratio", Better: "lower"},
	{Name: "asp.source.schedule_lag_ms", Unit: "ms", Better: "lower"},

	{Name: "asp.edge.records_sent", Unit: "count", Better: "lower"},
	{Name: "asp.edge.batches", Unit: "count", Better: "lower"},
	{Name: "asp.edge.batch_mean", Unit: "count", Better: "higher"},
	{Name: "asp.edge.blocked_share", Unit: "ratio", Better: "lower"},

	{Name: "asp.filter.records_in", Unit: "count", Better: "lower"},
	{Name: "asp.filter.records_out", Unit: "count", Better: "lower"},
	{Name: "asp.filter.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "asp.filter.proc_p50_ns", Unit: "ns", Better: "lower"},

	{Name: "asp.windowjoin.records_in", Unit: "count", Better: "lower"},
	{Name: "asp.windowjoin.records_out", Unit: "count", Better: "lower"},
	{Name: "asp.windowjoin.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "asp.windowjoin.proc_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "asp.windowjoin.state_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "asp.windowjoin.late", Unit: "count", Better: "lower"},

	{Name: "asp.intervaljoin.records_in", Unit: "count", Better: "lower"},
	{Name: "asp.intervaljoin.records_out", Unit: "count", Better: "lower"},
	{Name: "asp.intervaljoin.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "asp.intervaljoin.proc_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "asp.intervaljoin.state_peak_bytes", Unit: "B", Better: "lower"},
	{Name: "asp.intervaljoin.late", Unit: "count", Better: "lower"},

	{Name: "asp.sink.records_in", Unit: "count", Better: "lower"},
	{Name: "asp.sink.unique", Unit: "count", Better: "higher"},
	{Name: "asp.sink.dup_factor", Unit: "ratio", Better: "lower"},
	{Name: "asp.sink.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "asp.sink.proc_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "asp.sink.detect_latency_p99_ms", Unit: "ms", Better: "lower"},

	{Name: "cep.nfa.records_in", Unit: "count", Better: "lower"},
	{Name: "cep.nfa.records_out", Unit: "count", Better: "lower"},
	{Name: "cep.nfa.busy_share", Unit: "ratio", Better: "lower"},
	{Name: "cep.nfa.proc_p50_ns", Unit: "ns", Better: "lower"},
	{Name: "cep.nfa.partials_peak", Unit: "count", Better: "lower"},
	{Name: "nfa.step_ns_per_event", Unit: "ns", Better: "lower"},
	{Name: "nfa.step_allocs_per_event", Unit: "count", Better: "lower"},

	{Name: "asp.unattributed_cpu_share", Unit: "ratio", Better: "lower"},

	{Name: "checkpoint.completed", Unit: "count", Better: "higher"},
	{Name: "checkpoint.save_p50_us", Unit: "us", Better: "lower"},
	{Name: "checkpoint.bytes_max", Unit: "B", Better: "lower"},
	{Name: "checkpoint.interval_p50_ms", Unit: "ms", Better: "lower"},

	{Name: "exchange.encode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "exchange.decode_ns_per_record", Unit: "ns", Better: "lower"},
	{Name: "exchange.bytes_per_record", Unit: "B", Better: "lower"},

	{Name: "obs.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.overhead_pct", Unit: "%", Better: "lower"},
	{Name: "trace.queue_share", Unit: "ratio", Better: "lower"},
	{Name: "trace.e2e_p50_us", Unit: "us", Better: "lower"},
	{Name: "trace.e2e_p99_us", Unit: "us", Better: "lower"},
	{Name: "trace.spans", Unit: "count", Better: "higher"},

	{Name: "go.gc_cycles", Unit: "count", Better: "lower"},
	{Name: "go.gc_pause_total_ms", Unit: "ms", Better: "lower"},
	{Name: "go.heap_peak_mb", Unit: "MiB", Better: "lower"},
}

// median returns the middle value (mean of the two middle ones for an even
// count), or 0 for no values.
func median(values []float64) float64 {
	n := len(values)
	if n == 0 {
		return 0
	}
	s := append([]float64(nil), values...)
	sort.Float64s(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

// share returns part/whole, 0 when there is no whole.
func share(part, whole float64) float64 {
	if whole <= 0 {
		return 0
	}
	return part / whole
}
