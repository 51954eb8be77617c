package core

import (
	"time"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/overload"
	"cep2asp/internal/supervise"
	"cep2asp/internal/trace"
)

// RunTotals is what a Run adds up across its execution attempts, shared by
// every plan of the run: sums of the shed records, lost-match bounds and
// checkpoints, maxima of the peaks.
type RunTotals struct {
	// Events counts the input tuples, each stream once however many plans
	// read it; Elapsed is the wall-clock time of the whole run.
	Events  int64
	Elapsed time.Duration
	// Restarts is the number of supervised restarts performed (0 without a
	// restart policy); DeadLetters lists the poison records quarantined
	// and routed to the dead-letter queue during the run.
	Restarts    int
	DeadLetters []supervise.Letter
	// ShedRecords counts state records evicted under the Shed overload
	// policy (0 otherwise — shedding is never silent); PeakStateRecords is
	// the high-water mark of records retained across the job while a budget
	// was armed; PeakHeapBytes is the peak live heap sampled by the memory
	// admission controller (0 when it never ran).
	ShedRecords      int64
	PeakStateRecords int64
	PeakHeapBytes    int64
	// RecallLostBound is the accumulated upper bound on the matches
	// evicted state could still have produced (0 without shedding).
	RecallLostBound float64
	// QualityActions lists the decisions the quality controllers took, in
	// order (empty without quality demands).
	QualityActions []string
	// Checkpoints are the checkpoints every execution attempt completed,
	// in order.
	Checkpoints []checkpoint.Stat
	// Trace is the end-to-end latency breakdown of the sampled traces
	// (zero value unless the engine traced).
	Trace trace.Summary
	// Replans counts the mid-run plan switches (0 without a Replanner).
	Replans int
}

// Report is one plan's outcome of a Run: the evaluation's metrics (§5.1.3)
// — sustained throughput, detection latency, output selectivity, peak
// state — beside the run's recovery, overload, checkpoint and trace
// accounting.
type Report struct {
	// ThroughputTps is Events/Elapsed, the sustained throughput of a run
	// that completed (0 for one that failed).
	ThroughputTps float64
	// Total counts emitted matches including duplicates from overlapping
	// windows; Unique counts distinct matches; SelectivityPct is
	// Unique/Events*100.
	Total          int64
	Unique         int64
	SelectivityPct float64
	// Matches holds the distinct matches when retained.
	Matches []*event.Match
	// AvgLatency / MaxLatency are detection latencies (creation to sink).
	AvgLatency time.Duration
	MaxLatency time.Duration
	// P50/P90/P99Latency are detection-latency quantiles from the sink's
	// log-bucketed histogram (~3% bucket resolution).
	P50Latency time.Duration
	P90Latency time.Duration
	P99Latency time.Duration
	// RecallEstimate is the guaranteed lower bound on achieved recall:
	// Unique / (Unique + RecallLostBound), or 1 when nothing was shed.
	RecallEstimate float64
	// Plan is the executed plan; for re-planned runs the last generation.
	// Plans holds each plan generation's explanation, in execution order
	// (Replanner only).
	Plan  *Plan
	Plans []string
	RunTotals
}

// Stats is plan i's Report.
func (r *RunReport) Stats(i int) Report {
	sink := r.Sinks[i]
	st := Report{
		Total:      sink.Total(),
		Unique:     sink.Unique(),
		Matches:    sink.Matches(),
		AvgLatency: sink.AvgLatency(),
		MaxLatency: sink.MaxLatency(),
		Plan:       r.Plans[i],
		Plans:      r.Explains,
		RunTotals:  r.RunTotals,
	}
	st.P50Latency, st.P90Latency, st.P99Latency = sink.LatencyPercentiles()
	st.RecallEstimate = overload.RecallEstimate(st.Unique, r.RecallLostBound)
	if r.Completed && r.Elapsed > 0 {
		st.ThroughputTps = float64(r.Events) / r.Elapsed.Seconds()
	}
	if r.Events > 0 {
		st.SelectivityPct = float64(st.Unique) / float64(r.Events) * 100
	}
	return st
}
