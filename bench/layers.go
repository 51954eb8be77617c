package main

import (
	"math"
	"strings"
	"sync"
	"time"

	"cep2asp"
	"cep2asp/internal/obs"
)

// nodeKinds maps the node-name prefixes the translator assigns to the
// per-layer metric prefix of that node kind.
var nodeKinds = []struct{ prefix, layer string }{
	{"src:", "asp.source"},
	{"σ:", "asp.filter"},
	{"⋈w", "asp.windowjoin"},
	{"⋈i", "asp.intervaljoin"},
	{"cep-nfa", "cep.nfa"},
	{"sink", "asp.sink"},
}

func layerOf(node string) string {
	for _, k := range nodeKinds {
		if strings.HasPrefix(node, k.prefix) {
			return k.layer
		}
	}
	return ""
}

// statePeaks holds, per layer, the largest state the instances of that
// layer held together at any poll of a run.
type statePeaks struct {
	bytes, partials map[string]int64
}

// every calls fn from a goroutine of its own once per interval until the
// returned stop function is called; stop waits for the goroutine to end, so
// what fn wrote is safe to read afterwards.
func every(interval time.Duration, fn func()) (stop func()) {
	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
				fn()
			}
		}
	}()
	return func() {
		close(done)
		wg.Wait()
	}
}

// pollState samples the registry while a job runs, because state gauges
// read after the run only show what was left at end of stream. The returned
// function stops the polling and returns the peaks.
func pollState(reg *cep2asp.MetricsRegistry) (stop func() statePeaks) {
	peaks := statePeaks{bytes: map[string]int64{}, partials: map[string]int64{}}
	stopPolling := every(5*time.Millisecond, func() {
		bytes, partials := map[string]int64{}, map[string]int64{}
		for _, op := range reg.Snapshot().Operators {
			l := layerOf(op.Node)
			bytes[l] += op.StateBytes
			partials[l] += op.Partials
		}
		for l, v := range bytes {
			peaks.bytes[l] = max(peaks.bytes[l], v)
		}
		for l, v := range partials {
			peaks.partials[l] = max(peaks.partials[l], v)
		}
	})
	return func() statePeaks {
		stopPolling()
		return peaks
	}
}

// layerValues turns the registry snapshot of one full-speed pass into the
// per-layer metrics: counts at each node kind's boundary, its share of the
// process's CPU time and its median per-record time.
func layerValues(snap cep2asp.MetricsSnapshot, peaks statePeaks, s sample, out map[string]float64) {
	type agg struct {
		in, out, late, procSum, procCount int64
		p50Weighted                       float64
	}
	layers := map[string]*agg{}
	var procTotal int64
	for _, op := range snap.Operators {
		procTotal += op.ProcSum
		l := layerOf(op.Node)
		a := layers[l]
		if a == nil {
			a = &agg{}
			layers[l] = a
		}
		a.in += op.In
		a.out += op.Out
		a.late += op.Late
		a.procSum += op.ProcSum
		a.procCount += op.ProcCount
		a.p50Weighted += float64(op.ProcP50) * float64(op.ProcCount)
	}
	get := func(l string) agg {
		if a := layers[l]; a != nil {
			return *a
		}
		return agg{}
	}
	cpu := float64(s.cpuNs)
	// p50 is the instances' medians weighted by their record counts: the
	// snapshot carries quantiles, not buckets, per instance.
	p50 := func(a agg) float64 { return share(a.p50Weighted, float64(a.procCount)) }

	src := get("asp.source")
	out["asp.source.records_out"] = float64(src.out)
	for _, l := range []string{"asp.filter", "asp.windowjoin", "asp.intervaljoin", "asp.sink", "cep.nfa"} {
		a := get(l)
		out[l+".records_in"] = float64(a.in)
		out[l+".busy_share"] = share(float64(a.procSum), cpu)
		out[l+".proc_p50_ns"] = p50(a)
		if l != "asp.sink" {
			out[l+".records_out"] = float64(a.out)
		}
	}
	for _, l := range []string{"asp.windowjoin", "asp.intervaljoin"} {
		out[l+".late"] = float64(get(l).late)
		out[l+".state_peak_bytes"] = float64(peaks.bytes[l])
	}
	out["cep.nfa.partials_peak"] = float64(peaks.partials["cep.nfa"])
	out["asp.sink.unique"] = float64(s.stats.Unique)
	out["asp.sink.dup_factor"] = share(float64(get("asp.sink").in), float64(s.stats.Unique))
	out["asp.unattributed_cpu_share"] = 1 - share(float64(procTotal), cpu)

	var sent, batches, blocked, srcBlocked int64
	for _, e := range snap.Edges {
		sent += e.Sent
		batches += e.Batches
		blocked += e.BlockedNanos
		if strings.HasPrefix(e.From, "src:") {
			srcBlocked += e.BlockedNanos
		}
	}
	wall := float64(s.wall.Nanoseconds())
	out["asp.edge.records_sent"] = float64(sent)
	out["asp.edge.batches"] = float64(batches)
	out["asp.edge.batch_mean"] = share(float64(sent), float64(batches))
	// Sender-seconds blocked per wall second: above 1 when several senders
	// wait at once.
	out["asp.edge.blocked_share"] = share(float64(blocked), wall)
	out["asp.source.blocked_share"] = share(float64(srcBlocked), wall)
}

// latencyState returns the buckets of the sink's detection-latency
// histogram, empty when the job registered none.
func latencyState(reg *cep2asp.MetricsRegistry) obs.HistogramState {
	for _, h := range reg.Snapshot().Histograms {
		if h.Name == "sink_detection_latency" {
			return h.State
		}
	}
	return obs.HistogramState{}
}

// bucketUpper asks the engine's histogram for the largest value bucket i
// holds, so that the benchmark never repeats the bucket geometry.
func bucketUpper(i int32) float64 {
	var h obs.Histogram
	h.Restore(obs.HistogramState{Idx: []int32{i}, N: []int64{1}, Count: 1, Max: math.MaxInt64})
	return float64(h.Quantile(1))
}

// histQuantile reads the q-quantile from a histogram's buckets, placing it
// inside its bucket by linear interpolation. The engine's own Quantile (and
// RunStats.P50Latency) reports the bucket's upper bound, which reads
// identically on every run that lands in the same bucket; the interpolated
// value moves with the samples.
func histQuantile(st obs.HistogramState, q float64) float64 {
	target := q * float64(st.Count)
	var seen float64
	for k, idx := range st.Idx {
		n := float64(st.N[k])
		if seen+n >= target {
			hi := bucketUpper(idx)
			lo := hi
			if idx > 0 {
				lo = bucketUpper(idx - 1)
			}
			return min(lo+(hi-lo)*(target-seen)/n, float64(st.Max))
		}
		seen += n
	}
	return float64(st.Max)
}
