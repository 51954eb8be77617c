// Package obs is the engine-wide observability layer: a per-operator-
// instance metrics registry (records in/out, late arrivals, queue depth and
// blocked-send time per edge, processing-time histograms, watermarks and
// watermark lag), HDR-style log-bucketed latency histograms, a point-in-time
// snapshot API, and export surfaces (Prometheus text, topology JSON, CSV).
//
// The package is deliberately dependency-free (stdlib only) so every layer
// of the engine can attach to it without import cycles. All instruments are
// lock-free on the write path; a nil *Registry (or nil instrument handle)
// disables instrumentation entirely, which keeps the un-observed hot path at
// a single pointer comparison.
package obs

import (
	"math/bits"
	"sync/atomic"
)

// Histogram bucket geometry: values below 2^subBits land in exact unit
// buckets; above, each power of two is split into 2^subBits linear
// sub-buckets, bounding the relative quantile error at 2^-subBits (~3%).
// This is the bucketing scheme of HdrHistogram and Go's runtime/metrics,
// sized for int64 nanosecond durations (covers 1ns .. ~292y).
const (
	subBits    = 5
	subCount   = 1 << subBits // 32
	numBuckets = (64 - subBits) * subCount
)

// Histogram is a fixed-size log-bucketed histogram of non-negative int64
// samples (typically nanoseconds). Record is lock-free and safe for
// concurrent use; quantile reads race benignly with writers (they observe
// some recent consistent-enough state, as all monitoring counters do).
//
// The zero value is ready to use.
type Histogram struct {
	counts [numBuckets]atomic.Int64
	count  atomic.Int64
	sum    atomic.Int64
	max    atomic.Int64
}

// bucketOf maps a sample to its bucket index. Negative samples clamp to 0.
func bucketOf(v int64) int {
	if v < 0 {
		v = 0
	}
	u := uint64(v)
	if u < subCount {
		return int(u)
	}
	exp := bits.Len64(u) - 1 // position of the MSB, >= subBits
	sub := int(u>>uint(exp-subBits)) - subCount
	return (exp-subBits)*subCount + subCount + sub
}

// bucketUpper returns the inclusive upper bound of a bucket, used as the
// conservative representative value for quantiles.
func bucketUpper(i int) int64 {
	if i < subCount {
		return int64(i)
	}
	exp := uint((i-subCount)/subCount) + subBits
	sub := int64((i - subCount) % subCount)
	width := int64(1) << (exp - subBits)
	return int64(1)<<exp + (sub+1)*width - 1
}

// Record adds one sample.
func (h *Histogram) Record(v int64) { h.RecordN(v, 1) }

// RecordN adds n samples of value v — n calls of Record(v) at the price of
// one: three atomic adds and a compare-and-swap loop on the maximum that
// almost always ends at its first load. The engine records a consumed
// batch's mean per-record time with it. n <= 0 records nothing.
func (h *Histogram) RecordN(v, n int64) {
	if n <= 0 {
		return
	}
	h.counts[bucketOf(v)].Add(n)
	h.count.Add(n)
	if v > 0 {
		h.sum.Add(v * n)
	}
	for {
		cur := h.max.Load()
		if v <= cur || h.max.CompareAndSwap(cur, v) {
			return
		}
	}
}

// Count returns the number of recorded samples.
func (h *Histogram) Count() int64 { return h.count.Load() }

// Sum returns the sum of all recorded samples.
func (h *Histogram) Sum() int64 { return h.sum.Load() }

// Max returns the largest recorded sample (exact, not bucketed).
func (h *Histogram) Max() int64 { return h.max.Load() }

// Mean returns the average recorded sample, or 0 when empty.
func (h *Histogram) Mean() int64 {
	n := h.count.Load()
	if n == 0 {
		return 0
	}
	return h.sum.Load() / n
}

// Quantile returns an upper bound for the q-quantile (0 < q <= 1) with
// relative error bounded by the bucket width (~3%). Returns 0 when empty.
func (h *Histogram) Quantile(q float64) int64 {
	total := h.count.Load()
	if total == 0 {
		return 0
	}
	if q < 0 {
		q = 0
	}
	if q > 1 {
		q = 1
	}
	target := int64(q * float64(total))
	if target < 1 {
		target = 1
	}
	var seen int64
	for i := range h.counts {
		c := h.counts[i].Load()
		if c == 0 {
			continue
		}
		seen += c
		if seen >= target {
			u := bucketUpper(i)
			if m := h.max.Load(); u > m {
				return m // never report beyond the observed maximum
			}
			return u
		}
	}
	return h.max.Load()
}

// HistogramState is the serializable dense state of a histogram, used by
// checkpoint snapshots. Buckets are stored sparsely (index/count pairs).
type HistogramState struct {
	Idx   []int32
	N     []int64
	Count int64
	Sum   int64
	Max   int64
}

// State captures the histogram for serialization.
func (h *Histogram) State() HistogramState {
	st := HistogramState{Count: h.count.Load(), Sum: h.sum.Load(), Max: h.max.Load()}
	for i := range h.counts {
		if c := h.counts[i].Load(); c != 0 {
			st.Idx = append(st.Idx, int32(i))
			st.N = append(st.N, c)
		}
	}
	return st
}

// Restore replaces the histogram contents with a previously captured state.
// Not safe to call concurrently with Record.
func (h *Histogram) Restore(st HistogramState) {
	for i := range h.counts {
		h.counts[i].Store(0)
	}
	for k, i := range st.Idx {
		if i >= 0 && int(i) < numBuckets {
			h.counts[i].Store(st.N[k])
		}
	}
	h.count.Store(st.Count)
	h.sum.Store(st.Sum)
	h.max.Store(st.Max)
}
