package obs

import (
	"math"
	"math/rand"
	"sort"
	"sync"
	"testing"
)

func TestBucketMonotone(t *testing.T) {
	// Bucket indexes must be monotone in the sample value and bucket upper
	// bounds must be monotone in the index and contain their samples.
	prev := -1
	for _, v := range []int64{0, 1, 2, 31, 32, 33, 63, 64, 100, 1023, 1024,
		1 << 20, 1<<20 + 1, 1 << 40, math.MaxInt64 / 2, math.MaxInt64} {
		b := bucketOf(v)
		if b < prev {
			t.Fatalf("bucketOf(%d) = %d < previous %d", v, b, prev)
		}
		if up := bucketUpper(b); up < v {
			t.Fatalf("bucketUpper(%d) = %d < sample %d", b, up, v)
		}
		prev = b
	}
	for i := 1; i < numBuckets; i++ {
		if bucketUpper(i) <= bucketUpper(i-1) {
			t.Fatalf("bucketUpper not monotone at %d", i)
		}
	}
}

func TestHistogramRelativeError(t *testing.T) {
	// Every bucket's upper bound must be within 1/32 (~3.2%) of any value it
	// contains, for values above the exact range.
	for _, v := range []int64{33, 100, 999, 12345, 1 << 30, 987654321} {
		up := bucketUpper(bucketOf(v))
		if up < v {
			t.Fatalf("upper(%d) = %d below sample", v, up)
		}
		if rel := float64(up-v) / float64(v); rel > 1.0/16 {
			t.Fatalf("bucket error for %d is %.3f", v, rel)
		}
	}
}

// TestHistogramQuantileKnownDistribution asserts quantile correctness
// against a known distribution: the exact quantiles of the recorded sample
// set must be matched within the bucket resolution.
func TestHistogramQuantileKnownDistribution(t *testing.T) {
	var h Histogram
	rng := rand.New(rand.NewSource(7))
	values := make([]int64, 0, 20000)
	for i := 0; i < 20000; i++ {
		// Log-uniform over [1µs, 1s) in nanoseconds — a realistic latency
		// spread of six orders of magnitude.
		v := int64(math.Exp(rng.Float64()*math.Log(1e9/1e3)) * 1e3)
		values = append(values, v)
		h.Record(v)
	}
	sorted := append([]int64(nil), values...)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i] < sorted[j] })

	if h.Count() != int64(len(values)) {
		t.Fatalf("Count = %d, want %d", h.Count(), len(values))
	}
	if h.Max() != sorted[len(sorted)-1] {
		t.Fatalf("Max = %d, want %d", h.Max(), sorted[len(sorted)-1])
	}
	var sum int64
	for _, v := range values {
		sum += v
	}
	if h.Sum() != sum {
		t.Fatalf("Sum = %d, want %d", h.Sum(), sum)
	}

	for _, q := range []float64{0.10, 0.50, 0.90, 0.99, 1.0} {
		exact := sorted[int(math.Ceil(q*float64(len(sorted))))-1]
		got := h.Quantile(q)
		// The histogram reports a bucket upper bound: never below the exact
		// quantile's bucket lower edge, never more than ~2 bucket widths
		// (6.5%) above the exact value.
		if got < exact && float64(exact-got)/float64(exact) > 1.0/16 {
			t.Fatalf("q%.2f = %d, more than 6.5%% below exact %d", q, got, exact)
		}
		if got > exact && float64(got-exact)/float64(exact) > 1.0/16 {
			t.Fatalf("q%.2f = %d, more than 6.5%% above exact %d", q, got, exact)
		}
	}
}

func TestHistogramEmptyAndEdge(t *testing.T) {
	var h Histogram
	if h.Quantile(0.5) != 0 || h.Max() != 0 || h.Mean() != 0 {
		t.Fatal("empty histogram must report zeros")
	}
	h.Record(-5) // clamps to 0
	h.Record(0)
	if h.Count() != 2 {
		t.Fatalf("Count = %d", h.Count())
	}
	if q := h.Quantile(1); q != 0 {
		t.Fatalf("Quantile(1) = %d, want 0", q)
	}
}

func TestHistogramQuantileNeverExceedsMax(t *testing.T) {
	var h Histogram
	h.Record(1000003) // prime, lands mid-bucket
	for _, q := range []float64{0.5, 0.99, 1} {
		if got := h.Quantile(q); got != 1000003 {
			t.Fatalf("Quantile(%g) = %d, want clamped max 1000003", q, got)
		}
	}
}

func TestHistogramStateRoundTrip(t *testing.T) {
	var h Histogram
	for i := int64(1); i <= 1000; i++ {
		h.Record(i * 37)
	}
	st := h.State()
	var h2 Histogram
	h2.Record(999999999) // overwritten by Restore
	h2.Restore(st)
	if h2.Count() != h.Count() || h2.Sum() != h.Sum() || h2.Max() != h.Max() {
		t.Fatalf("restore mismatch: count %d/%d sum %d/%d max %d/%d",
			h2.Count(), h.Count(), h2.Sum(), h.Sum(), h2.Max(), h.Max())
	}
	for _, q := range []float64{0.5, 0.9, 0.99} {
		if h2.Quantile(q) != h.Quantile(q) {
			t.Fatalf("q%g differs after restore", q)
		}
	}
}

func TestHistogramConcurrentRecord(t *testing.T) {
	var h Histogram
	var wg sync.WaitGroup
	const perG, goroutines = 10000, 8
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(seed int64) {
			defer wg.Done()
			rng := rand.New(rand.NewSource(seed))
			for i := 0; i < perG; i++ {
				h.Record(rng.Int63n(1 << 30))
			}
		}(int64(g))
	}
	wg.Wait()
	if h.Count() != perG*goroutines {
		t.Fatalf("Count = %d, want %d", h.Count(), perG*goroutines)
	}
}

// TestHistogramRecordNEqualsRepeatedRecord holds RecordN(v, n) to n calls of
// Record(v): same count, sum, maximum and quantiles, and nothing for n <= 0.
func TestHistogramRecordNEqualsRepeatedRecord(t *testing.T) {
	var batched, single Histogram
	rng := rand.New(rand.NewSource(11))
	for i := 0; i < 500; i++ {
		v := int64(math.Exp(rng.Float64() * math.Log(1e9)))
		if i%50 == 0 {
			v = 0
		}
		n := int64(rng.Intn(65)) // includes 0
		batched.RecordN(v, n)
		for k := int64(0); k < n; k++ {
			single.Record(v)
		}
	}
	batched.RecordN(1<<40, 0)
	batched.RecordN(1<<40, -3)
	if batched.Count() != single.Count() || batched.Sum() != single.Sum() || batched.Max() != single.Max() {
		t.Fatalf("count/sum/max = %d/%d/%d batched, %d/%d/%d one by one",
			batched.Count(), batched.Sum(), batched.Max(), single.Count(), single.Sum(), single.Max())
	}
	for q := 0.0; q <= 1; q += 0.01 {
		if b, s := batched.Quantile(q), single.Quantile(q); b != s {
			t.Fatalf("q%.2f = %d batched, %d one by one", q, b, s)
		}
	}
}
