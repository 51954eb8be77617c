package overload

// Rate is an exponentially weighted moving average of an arrival rate in
// events per event-time unit, fed one timestamp per arrival. It is the
// live stream statistic the completion scorer and the recall accountant
// consume. Not goroutine-safe: each operator instance owns its rates and
// observes them from its single processing goroutine.
type Rate struct {
	alpha  float64
	last   int64
	value  float64
	primed bool
}

// DefaultRateAlpha weights recent inter-arrival gaps heavily enough to
// track bursts while smoothing single outliers.
const DefaultRateAlpha = 0.2

// NewRate builds an EWMA rate tracker; alpha <= 0 selects the default.
func NewRate(alpha float64) *Rate {
	if alpha <= 0 || alpha > 1 {
		alpha = DefaultRateAlpha
	}
	return &Rate{alpha: alpha}
}

// Observe feeds one arrival at event time ts. Out-of-order or equal
// timestamps count as a minimal gap, biasing the rate upward — safe for
// both consumers (a higher rate only raises loss bounds and completion
// scores of competing state uniformly).
func (r *Rate) Observe(ts int64) {
	if !r.primed {
		r.primed = true
		r.last = ts
		return
	}
	gap := ts - r.last
	r.last = ts
	if gap < 1 {
		gap = 1
	}
	sample := 1 / float64(gap)
	if r.value == 0 {
		r.value = sample
		return
	}
	r.value = r.alpha*sample + (1-r.alpha)*r.value
}

// PerTimeUnit returns the current rate estimate in events per event-time
// unit (0 until two arrivals have been observed).
func (r *Rate) PerTimeUnit() float64 { return r.value }

// CompletionValue ranks a unit of partial state for victim selection:
// primarily by how few transitions it still needs, and within a stage by
// lambda = rate*timeLeft, the expected number of qualifying arrivals it
// has left (fresher units rank higher). Near-complete state is the
// engine's match production under sustained overload — completing emits
// without consuming budget, so evicting a one-transition-away unit
// forfeits imminent matches, while early-stage state is re-seeded from
// the live stream for free. The two orderings compose lexicographically
// in a single float,
//
//	score = 1 / (k + 1/(1+lambda))
//
// which lies in the non-overlapping band [1/(k+1), 1/k): every unit
// needing k transitions outranks every unit needing k+1, and within a
// band the score grows with lambda. Unlike a Poisson tail probability,
// which saturates at 1, the rank keeps discriminating on dense streams
// where nearly all state is near-certain to complete at least once. With
// no rate estimate the fraction of window time remaining stands in for
// lambda, preserving both orderings.
func CompletionValue(transitionsLeft int, timeLeft, window int64, rate float64) float64 {
	if transitionsLeft <= 0 {
		return 1
	}
	if timeLeft <= 0 {
		return 0
	}
	var lambda float64
	if rate > 0 {
		lambda = rate * float64(timeLeft)
	} else {
		if window <= 0 {
			window = 1
		}
		lambda = float64(timeLeft) / float64(window)
		if lambda > 1 {
			lambda = 1
		}
	}
	return 1 / (float64(transitionsLeft) + 1/(1+lambda))
}

// LossSafety is the multiplier applied to rate-derived expected-arrival
// counts when bounding the matches an evicted unit could still have
// produced. Over-counting lost matches is safe — it only lowers the
// recall estimate, which must stay a lower bound — so the bound pads the
// expectation by this factor to cover bursts the EWMA smooths away.
const LossSafety = 4

// UnknownLoss is the loss charged for evicted state whose completion
// depends on an arrival rate nobody has observed yet: large enough to pull
// the recall estimate to ~0 (an unknown loss supports no recall claim),
// finite because the bound is exported through encoding/json, which rejects
// +Inf, and because accounts holding it are still added to and subtracted.
const UnknownLoss = 1e15

// ExpectedArrivals bounds the number of qualifying events expected within
// timeLeft at the observed rate, padded by LossSafety and floored at 1
// (an evicted unit could always have completed with a single arrival).
func ExpectedArrivals(rate float64, timeLeft int64) float64 {
	if timeLeft <= 0 {
		return 1
	}
	n := LossSafety * rate * float64(timeLeft)
	if n < 1 {
		return 1
	}
	return n
}
