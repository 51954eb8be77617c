package overload

import (
	"fmt"
	"sync"
	"time"
)

// QualityDemand declares per-job quality bounds the runtime must hold by
// picking among the degradation mechanisms it already has: pattern-aware
// shedding, intake pausing, and admission tightening. Zero fields are
// unconstrained.
type QualityDemand struct {
	// MaxP99Latency bounds the p99 detection latency.
	MaxP99Latency time.Duration
	// MinRecall is the minimum acceptable recall estimate in (0, 1]: the
	// guaranteed lower bound on achieved recall computed from emitted
	// matches and the accumulated lost-match bound.
	MinRecall float64
	// MaxStateBytes bounds the live heap; crossing it tightens admission
	// (intake pauses until it drains).
	MaxStateBytes int64
}

// Enabled reports whether any demand is declared.
func (d QualityDemand) Enabled() bool {
	return d.MaxP99Latency > 0 || d.MinRecall > 0 || d.MaxStateBytes > 0
}

// Validate fails fast on malformed or conflicting demands, before the job
// runs. Conflicts return a *QualityInfeasibleError.
func (d QualityDemand) Validate(spec Spec) error {
	if d.MinRecall < 0 || d.MinRecall > 1 {
		return fmt.Errorf("overload: MinRecall %g outside [0, 1]", d.MinRecall)
	}
	if d.MaxStateBytes < 0 {
		return fmt.Errorf("overload: MaxStateBytes %d negative", d.MaxStateBytes)
	}
	if d.MaxP99Latency < 0 {
		return fmt.Errorf("overload: MaxP99Latency %v negative", d.MaxP99Latency)
	}
	if d.MinRecall > 0 && spec.Policy == Fail && spec.Budget.Enabled() {
		return &QualityInfeasibleError{Demand: d, Reason: "the Fail overload policy aborts at the state budget, leaving no degradation mechanism to trade for recall; use the Shed or Pause policy"}
	}
	if d.MinRecall == 1 && d.MaxP99Latency > 0 && spec.Budget.Enabled() {
		return &QualityInfeasibleError{Demand: d, Reason: "perfect recall under a state budget requires pausing intake when the budget is reached, which breaks any latency ceiling under sustained overload; relax MinRecall below 1 or drop MaxP99Latency"}
	}
	return nil
}

// QualityInfeasibleError reports quality demands that conflict with each
// other or with the job's overload configuration: no controller decision
// could satisfy them, so the job fails fast instead of degrading
// unpredictably.
type QualityInfeasibleError struct {
	Demand QualityDemand
	Reason string
}

func (e *QualityInfeasibleError) Error() string {
	return fmt.Sprintf("overload: quality demands infeasible (MinRecall=%g, MaxP99Latency=%v, MaxStateBytes=%d): %s",
		e.Demand.MinRecall, e.Demand.MaxP99Latency, e.Demand.MaxStateBytes, e.Reason)
}

// RecallEstimate computes the guaranteed lower bound on achieved recall
// from the matches actually emitted and the accumulated upper bound on
// matches evicted state could still have produced. With nothing lost the
// estimate is 1; every unit of bounded loss pulls it down.
func RecallEstimate(matches int64, lostBound float64) float64 {
	if lostBound <= 0 {
		return 1
	}
	m := float64(matches)
	if m <= 0 {
		return 0
	}
	return m / (m + lostBound)
}

// QualityProbe reads the live signals the controller decides on. The
// engine adapts its environment and metrics behind this interface so the
// controller stays dependency-free.
type QualityProbe interface {
	// Matches counts matches emitted so far.
	Matches() int64
	// LostMatchBound is the accumulated upper bound on matches lost to
	// eviction.
	LostMatchBound() float64
	// P99Latency is the current p99 detection latency (0 = unknown).
	P99Latency() time.Duration
	// StateBytes is the current live heap (0 = unknown).
	StateBytes() int64
}

// QualityActuator applies the controller's decisions to the running job.
type QualityActuator interface {
	// SetPatternAware switches the shed-victim selection strategy at
	// runtime.
	SetPatternAware(on bool)
	// PauseIntake raises the admission gate (counted; each PauseIntake
	// must be balanced by one ResumeIntake).
	PauseIntake()
	// ResumeIntake lowers one PauseIntake.
	ResumeIntake()
}

// recallMargin is the hysteresis band around MinRecall: the controller
// escalates to pattern-aware shedding as soon as the estimate dips into
// the band and de-escalates a pause only once the estimate clears it.
const recallMargin = 0.02

// DefaultQualityInterval is the controller's poll cadence.
const DefaultQualityInterval = 10 * time.Millisecond

// QualityController holds a job to its declared quality demands by
// polling the probe and escalating through the degradation ladder:
// recall pressure first switches shedding to pattern-aware victim
// selection, then pauses intake; a state-bytes breach tightens admission;
// a latency breach forces pattern-aware shedding (smaller state, less
// work per watermark). Every decision is recorded, so a degraded run
// explains itself.
type QualityController struct {
	demand QualityDemand
	probe  QualityProbe
	act    QualityActuator

	mu           sync.Mutex
	actions      []string
	patternAware bool
	recallPaused bool
	statePaused  bool
	latencyHot   bool

	stop chan struct{}
	wg   sync.WaitGroup
}

// NewQualityController validates the demands against the job's overload
// spec and builds the controller. patternAware seeds the strategy state
// with what the job is already configured to use.
func NewQualityController(d QualityDemand, spec Spec, probe QualityProbe, act QualityActuator) (*QualityController, error) {
	if err := d.Validate(spec); err != nil {
		return nil, err
	}
	return &QualityController{
		demand:       d,
		probe:        probe,
		act:          act,
		patternAware: spec.Shedding == PatternAware,
		stop:         make(chan struct{}),
	}, nil
}

// Start launches the poll loop at the given cadence (<= 0 selects
// DefaultQualityInterval), taking one immediate step so demands bind
// before the first tick. Stop must be called to release it.
func (c *QualityController) Start(interval time.Duration) {
	if interval <= 0 {
		interval = DefaultQualityInterval
	}
	c.Step()
	c.wg.Add(1)
	go func() {
		defer c.wg.Done()
		tick := time.NewTicker(interval)
		defer tick.Stop()
		for {
			select {
			case <-c.stop:
				return
			case <-tick.C:
				c.Step()
			}
		}
	}()
}

// Stop terminates the poll loop and releases any pause the controller
// still holds.
func (c *QualityController) Stop() {
	close(c.stop)
	c.wg.Wait()
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.recallPaused {
		c.recallPaused = false
		c.act.ResumeIntake()
	}
	if c.statePaused {
		c.statePaused = false
		c.act.ResumeIntake()
	}
}

// Step runs one control decision. Exported so tests can drive the ladder
// deterministically without the poll goroutine.
func (c *QualityController) Step() {
	c.mu.Lock()
	defer c.mu.Unlock()
	if c.demand.MinRecall > 0 {
		est := RecallEstimate(c.probe.Matches(), c.probe.LostMatchBound())
		band := c.demand.MinRecall + recallMargin
		if band > 1 {
			band = 1
		}
		switch {
		case est < band && !c.patternAware:
			c.patternAware = true
			c.act.SetPatternAware(true)
			c.record("shed-pattern-aware: recall estimate %.4f below %.4f", est, band)
		case est < c.demand.MinRecall && c.patternAware && !c.recallPaused:
			c.recallPaused = true
			c.act.PauseIntake()
			c.record("pause-intake: recall estimate %.4f below MinRecall %.4f", est, c.demand.MinRecall)
		case c.recallPaused && est >= band:
			c.recallPaused = false
			c.act.ResumeIntake()
			c.record("resume-intake: recall estimate %.4f recovered above %.4f", est, band)
		}
	}
	if c.demand.MaxStateBytes > 0 {
		bytes := c.probe.StateBytes()
		switch {
		case bytes > c.demand.MaxStateBytes && !c.statePaused:
			c.statePaused = true
			c.act.PauseIntake()
			c.record("tighten-admission: live heap %d above MaxStateBytes %d", bytes, c.demand.MaxStateBytes)
		case c.statePaused && float64(bytes) < 0.8*float64(c.demand.MaxStateBytes):
			c.statePaused = false
			c.act.ResumeIntake()
			c.record("relax-admission: live heap %d drained below MaxStateBytes %d", bytes, c.demand.MaxStateBytes)
		}
	}
	if c.demand.MaxP99Latency > 0 {
		p99 := c.probe.P99Latency()
		if p99 > c.demand.MaxP99Latency {
			if !c.patternAware {
				c.patternAware = true
				c.act.SetPatternAware(true)
				c.record("shed-pattern-aware: p99 latency %v above %v", p99, c.demand.MaxP99Latency)
			} else if !c.latencyHot {
				c.record("latency-breach: p99 latency %v above %v with degradation already maximal", p99, c.demand.MaxP99Latency)
			}
			c.latencyHot = true
		} else {
			c.latencyHot = false
		}
	}
}

func (c *QualityController) record(format string, args ...any) {
	c.actions = append(c.actions, fmt.Sprintf(format, args...))
}

// Actions returns the decisions taken so far, in order.
func (c *QualityController) Actions() []string {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := make([]string, len(c.actions))
	copy(out, c.actions)
	return out
}
