package cep2asp

import (
	"context"
	"fmt"
	"time"

	"cep2asp/internal/core"
)

// MultiJob runs several patterns over the same input streams in one
// dataflow: each event type is read once and fanned out to every pattern's
// pipeline. This is the hybrid-system capability the paper motivates —
// running many continuous requests in a single system — and the setting
// where its multi-query remarks apply (§6).
type MultiJob struct {
	job     *Job // the shared streams and engine settings
	entries []multiEntry
}

type multiEntry struct {
	pattern *Pattern
	opts    Options
	fcep    bool
}

// NewMultiJob starts an empty multi-pattern job.
func NewMultiJob() *MultiJob {
	return &MultiJob{job: NewJob(nil)}
}

// Add registers a pattern executed through the decomposed mapping.
func (m *MultiJob) Add(p *Pattern, opts Options) *MultiJob {
	m.entries = append(m.entries, multiEntry{pattern: p, opts: opts})
	return m
}

// AddFCEP registers a pattern executed through the unary NFA baseline.
func (m *MultiJob) AddFCEP(p *Pattern, opts Options) *MultiJob {
	m.entries = append(m.entries, multiEntry{pattern: p, opts: opts, fcep: true})
	return m
}

// AddStream supplies one input type's events, shared by all patterns.
func (m *MultiJob) AddStream(typeName string, events []Event) *MultiJob {
	m.job.AddStream(typeName, events)
	return m
}

// WithEngine overrides the engine configuration.
func (m *MultiJob) WithEngine(cfg EngineConfig) *MultiJob { m.job.WithEngine(cfg); return m }

// WithLateness declares the input streams' event-time disorder bound.
func (m *MultiJob) WithLateness(d time.Duration) *MultiJob { m.job.WithLateness(d); return m }

// DiscardMatches keeps only counts.
func (m *MultiJob) DiscardMatches() *MultiJob { m.job.DiscardMatches(); return m }

// Run executes all patterns concurrently and returns one RunStats per
// pattern, in Add order. Events and throughput count the shared inputs
// once.
func (m *MultiJob) Run(ctx context.Context) ([]*RunStats, error) {
	if m.job.err != nil {
		return nil, m.job.err
	}
	if len(m.entries) == 0 {
		return nil, fmt.Errorf("cep2asp: multi-job has no patterns")
	}
	plans := make([]*core.Plan, len(m.entries))
	for i, e := range m.entries {
		var err error
		if plans[i], err = translate(e.pattern, e.opts, e.fcep); err != nil {
			return nil, fmt.Errorf("cep2asp: pattern %d: %w", i, err)
		}
	}
	return m.job.run(ctx, plans, nil)
}
