package main

import (
	"fmt"

	"cep2asp"
)

// workload is one set of inputs and one execution strategy. The engine only
// ever sees the streams generate returns; everything else here configures
// the job through the public facade.
type workload struct {
	Name string
	// Why is the one-line reason the workload exists (BENCHMARK.json and
	// README.md repeat it).
	Why  string
	PSL  string
	FCEP bool
	Opts cep2asp.Options
	// Streams names the pattern's input event types, in pattern order.
	Streams          []string
	Sensors, Minutes int
	// CrossEvents caps the events per stream of the cross-mode check, for
	// a workload whose full inputs the other mode cannot finish within
	// the run's budget; 0 checks the full inputs.
	CrossEvents int
	// PacedRate is the open-loop emission rate per source (events/s) of the
	// paced phase: a constant, roughly a quarter of the full-speed rate
	// measured when the benchmark was defined, and never derived from a
	// measurement of the run itself, so both sides of a comparison see the
	// same load.
	PacedRate float64
}

const (
	iter4PSL = `PATTERN ITER(QnVVelocity v, 4)
		WHERE v.value <= 1.6 AND v[i].id == v[i+1].id
		WITHIN 90 MINUTES SLIDE 1 MINUTE`
	parallelism = 2
)

var workloads = []workload{
	{
		Name: "seq_filter",
		Why:  "99.9% of tuples die in the filter: source emit, full 64-record edge batches and the filter do the work, the join almost none",
		PSL: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 99.95 AND v.value <= 0.05
			WITHIN 15 MINUTES SLIDE 1 MINUTE`,
		Streams: []string{"QnVQuantity", "QnVVelocity"},
		Sensors: 500, Minutes: 4000,
		PacedRate: 400_000,
	},
	{
		Name:    "iter_join",
		Why:     "Fig 4 ITER4 under plain FASP+O3: a 3-stage sliding-window self-join that re-joins pane pairs per window, partial edge batches, keyed shuffle",
		PSL:     iter4PSL,
		Opts:    cep2asp.Options{UsePartitioning: true, Parallelism: parallelism},
		Streams: []string{"QnVVelocity"},
		Sensors: 128, Minutes: 2000,
		PacedRate: 20_000,
	},
	{
		Name:    "iter_nfa",
		Why:     "the same ITER4 pattern under FCEP+O3: the monolithic NFA does all the work, so it is the control for FASP-side changes and the ratio's denominator",
		PSL:     iter4PSL,
		FCEP:    true,
		Opts:    cep2asp.Options{UsePartitioning: true, Parallelism: parallelism},
		Streams: []string{"QnVVelocity"},
		Sensors: 128, Minutes: 16000,
		// FASP needs 9 s for the full 2.05 M events; the cap is iter_join's
		// full size, about 1 s.
		CrossEvents: 128 * 2000,
		PacedRate:   40_000,
	},
	{
		Name: "seq3_interval",
		Why:  "the plan the paper recommends (O1+O3): interval joins over three sources of unequal rate, bypassing windowjoin and nfa but sharing records, edges, sink and barriers",
		PSL: `PATTERN SEQ(QnVQuantity q, QnVVelocity v, PM10 p)
			WHERE q.id == v.id AND v.id == p.id
			AND q.value >= 90 AND v.value <= 10 AND p.value <= 10
			WITHIN 15 MINUTES SLIDE 1 MINUTE`,
		Opts:    cep2asp.Options{UseIntervalJoin: true, UsePartitioning: true, Parallelism: parallelism},
		Streams: []string{"QnVQuantity", "QnVVelocity", "PM10"},
		Sensors: 128, Minutes: 8000,
		PacedRate: 150_000,
	},
}

func findWorkload(name string) (*workload, error) {
	for i := range workloads {
		if workloads[i].Name == name {
			return &workloads[i], nil
		}
	}
	return nil, fmt.Errorf("unknown workload %q", name)
}

// smokeDivisor shrinks Minutes for the -smoke size the tests run.
const smokeDivisor = 32

// inputs are the generated streams of one workload, parallel to
// workload.Streams.
type inputs [][]cep2asp.Event

// generate makes the workload's streams from the seed alone: the same seed
// gives the same events.
func (w *workload) generate(seed int64, smoke bool) inputs {
	minutes := w.Minutes
	if smoke {
		minutes /= smokeDivisor
	}
	var q, v, pm10 []cep2asp.Event
	in := make(inputs, len(w.Streams))
	for i, name := range w.Streams {
		switch name {
		case "QnVQuantity", "QnVVelocity":
			if q == nil {
				q, v = cep2asp.GenerateQnV(w.Sensors, minutes, seed)
			}
			in[i] = q
			if name == "QnVVelocity" {
				in[i] = v
			}
		case "PM10":
			if pm10 == nil {
				pm10, _, _, _ = cep2asp.GenerateAirQuality(w.Sensors, minutes, seed)
			}
			in[i] = pm10
		default:
			panic("bench: no generator for stream " + name)
		}
	}
	return in
}

func (in inputs) events() int {
	n := 0
	for _, s := range in {
		n += len(s)
	}
	return n
}

// prefix cuts every stream to its first n events (the paced phase replays a
// prefix so its length is set by the rate, not by the data).
func (in inputs) prefix(n int) inputs {
	out := make(inputs, len(in))
	for i, s := range in {
		if len(s) > n {
			s = s[:n]
		}
		out[i] = s
	}
	return out
}
