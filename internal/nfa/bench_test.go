package nfa_test

import (
	"runtime"
	"testing"

	"cep2asp/internal/cep"
	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
	"cep2asp/internal/workload"
)

// BenchmarkMachineITER4 steps the benchmark's iter_nfa program (Fig. 4
// ITER4, keyed by sensor id) over 128 sensors' velocity readings with a
// watermark every 64 events, the engine's default cadence. 98.4 % of the
// events fail the stage-0 filter; allocs/event is what scripts/bench_smoke.sh
// gates on.
func BenchmarkMachineITER4(b *testing.B) {
	pat, err := sea.Parse(`PATTERN ITER(QnVVelocity v, 4)
		WHERE v.value <= 1.6 AND v[i].id == v[i+1].id
		WITHIN 90 MINUTES SLIDE 1 MINUTE`)
	if err != nil {
		b.Fatal(err)
	}
	prog, err := cep.Compile(pat, nfa.SkipTillAnyMatch, func(e event.Event) int64 { return e.ID })
	if err != nil {
		b.Fatal(err)
	}
	_, events := workload.QnV(workload.QnVConfig{Sensors: 128, Minutes: 2000, Seed: 1})
	matches := 0
	emit := func(*event.Match) { matches++ }
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		m, err := nfa.NewMachine(prog)
		if err != nil {
			b.Fatal(err)
		}
		for j, e := range events {
			m.OnEvent(e, emit)
			if (j+1)%64 == 0 {
				m.OnWatermark(e.TS-1, emit)
			}
		}
	}
	b.StopTimer()
	runtime.ReadMemStats(&after)
	if matches == 0 {
		b.Fatal("no matches: the workload is inert")
	}
	n := float64(b.N * len(events))
	b.ReportMetric(float64(b.Elapsed().Nanoseconds())/n, "ns/event")
	b.ReportMetric(float64(after.Mallocs-before.Mallocs)/n, "allocs/event")
}
