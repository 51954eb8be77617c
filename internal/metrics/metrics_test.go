package metrics

import (
	"testing"
	"time"
)

func TestSamplerCollects(t *testing.T) {
	s := NewSampler(5 * time.Millisecond)
	calls := 0
	s.StateFn = func() int64 { calls++; return int64(calls) }
	s.Start()
	// Burn a little CPU and memory so the samples have content.
	waste := make([][]byte, 0, 64)
	deadline := time.Now().Add(60 * time.Millisecond)
	for time.Now().Before(deadline) {
		waste = append(waste, make([]byte, 1<<14))
		if len(waste) > 32 {
			waste = waste[:0]
		}
	}
	samples := s.Stop()
	if len(samples) == 0 {
		t.Fatal("no samples collected")
	}
	for i, sm := range samples {
		if sm.HeapBytes == 0 {
			t.Fatalf("sample %d has zero heap", i)
		}
		if sm.CPUPct < 0 || sm.CPUPct > 100 {
			t.Fatalf("sample %d CPU%% out of range: %g", i, sm.CPUPct)
		}
		if i > 0 && sm.At <= samples[i-1].At {
			t.Fatalf("timestamps not increasing at %d", i)
		}
	}
	if samples[len(samples)-1].State == 0 {
		t.Fatal("StateFn not polled")
	}
}

func TestSamplerDefaultPeriod(t *testing.T) {
	s := NewSampler(0)
	if s.Period <= 0 {
		t.Fatal("default period not applied")
	}
}

func TestPeak(t *testing.T) {
	samples := []Sample{
		{HeapBytes: 10, CPUPct: 5},
		{HeapBytes: 30, CPUPct: 1},
		{HeapBytes: 20, CPUPct: 9},
	}
	heap, cpu := Peak(samples)
	if heap != 30 || cpu != 9 {
		t.Fatalf("Peak = %d, %g; want 30, 9", heap, cpu)
	}
	if h, c := Peak(nil); h != 0 || c != 0 {
		t.Fatalf("Peak(nil) = %d, %g", h, c)
	}
}

// Regression: Stop used to close a nil (Stop-before-Start) or already
// closed (double-Stop) channel and panic; it must be idempotent.
func TestSamplerStopIdempotent(t *testing.T) {
	s := NewSampler(time.Millisecond)
	if got := s.Stop(); len(got) != 0 {
		t.Fatalf("Stop before Start returned %d samples", len(got))
	}
	s.Start()
	s.Start() // Start while running is a no-op, not a second goroutine
	time.Sleep(8 * time.Millisecond)
	first := s.Stop()
	second := s.Stop()
	if len(second) != len(first) {
		t.Fatalf("second Stop returned %d samples, first %d", len(second), len(first))
	}
	// The sampler restarts cleanly after a Stop.
	s.Start()
	time.Sleep(8 * time.Millisecond)
	if again := s.Stop(); len(again) < len(first) {
		t.Fatalf("restart collected %d samples, fewer than before (%d)", len(again), len(first))
	}
	s.Stop()
}
