package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"time"
)

// span is one bench-side interval around a call into a layer. Spans are
// recorded from the benchmark's own goroutine only, so the open-span stack
// gives each span its parent; spans inside the engine are a later change.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"` // 0 for the root
	Run    string `json:"run"`
	Name   string `json:"name"`
	// StartNs and EndNs are offsets from the recorder's creation.
	StartNs int64 `json:"start_ns"`
	EndNs   int64 `json:"end_ns"`
	// SelfNs is the duration minus the part child spans cover; filled in
	// by finish.
	SelfNs int64 `json:"self_ns"`
}

// spanRecorder keeps spans in memory until the run ends.
type spanRecorder struct {
	run   string
	t0    time.Time
	spans []span
	open  []int // indexes into spans
}

func newSpanRecorder(run string) *spanRecorder {
	return &spanRecorder{run: run, t0: time.Now()}
}

// begin opens a span under the innermost open one and returns the function
// that closes it.
func (r *spanRecorder) begin(name string) (end func()) {
	parent := 0
	if n := len(r.open); n > 0 {
		parent = r.spans[r.open[n-1]].ID
	}
	idx := len(r.spans)
	r.spans = append(r.spans, span{
		ID: idx + 1, Parent: parent, Run: r.run, Name: name,
		StartNs: time.Since(r.t0).Nanoseconds(),
	})
	r.open = append(r.open, idx)
	return func() {
		r.spans[idx].EndNs = time.Since(r.t0).Nanoseconds()
		r.open = r.open[:len(r.open)-1]
	}
}

// finish computes self times. Children of one parent never overlap (one
// goroutine records them), so the covered part is the sum of their
// durations.
func (r *spanRecorder) finish() []span {
	for i := range r.spans {
		r.spans[i].SelfNs = r.spans[i].EndNs - r.spans[i].StartNs
	}
	for _, s := range r.spans {
		if s.Parent != 0 {
			r.spans[s.Parent-1].SelfNs -= s.EndNs - s.StartNs
		}
	}
	return r.spans
}

func writeSpans(path string, spans []span) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.MarshalIndent(spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
