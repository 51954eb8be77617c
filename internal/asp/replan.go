package asp

import (
	"fmt"
	"strings"

	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
)

// SourceProgress is a source's replay position extracted from a checkpoint
// snapshot: the offset of the next event to emit and the maximum event
// time seen so far. The optimizer's online re-planning uses it to compute
// how far the rebuilt plan must rewind to regenerate every in-flight
// window (see internal/optimizer).
type SourceProgress struct {
	Offset int
	MaxTS  event.Time
}

// SourceOffsets extracts per-source replay positions from a snapshot, keyed
// by source node name (e.g. "src:QnVQuantity"). Parallel source instances
// are merged conservatively: the smallest offset and the largest MaxTS win,
// so a rewind based on the result never skips an unemitted event.
func SourceOffsets(snap *checkpoint.Snapshot) (map[string]SourceProgress, error) {
	if snap == nil {
		return nil, fmt.Errorf("asp: no snapshot to read source offsets from")
	}
	out := make(map[string]SourceProgress)
	for task, data := range snap.Tasks {
		// Task IDs are "<node>:<name>/<instance>"; only sources carry a
		// sourceState payload.
		colon := strings.Index(task, ":")
		slash := strings.LastIndex(task, "/")
		if colon < 0 || slash < colon {
			continue
		}
		name := task[colon+1 : slash]
		if !strings.HasPrefix(name, "src:") || len(data) == 0 {
			continue
		}
		var st sourceState
		if err := st.RestoreState(data); err != nil {
			return nil, fmt.Errorf("asp: decoding source state of %s: %w", task, err)
		}
		if cur, ok := out[name]; ok {
			st.Offset, st.MaxTS = min(st.Offset, cur.Offset), max(st.MaxTS, cur.MaxTS)
		}
		out[name] = SourceProgress(st)
	}
	return out, nil
}

// SourceWatermarkAt exposes the source watermark rule — maxTS - lateness -
// 1, saturating at event.MinWatermark — so replay-cutoff computations use
// exactly the watermark a source would have emitted.
func SourceWatermarkAt(maxTS, lateness event.Time) event.Time {
	return sourceWatermark(maxTS, lateness)
}
