package asp

import (
	"slices"
	"testing"

	"cep2asp/internal/event"
)

// The inbox is driven directly here: no goroutines, channels or sleeps.
// Records are taken the way an instance's step takes a batch, and the test
// plays the instance, checkpointing when the inbox reports an alignment.

func TestInboxWatermarkMergesSendersByMinimum(t *testing.T) {
	b := newInbox(3)
	steps := []struct {
		src     uint16
		wm      event.Time
		advance bool
		merged  event.Time
	}{
		{0, 10, false, event.MinWatermark},
		{1, 20, false, event.MinWatermark},
		{2, 5, true, 5},
		{2, 30, true, 10},
		{0, 8, false, 10}, // sender 0 regresses: ignored
		{0, 25, true, 20},
		{1, 40, true, 25},
		{1, 35, false, 25}, // sender 1 regresses
	}
	for i, s := range steps {
		if got := b.watermark(s.src, s.wm); got != s.advance || b.wm != s.merged {
			t.Fatalf("step %d: watermark(%d, %d) = %v with merged %d, want %v with %d", i, s.src, s.wm, got, b.wm, s.advance, s.merged)
		}
	}
	if b.wms[0] != 25 || b.wms[1] != 40 {
		t.Fatalf("per-sender watermarks %v: a regression must not lower them", b.wms)
	}
}

func TestInboxEOSCountsAsMaxWatermarkAndBarrier(t *testing.T) {
	b := newInbox(3)
	b.watermark(0, 10)
	b.watermark(1, 20)
	b.watermark(2, 30)
	if !b.eos(0) || b.wm != 20 || b.open != 2 {
		t.Fatalf("after sender 0's EOS: merged %d, open %d; want 20, 2", b.wm, b.open)
	}
	// Sender 0 ended, so it counts as aligned for every later checkpoint.
	for _, id := range []int64{1, 2} {
		b.barrier(1, id)
		if got, _ := b.aligned(); got != 0 {
			t.Fatalf("checkpoint %d aligned after one of two live senders", id)
		}
		b.barrier(2, id)
		if got, _ := b.aligned(); got != id {
			t.Fatalf("checkpoint %d: aligned() = %d, want it aligned", id, got)
		}
	}
	if b.eos(1) && b.wm != 30 {
		t.Fatalf("merged %d after sender 1's EOS, want 30", b.wm)
	}
	if !b.eos(2) || b.wm != event.MaxWatermark || b.open != 0 {
		t.Fatalf("after the last EOS: merged %d, open %d; want MaxWatermark, 0", b.wm, b.open)
	}
}

// inboxRun plays an instance over a sequence of batches: each record the
// inbox does not hold is taken, followed by the stashed records it releases.
// A barrier completes an alignment as an instance's checkpoint would.
type inboxRun struct {
	b      inbox
	taken  []Record
	ckpts  []int64
	stashN []int // stash length after each batch
}

func (r *inboxRun) take(rec *Record) {
	r.taken = append(r.taken, *rec)
	switch rec.Kind {
	case KindBarrier:
		r.b.barrier(rec.Src, rec.TS)
	case KindEOS:
		r.b.eos(rec.Src)
	default:
		return
	}
	if id, _ := r.b.aligned(); id != 0 {
		r.ckpts = append(r.ckpts, id)
	}
}

func (r *inboxRun) step(batch []Record) {
	for k := range batch {
		if r.b.hold(&batch[k]) {
			continue
		}
		r.take(&batch[k])
		for len(r.b.stash) > 0 {
			rec := r.b.next()
			if rec == nil {
				break
			}
			r.take(rec)
		}
	}
	r.stashN = append(r.stashN, len(r.b.stash))
}

// eventIDs lists the IDs of the data records taken, in order.
func (r *inboxRun) eventIDs() []int64 {
	var ids []int64
	for _, rec := range r.taken {
		if rec.Kind == KindEvent {
			ids = append(ids, rec.Event.ID)
		}
	}
	return ids
}

func ev(src uint16, id int64) Record {
	return Record{Kind: KindEvent, Src: src, Event: event.Event{ID: id}}
}

func bar(src uint16, id int64) Record { return Record{Kind: KindBarrier, Src: src, TS: id} }

// checkFIFO holds the taken records to each sender's arrival order.
func checkFIFO(t *testing.T, sent, taken []Record) {
	t.Helper()
	per := func(rs []Record) map[uint16][]Record {
		m := map[uint16][]Record{}
		for _, r := range rs {
			m[r.Src] = append(m[r.Src], r)
		}
		return m
	}
	want, got := per(sent), per(taken)
	for src, rs := range want {
		if len(got[src]) != len(rs) {
			t.Fatalf("sender %d: %d records taken, %d sent", src, len(got[src]), len(rs))
		}
		for i := range rs {
			if got[src][i].Kind != rs[i].Kind || got[src][i].Event.ID != rs[i].Event.ID || got[src][i].TS != rs[i].TS {
				t.Fatalf("sender %d: record %d taken out of order: %+v, want %+v", src, i, got[src][i], rs[i])
			}
		}
	}
}

func TestInboxStashesAlignedSenderWhileAnotherLags(t *testing.T) {
	r := &inboxRun{b: newInbox(2)}
	batches := [][]Record{
		{ev(0, 1), bar(0, 1), ev(0, 2), ev(0, 3)}, // sender 0 aligned: 2 and 3 wait
		{ev(1, 10), ev(1, 11)},                    // sender 1 lags: taken at once
		{bar(1, 1), ev(1, 12)},                    // alignment completes: 2 and 3 replay before 12
	}
	for _, b := range batches {
		r.step(b)
	}
	if !slices.Equal(r.stashN, []int{2, 2, 0}) {
		t.Fatalf("stash lengths after each batch %v, want [2 2 0]", r.stashN)
	}
	if !slices.Equal(r.ckpts, []int64{1}) {
		t.Fatalf("checkpoints %v, want [1]", r.ckpts)
	}
	if got, want := r.eventIDs(), []int64{1, 10, 11, 2, 3, 12}; !slices.Equal(got, want) {
		t.Fatalf("events taken %v, want %v", got, want)
	}
	var sent []Record
	for _, b := range batches {
		sent = append(sent, b...)
	}
	checkFIFO(t, sent, r.taken)
}

// TestInboxReplayedBarrierStartsNextAlignment: a barrier replayed from the
// stash starts the next alignment mid-replay, so the records of its sender
// behind it are held again. When a barrier later in the same replay
// completes that alignment too, they are taken before that sender's later
// stashed records: every sender's records are taken in arrival order.
func TestInboxReplayedBarrierStartsNextAlignment(t *testing.T) {
	r := &inboxRun{b: newInbox(3)}
	batches := [][]Record{
		// Senders 0 and 1 deliver barrier 1 and run ahead into checkpoint 2
		// while sender 2 lags; it ends instead of delivering barrier 1.
		{bar(0, 1), ev(0, 1), bar(0, 2), ev(0, 2)},
		{bar(1, 1), ev(1, 10), bar(1, 2)},
		{ev(0, 3)},
		{ev(2, 20), {Kind: KindEOS, Src: 2}},
	}
	for _, b := range batches {
		r.step(b)
	}
	if !slices.Equal(r.ckpts, []int64{1, 2}) {
		t.Fatalf("checkpoints %v, want [1 2]", r.ckpts)
	}
	if len(r.b.stash) != 0 || r.b.alignID != 0 {
		t.Fatalf("stash %d records, aligning %d after both alignments; want none", len(r.b.stash), r.b.alignID)
	}
	var sent []Record
	for _, b := range batches {
		sent = append(sent, b...)
	}
	checkFIFO(t, sent, r.taken)
	// The replay takes 1, starts checkpoint 2 at sender 0's barrier, holds
	// 2, takes 10 and completes checkpoint 2 at sender 1's barrier: 2, held
	// first, precedes 3.
	if got, want := r.eventIDs(), []int64{20, 1, 10, 2, 3}; !slices.Equal(got, want) {
		t.Fatalf("events taken %v, want %v", got, want)
	}
}
