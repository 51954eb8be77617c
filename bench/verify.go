package main

import (
	"context"
	"fmt"
	"sort"

	"cep2asp"
)

// The correctness gate has three parts, each counted as operations
// attempted and, on divergence, failed:
//
//  1. cross-mode: the full inputs (a prefix of them where the workload caps
//     it) give the same number of unique matches under FASP and FCEP, two
//     independent implementations of the pattern;
//  2. oracle: a slice of the inputs small enough for the formal reference
//     semantics gives the same deduplicated match set under the reference
//     and both modes;
//  3. determinism: every later pass gives the Unique of the cross-checked
//     run over the same inputs (checked where the passes run, see
//     bench.pass).

// oracleStreamCap bounds the events per stream of the oracle slice:
// cep2asp.EvaluateReference enumerates every combination per window, so
// ITER4 is only tractable with about ten events per window.
const oracleStreamCap = 24

// verify runs parts 1 and 2 and returns the unique-match count of the paced
// phase's prefix, the reference for the paced pass.
func (b *bench) verify(ctx context.Context, prefix inputs) int64 {
	cross := b.in
	if b.w.CrossEvents > 0 {
		cross = b.in.prefix(b.w.CrossEvents)
	}
	own, err := b.job(cross, b.w.FCEP).DiscardMatches().Run(ctx)
	if b.op("verify own-mode run", err == nil, fmt.Sprint(err)) {
		other, err := b.job(cross, !b.w.FCEP).DiscardMatches().Run(ctx)
		if b.op("verify other-mode run", err == nil, fmt.Sprint(err)) {
			b.op("verify cross-mode unique", own.Unique == other.Unique,
				fmt.Sprintf("FCEP=%v gives %d unique matches over %d events, FCEP=%v gives %d", b.w.FCEP, own.Unique, cross.events(), !b.w.FCEP, other.Unique))
		}
		if b.unique < 0 && cross.events() == b.in.events() {
			b.unique = own.Unique
		}
	}

	pre, err := b.job(prefix, b.w.FCEP).Run(ctx)
	if !b.op("verify prefix run", err == nil, fmt.Sprint(err)) {
		return -1
	}
	if len(pre.Matches) == 0 {
		// The smoke size may hold no match in its prefix; the full size must.
		b.op("verify oracle anchor", b.cfg.smoke, "no match in the paced prefix to cut the oracle slice around")
		return pre.Unique
	}
	slice := oracleSlice(prefix, anchorMatch(pre.Matches), b.pattern.Window.Size)
	var all []cep2asp.Event
	for _, s := range slice {
		all = append(all, s...)
	}
	want := matchKeys(cep2asp.EvaluateReference(b.pattern, all))
	b.op("verify oracle finds the anchor match", len(want) > 0, "reference semantics found no match in a slice cut around one")
	for _, fcep := range []bool{false, true} {
		st, err := b.job(slice, fcep).Run(ctx)
		if !b.op("verify oracle slice run", err == nil, fmt.Sprint(err)) {
			continue
		}
		got := matchKeys(st.Matches)
		b.op("verify oracle match set", equalKeys(got, want),
			fmt.Sprintf("FCEP=%v: %d matches on the %d-event slice, reference semantics %d", fcep, len(got), len(all), len(want)))
	}
	return pre.Unique
}

// anchorMatch picks the match with the smallest identity key, so the same
// inputs always give the same oracle slice whatever order the sink saw.
func anchorMatch(matches []*cep2asp.Match) *cep2asp.Match {
	best, bestKey := matches[0], matches[0].Key()
	for _, m := range matches[1:] {
		if k := m.Key(); k < bestKey {
			best, bestKey = m, k
		}
	}
	return best
}

// oracleSlice cuts the inputs down to the anchor match's sensors and one
// window either side of it, thins each stream to oracleStreamCap events and
// keeps the anchor's own events, so the slice holds at least that match.
func oracleSlice(in inputs, anchor *cep2asp.Match, window int64) inputs {
	ids := map[int64]bool{}
	type ident struct {
		t      cep2asp.Type
		id, ts int64
	}
	constituents := map[ident]bool{}
	for _, e := range anchor.Events {
		ids[e.ID] = true
		constituents[ident{e.Type, e.ID, e.TS}] = true
	}
	lo, hi := anchor.TsB-window, anchor.TsE+window
	out := make(inputs, len(in))
	for i, s := range in {
		from := sort.Search(len(s), func(k int) bool { return s[k].TS >= lo })
		var near []cep2asp.Event
		for _, e := range s[from:] {
			if e.TS > hi {
				break
			}
			if ids[e.ID] {
				near = append(near, e)
			}
		}
		stride := len(near)/oracleStreamCap + 1
		for k, e := range near {
			if k%stride == 0 || constituents[ident{e.Type, e.ID, e.TS}] {
				out[i] = append(out[i], e)
			}
		}
	}
	return out
}

func matchKeys(matches []*cep2asp.Match) []string {
	keys := make([]string, len(matches))
	for i, m := range matches {
		keys[i] = m.Key()
	}
	sort.Strings(keys)
	return keys
}

func equalKeys(a, b []string) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
