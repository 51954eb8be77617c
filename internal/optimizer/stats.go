package optimizer

import (
	"fmt"
	"math"
	"strings"

	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
)

// Measure derives exact StreamStats for every event type the pattern
// references from recorded streams: Frequency is events per minute of
// event-time span, FilterSelectivity is the fraction of events passing the
// pattern's pushed-down single-alias selections for that type. This is the
// offline statistics collector of §7's envisioned optimizer; observedFrom
// is its online counterpart.
func Measure(p *sea.Pattern, data map[event.Type][]event.Event) (map[string]core.StreamStats, error) {
	preds, err := scanPredicates(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]core.StreamStats)
	for _, l := range p.Leaves() {
		if _, done := out[l.TypeName]; done {
			continue
		}
		events := data[l.Type]
		if len(events) == 0 {
			continue
		}
		minTS, maxTS := events[0].TS, events[0].TS
		for _, e := range events {
			if e.TS < minTS {
				minTS = e.TS
			}
			if e.TS > maxTS {
				maxTS = e.TS
			}
		}
		span := float64(maxTS-minTS+event.Minute) / float64(event.Minute)
		st := core.StreamStats{Frequency: float64(len(events)) / span}
		// A stream feeding several aliases is priced at its heaviest use:
		// the largest per-alias pass fraction (usually one alias per type).
		var best float64
		var filtered bool
		for _, la := range typeAliases(p, l.TypeName) {
			pred, ok := preds[la]
			if !ok {
				best = 1 // an unfiltered alias dominates
				continue
			}
			filtered = true
			pass := 0
			for i := range events {
				// The stream itself is the one-constituent slice.
				if pred(events[i : i+1]) {
					pass++
				}
			}
			if frac := float64(pass) / float64(len(events)); frac > best {
				best = frac
			}
		}
		if filtered && best > 0 && best <= 1 {
			st.FilterSelectivity = best
		}
		out[l.TypeName] = st
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("optimizer: no data for any of the pattern's event types")
	}
	return out, nil
}

// scanPredicates compiles each alias' scan filters — the unary conjuncts
// the translator pushes below the joins, sea.Analysis.Unary — into one
// predicate per filtered alias.
func scanPredicates(p *sea.Pattern) (map[string]sea.Predicate, error) {
	an, err := sea.Analyze(p)
	if err != nil {
		return nil, err
	}
	out := make(map[string]sea.Predicate)
	for _, l := range p.Leaves() {
		filters := an.Unary(l.Alias)
		if len(filters) == 0 {
			continue
		}
		pred, err := sea.CompileBool(sea.Conjoin(filters), sea.Layout{l.Alias: 0})
		if err != nil {
			return nil, fmt.Errorf("optimizer: compiling %s's scan filters: %w", l.Alias, err)
		}
		out[l.Alias] = pred
	}
	return out, nil
}

func typeAliases(p *sea.Pattern, typeName string) []string {
	var out []string
	for _, l := range p.Leaves() {
		if l.TypeName == typeName {
			out = append(out, l.Alias)
		}
	}
	return out
}

// observedFrom reads live per-stream statistics from a snapshot of a running
// plan's metrics registry: source operators ("src:<Type>") give relative
// frequencies (events emitted so far), selections ("σ:<alias>")
// give selectivities (out/in). Relative frequencies are what join
// reordering and the cost model need — only ratios matter.
func observedFrom(snap obs.Snapshot, p *sea.Pattern) map[string]core.StreamStats {
	srcOut := make(map[string]int64)  // type name -> events emitted
	filtIn := make(map[string]int64)  // alias -> events entering its σ
	filtOut := make(map[string]int64) // alias -> events surviving its σ
	for _, op := range snap.Operators {
		switch {
		case strings.HasPrefix(op.Node, "src:"):
			srcOut[op.Node[len("src:"):]] += op.Out
		case strings.HasPrefix(op.Node, "σ:"):
			alias := op.Node[len("σ:"):]
			if i := strings.IndexByte(alias, '#'); i >= 0 {
				alias = alias[:i]
			}
			filtIn[alias] += op.In
			filtOut[alias] += op.Out
		}
	}
	out := make(map[string]core.StreamStats)
	for _, l := range p.Leaves() {
		emitted, ok := srcOut[l.TypeName]
		if !ok || emitted <= 0 {
			continue
		}
		st, seen := out[l.TypeName]
		if !seen {
			st = core.StreamStats{Frequency: float64(emitted)}
		}
		if in := filtIn[l.Alias]; in > 0 {
			sel := float64(filtOut[l.Alias]) / float64(in)
			if sel <= 0 {
				// All observed events filtered out so far: keep a floor so
				// the stream stays comparable instead of pricing at the
				// "unknown" default of 1.
				sel = 1 / float64(in)
			}
			if sel > 1 {
				sel = 1
			}
			if sel > st.FilterSelectivity {
				st.FilterSelectivity = sel // heaviest use across aliases
			}
		}
		out[l.TypeName] = st
	}
	return out
}

// sourceEventsFrom sums the events all sources have emitted — the monitor's
// progress measure.
func sourceEventsFrom(snap obs.Snapshot) int64 {
	var total int64
	for _, op := range snap.Operators {
		if strings.HasPrefix(op.Node, "src:") {
			total += op.Out
		}
	}
	return total
}

// drift returns the largest factor by which the observed streams' shares of
// the total effective input volume disagree with the estimated shares. A
// result of 1 means perfect agreement; streams missing on either side are
// skipped. Shares — not absolute rates — are compared because observedFrom
// yields relative frequencies.
func drift(est, observed map[string]core.StreamStats) float64 {
	estEff, obsEff := make(map[string]float64), make(map[string]float64)
	var estSum, obsSum float64
	for name, s := range observed {
		e, ok := est[name]
		if !ok {
			continue
		}
		ee, oe := effectiveRate(e), effectiveRate(s)
		estEff[name], obsEff[name] = ee, oe
		estSum += ee
		obsSum += oe
	}
	if len(estEff) < 2 || estSum <= 0 || obsSum <= 0 {
		return 1
	}
	worst := 1.0
	for name := range estEff {
		a, b := estEff[name]/estSum, obsEff[name]/obsSum
		if a <= 0 || b <= 0 {
			continue
		}
		if f := math.Max(a/b, b/a); f > worst {
			worst = f
		}
	}
	return worst
}

func effectiveRate(s core.StreamStats) float64 {
	eff := s.Frequency
	if s.FilterSelectivity > 0 {
		eff *= s.FilterSelectivity
	}
	return eff
}

// uniformStats prices every pattern stream identically — the cold-start
// estimate drift is judged against when no statistics were configured.
func uniformStats(p *sea.Pattern) map[string]core.StreamStats {
	out := make(map[string]core.StreamStats)
	for _, l := range p.Leaves() {
		out[l.TypeName] = core.StreamStats{Frequency: 1, FilterSelectivity: 1}
	}
	return out
}
