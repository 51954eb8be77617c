// Package cep provides the paper's FCEP baseline: the unary CEP operator
// embedding an order-based NFA (internal/nfa) into the ASP dataflow engine
// (internal/asp), applied to the union of all input streams (§5.1.2). It
// compiles SEA patterns into NFA programs — supporting exactly the operator
// subset FlinkCEP supports (Table 2: SEQ, ITER, NSEQ; no AND, no OR).
package cep

import (
	"fmt"

	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
	"cep2asp/internal/sea"
)

// aliasInfo records which stages an alias occupies: iterations span m
// consecutive stages.
type aliasInfo struct{ first, last int }

// ErrUnsupported reports a pattern FCEP cannot express (Table 2).
type ErrUnsupported struct{ Feature string }

func (e *ErrUnsupported) Error() string {
	return "cep: the unary CEP operator does not support " + e.Feature + " (paper Table 2)"
}

// Compile translates a SEA pattern into an NFA program under the given
// selection policy. Patterns containing conjunction or disjunction are
// rejected, matching FlinkCEP's operator support (Table 2); so are
// unbounded iterations (FCEP expresses bounded iteration as
// .times(m).allowCombinations, §5.1.2).
//
// Key, when non-nil, partitions the automaton's state (FlinkCEP "can
// leverage partitioning by key and otherwise runs on a single thread").
func Compile(p *sea.Pattern, policy nfa.Policy, key func(event.Event) int64) (*nfa.Program, error) {
	prog := &nfa.Program{
		Name:   p.Name,
		Window: p.Window.Size,
		Policy: policy,
		Key:    key,
	}

	// Flatten the structure into positive stages and negation markers.
	aliases := make(map[string]*aliasInfo)
	negAlias := make(map[string]int) // alias -> negation index

	var elems []sea.Node
	switch root := p.Root.(type) {
	case *sea.SeqNode:
		elems = root.Children
	case *sea.IterNode, *sea.EventLeaf, *sea.AndNode, *sea.OrNode:
		elems = []sea.Node{root} // the element loop rejects AND and OR
	default:
		return nil, fmt.Errorf("cep: unknown pattern node %T", root)
	}

	for _, el := range elems {
		switch v := el.(type) {
		case *sea.EventLeaf:
			if v.Negated {
				after := len(prog.Stages) - 1
				prog.Negations = append(prog.Negations, nfa.Negation{Type: v.Type, After: after})
				negAlias[v.Alias] = len(prog.Negations) - 1
				continue
			}
			aliases[v.Alias] = &aliasInfo{first: len(prog.Stages), last: len(prog.Stages)}
			prog.Stages = append(prog.Stages, nfa.Stage{Name: v.Alias, Type: v.Type})
		case *sea.IterNode:
			if v.Unbounded {
				return nil, &ErrUnsupported{Feature: "unbounded iteration (Kleene+); FCEP patterns use .times(m).allowCombinations"}
			}
			first := len(prog.Stages)
			for i := 0; i < v.M; i++ {
				prog.Stages = append(prog.Stages, nfa.Stage{
					Name:         fmt.Sprintf("%s[%d]", v.Leaf.Alias, i),
					Type:         v.Leaf.Type,
					SharesAccept: i > 0,
				})
			}
			aliases[v.Leaf.Alias] = &aliasInfo{first: first, last: first + v.M - 1}
		case *sea.AndNode:
			return nil, &ErrUnsupported{Feature: "conjunction (AND)"}
		case *sea.OrNode:
			return nil, &ErrUnsupported{Feature: "disjunction (OR)"}
		case *sea.SeqNode:
			return nil, fmt.Errorf("cep: nested sequences should have been flattened by the parser")
		default:
			return nil, fmt.Errorf("cep: unknown pattern element %T", el)
		}
	}

	an, err := sea.Analyze(p)
	if err != nil {
		return nil, err
	}
	// Negation predicates are compiled against the match's constituents
	// plus the blocker in the final slot.
	negLayout := sea.Layout{}
	for a, info := range aliases {
		negLayout[a] = info.first
	}
	for a := range negAlias {
		negLayout[a] = len(prog.Stages)
	}
	// Attach WHERE conjuncts to stages / negations, as their class says.
	stagePreds := make([][]sea.Predicate, len(prog.Stages))
	negPreds := make([][]sea.Predicate, len(prog.Negations))
	for _, c := range an.Conjuncts {
		switch c.Class {
		case sea.Negation:
			pred, err := sea.CompileBool(c.Expr, negLayout)
			if err != nil {
				return nil, fmt.Errorf("cep: compiling negation predicate %s: %w", c.Expr, err)
			}
			negPreds[negAlias[c.On]] = append(negPreds[negAlias[c.On]], pred)
		case sea.Pairwise:
			// Attach at stages 2..m of the iteration, comparing the
			// previous constituent with the candidate.
			info := aliases[c.On]
			pair, err := sea.CompileAdjacent(c.Expr, c.On)
			if err != nil {
				return nil, fmt.Errorf("cep: compiling pairwise predicate %s: %w", c.Expr, err)
			}
			for s := info.first + 1; s <= info.last; s++ {
				prevIdx := s - 1
				// The candidate ends {previous constituent, event under test}.
				stagePreds[s] = append(stagePreds[s], func(es []event.Event) bool {
					return pair(es[prevIdx:])
				})
			}
		case sea.Join:
			// Expand iteration aliases over every constituent position
			// (universal quantification) and attach each expansion at the
			// latest referenced stage, where all its events are available.
			combos, err := expandPositions(c.Expr, c.Aliases, aliases)
			if err != nil {
				return nil, err
			}
			for _, c := range combos {
				stagePreds[c.stage] = append(stagePreds[c.stage], c.pred)
			}
		}
	}

	// Unary conjuncts test the event alone: the accept of every stage the
	// alias occupies (each constituent must pass it).
	for alias, info := range aliases {
		unary := sea.Conjoin(an.Unary(alias))
		if _, none := unary.(sea.TrueExpr); none {
			continue
		}
		accept, err := sea.CompileBool(unary, sea.Layout{alias: 0})
		if err != nil {
			return nil, fmt.Errorf("cep: compiling predicate %s: %w", unary, err)
		}
		for s := info.first; s <= info.last; s++ {
			prog.Stages[s].Accept = nfa.StagePred(accept)
		}
	}
	for s := range prog.Stages {
		prog.Stages[s].Pred = conjoin(stagePreds[s])
	}
	for i := range prog.Negations {
		prog.Negations[i].Pred = conjoin(negPreds[i])
	}

	if err := prog.Validate(); err != nil {
		return nil, err
	}
	return prog, nil
}

// conjoin joins conjuncts into one predicate: nil for none, the conjunct
// itself for one. One Program serves every parallel keyed instance and the
// candidate is the calling machine's scratch: predicates must not retain
// the slice.
func conjoin(preds []sea.Predicate) nfa.StagePred {
	switch len(preds) {
	case 0:
		return nil
	case 1:
		return nfa.StagePred(preds[0])
	}
	return func(es []event.Event) bool {
		for _, pr := range preds {
			if !pr(es) {
				return false
			}
		}
		return true
	}
}

type positioned struct {
	stage int
	pred  sea.Predicate
}

// expandPositions compiles one plain conjunct into per-stage predicates,
// enumerating every constituent position for iteration aliases so the
// constraint holds universally.
func expandPositions(conj sea.BoolExpr, refs []string, aliases map[string]*aliasInfo) ([]positioned, error) {
	choices := make([][]int, len(refs))
	for i, a := range refs {
		info := aliases[a]
		if info == nil {
			return nil, fmt.Errorf("cep: predicate references unknown alias %q", a)
		}
		for s := info.first; s <= info.last; s++ {
			choices[i] = append(choices[i], s)
		}
	}
	var out []positioned
	idx := make([]int, len(refs))
	for {
		layout := sea.Layout{}
		maxStage := 0
		for i, a := range refs {
			pos := choices[i][idx[i]]
			layout[a] = pos
			if pos > maxStage {
				maxStage = pos
			}
		}
		pred, err := sea.CompileBool(conj, layout)
		if err != nil {
			return nil, fmt.Errorf("cep: compiling predicate %s: %w", conj, err)
		}
		out = append(out, positioned{stage: maxStage, pred: pred})
		// Advance the odometer.
		i := 0
		for ; i < len(idx); i++ {
			idx[i]++
			if idx[i] < len(choices[i]) {
				break
			}
			idx[i] = 0
		}
		if i == len(idx) {
			break
		}
	}
	return out, nil
}
