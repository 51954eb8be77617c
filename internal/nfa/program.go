// Package nfa implements the order-based pattern detection mechanism of
// traditional CEP systems (§2, "Processing Model"): a nondeterministic
// finite automaton whose states are pattern prefixes, with a shared buffer
// of partial matches that arriving events extend. It is the faithful
// stand-in for FlinkCEP in the paper's evaluation (§5.1.2): a single
// stateful unary operator applied to the union of all input streams, using
// implicit (predicate-based) windowing, supporting the selection policies
// strict-contiguity, skip-till-next-match and skip-till-any-match, bounded
// iteration with allowCombinations, and retrospectively evaluated negation
// (notFollowedBy).
//
// Its performance characteristics are the point: partial-match state grows
// with selectivity, window size and pattern length, and negation forces
// full matches to be buffered until the watermark — which is precisely what
// the paper measures FlinkCEP doing.
//
// What it does not do is pay for events it does not keep. The Machine tests
// the event alone against each distinct Stage.Accept first: one that no
// stage accepts builds no candidate and, if Machine.Monotone, costs no key
// lookup. It assembles each candidate (accepted prefix + event, or match +
// blocker) in a scratch slice it owns, hands that to the predicates (see
// StagePred for the contract), and allocates only for what it stores: a
// partial and its events when a candidate is accepted, a key group when the
// first unit of a key is stored. A watermark that expires nothing returns
// at once (Machine.nextDue), and Hold is a field read.
package nfa

import (
	"fmt"

	"cep2asp/internal/event"
)

// Policy is the selection policy governing how irrelevant events affect
// partial matches (§3.1.4, third impact).
type Policy int

const (
	// SkipTillAnyMatch considers any combination of relevant events,
	// branching on every accepted event (FlinkCEP .followedByAny). The
	// most flexible and most expensive policy, with worst-case exponential
	// partial-match growth.
	SkipTillAnyMatch Policy = iota
	// SkipTillNextMatch extends a partial match with the next relevant
	// event only (FlinkCEP .followedBy).
	SkipTillNextMatch
	// StrictContiguity requires matching events to arrive back-to-back
	// with no irrelevant event in between (FlinkCEP .next).
	StrictContiguity
)

func (p Policy) String() string {
	switch p {
	case SkipTillAnyMatch:
		return "skip-till-any-match"
	case SkipTillNextMatch:
		return "skip-till-next-match"
	case StrictContiguity:
		return "strict-contiguity"
	}
	return "unknown-policy"
}

// StagePred evaluates a stage's predicates incrementally on the assembled
// candidate: the constituents accepted so far (in stage order) followed by
// the event under test, so stage k sees k+1 events. Compilers bind each
// WHERE conjunct to the earliest stage at which all its aliases are
// available, and one that names a single alias to Stage.Accept instead.
//
// The slice is the machine's scratch: the machine builds one candidate at a
// time, after the order and window checks, and copies it only when every
// predicate accepted it. A predicate must therefore not retain or modify
// the slice; it may be shared by every parallel instance of a Program,
// since each Machine owns its own scratch.
type StagePred func(candidate []event.Event) bool

// Stage is one positive state transition of the automaton. Bounded
// iterations are expanded into consecutive stages of the same type, which
// under SkipTillAnyMatch yields exactly the allowCombinations semantics.
type Stage struct {
	Name string
	Type event.Type
	// Accept tests the event under test alone (a one-event candidate)
	// before its key is looked up: the conjuncts naming only this stage's
	// alias; nil accepts every event of Type. SharesAccept marks a stage
	// whose Accept is the previous stage's (one iteration's stages): the
	// machine reuses that verdict.
	Accept       StagePred
	SharesAccept bool
	Pred         StagePred
}

// Negation is a notFollowedBy constraint between two consecutive stages:
// no event of Type satisfying Pred may occur strictly between the events
// accepted at stage After and stage After+1.
type Negation struct {
	Type event.Type
	// After is the index of the positive stage preceding the negation.
	After int
	// Pred receives the full candidate match followed by the potential
	// blocker in the final slot, under the StagePred contract.
	Pred StagePred
}

// Program is a compiled pattern ready for execution by a Machine.
type Program struct {
	Name      string
	Stages    []Stage
	Negations []Negation
	// Window is the implicit window: a match's events must satisfy
	// last.TS - first.TS < Window. Traditional CEP systems turn the
	// window constraint into such predicates (§3.1.1).
	Window event.Time
	Policy Policy
	// Key partitions state; nil runs one global automaton (the paper's
	// non-partitionable patterns run FlinkCEP single-threaded, §5.1.2).
	Key func(event.Event) int64
}

// Validate checks structural sanity before execution.
func (p *Program) Validate() error {
	if len(p.Stages) == 0 {
		return fmt.Errorf("nfa: program %q has no stages", p.Name)
	}
	if p.Window <= 0 {
		return fmt.Errorf("nfa: program %q needs a positive window", p.Name)
	}
	for k, st := range p.Stages {
		if st.SharesAccept && (k == 0 || p.Stages[k-1].Type != st.Type) {
			return fmt.Errorf("nfa: stage %d shares the accept of a stage of another type", k)
		}
	}
	for _, n := range p.Negations {
		if n.After < 0 || n.After >= len(p.Stages)-1 {
			return fmt.Errorf("nfa: negation after stage %d out of range (stages: %d); negation must sit between two positive stages", n.After, len(p.Stages))
		}
	}
	return nil
}
