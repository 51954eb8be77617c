package cep

import (
	"fmt"
	"time"

	"cep2asp/internal/event"
	"cep2asp/internal/nfa"
)

// Builder assembles NFA programs in the style of FlinkCEP's functional
// pattern API (§2, "one non-declarative exception is the language model of
// FlinkCEP"). The operator choices mirror the ones the paper uses for
// equivalent workloads (§5.1.2): FollowedByAny corresponds to
// skip-till-any-match, FollowedBy to skip-till-next-match, Next to
// strict-contiguity; Times(m) with AllowCombinations expands bounded
// iteration; NotFollowedBy inserts a negation.
//
// Mixing contiguity modes within one pattern is not supported (the policy
// is program-wide, as in the paper's experiments which use one policy per
// run); the builder records the policy of the first chained connective and
// rejects conflicting ones.
type Builder struct {
	prog      *nfa.Program
	policy    nfa.Policy
	policySet bool
	err       error
	// pending negation: recorded on NotFollowedBy, attached when the next
	// positive stage arrives.
	pendingNeg *nfa.Negation
}

// Begin starts a pattern with a first stage accepting the given event type.
func Begin(name, typeName string) *Builder {
	b := &Builder{prog: &nfa.Program{Name: name}}
	b.prog.Stages = append(b.prog.Stages, nfa.Stage{
		Name: typeName,
		Type: event.RegisterType(typeName),
	})
	return b
}

func (b *Builder) setPolicy(p nfa.Policy) {
	if b.err != nil {
		return
	}
	if b.policySet && b.policy != p {
		b.err = fmt.Errorf("cep: mixed selection policies in one pattern (%s vs %s)", b.policy, p)
		return
	}
	b.policy, b.policySet = p, true
}

func (b *Builder) addStage(typeName string) {
	if b.err != nil {
		return
	}
	if b.pendingNeg != nil {
		b.prog.Negations = append(b.prog.Negations, *b.pendingNeg)
		b.pendingNeg = nil
	}
	b.prog.Stages = append(b.prog.Stages, nfa.Stage{
		Name: typeName,
		Type: event.RegisterType(typeName),
	})
}

// FollowedByAny chains a stage under skip-till-any-match (.followedByAny).
func (b *Builder) FollowedByAny(typeName string) *Builder {
	b.setPolicy(nfa.SkipTillAnyMatch)
	b.addStage(typeName)
	return b
}

// FollowedBy chains a stage under skip-till-next-match (.followedBy).
func (b *Builder) FollowedBy(typeName string) *Builder {
	b.setPolicy(nfa.SkipTillNextMatch)
	b.addStage(typeName)
	return b
}

// Next chains a stage under strict contiguity (.next).
func (b *Builder) Next(typeName string) *Builder {
	b.setPolicy(nfa.StrictContiguity)
	b.addStage(typeName)
	return b
}

// NotFollowedBy inserts a negation between the previous and the next
// positive stage (.notFollowedBy). A pattern must not end with it.
func (b *Builder) NotFollowedBy(typeName string) *Builder {
	if b.err != nil {
		return b
	}
	if b.pendingNeg != nil {
		b.err = fmt.Errorf("cep: consecutive NotFollowedBy stages are not supported")
		return b
	}
	b.pendingNeg = &nfa.Negation{
		Type:  event.RegisterType(typeName),
		After: len(b.prog.Stages) - 1,
	}
	return b
}

// Where attaches a predicate to the stage added last: it receives the
// candidate event. Simple conditions in FlinkCEP style.
func (b *Builder) Where(pred func(e event.Event) bool) *Builder {
	if b.err != nil {
		return b
	}
	if b.pendingNeg != nil {
		neg := b.pendingNeg
		prev := neg.Pred
		neg.Pred = func(es []event.Event) bool {
			return (prev == nil || prev(es)) && pred(es[len(es)-1])
		}
		return b
	}
	s := &b.prog.Stages[len(b.prog.Stages)-1]
	prev := s.Pred
	s.Pred = func(es []event.Event) bool {
		return (prev == nil || prev(es)) && pred(es[len(es)-1])
	}
	return b
}

// WherePrev attaches an iterative condition comparing the candidate with
// the previously accepted constituent (FlinkCEP IterativeCondition).
func (b *Builder) WherePrev(pred func(prev, e event.Event) bool) *Builder {
	if b.err != nil {
		return b
	}
	if b.pendingNeg != nil {
		b.err = fmt.Errorf("cep: WherePrev is not applicable to NotFollowedBy")
		return b
	}
	s := &b.prog.Stages[len(b.prog.Stages)-1]
	prevPred := s.Pred
	s.Pred = func(es []event.Event) bool {
		if prevPred != nil && !prevPred(es) {
			return false
		}
		n := len(es)
		return n < 2 || pred(es[n-2], es[n-1])
	}
	return b
}

// Times expands the stage added last into m consecutive stages of the same
// type and predicate — .times(m).allowCombinations() under
// skip-till-any-match (§5.1.2).
func (b *Builder) Times(m int) *Builder {
	if b.err != nil {
		return b
	}
	if b.pendingNeg != nil {
		b.err = fmt.Errorf("cep: Times is not applicable to NotFollowedBy")
		return b
	}
	if m < 1 {
		b.err = fmt.Errorf("cep: Times(%d) needs m >= 1", m)
		return b
	}
	last := b.prog.Stages[len(b.prog.Stages)-1]
	for i := 1; i < m; i++ {
		s := last
		s.Name = fmt.Sprintf("%s[%d]", last.Name, i)
		b.prog.Stages = append(b.prog.Stages, s)
	}
	return b
}

// KeyBy partitions the automaton's state by the given key extractor.
func (b *Builder) KeyBy(key func(event.Event) int64) *Builder {
	if b.err == nil {
		b.prog.Key = key
	}
	return b
}

// Within sets the implicit window and finishes the pattern.
func (b *Builder) Within(d time.Duration) (*nfa.Program, error) {
	if b.err != nil {
		return nil, b.err
	}
	if b.pendingNeg != nil {
		return nil, fmt.Errorf("cep: pattern cannot end with NotFollowedBy (negation needs a right boundary, Eq. 14)")
	}
	b.prog.Window = event.DurationToMillis(d)
	b.prog.Policy = b.policy
	if err := b.prog.Validate(); err != nil {
		return nil, err
	}
	return b.prog, nil
}
