package sea

import (
	"fmt"

	"cep2asp/internal/event"
)

// ValidationError reports a semantically invalid pattern.
type ValidationError struct{ Msg string }

func (e *ValidationError) Error() string { return "sea: invalid pattern: " + e.Msg }

func invalidf(format string, args ...any) error {
	return &ValidationError{Msg: fmt.Sprintf(format, args...)}
}

// Validate checks the semantic well-formedness rules of SEA patterns:
//
//   - aliases are unique across the pattern;
//   - negated leaves appear only as inner (neither first nor last) elements
//     of a sequence, forming the ternary negated sequence of Eq. 14 — unary
//     negation violates SEA's closure properties (§3.2) and is rejected;
//   - iteration counts are at least 1, and bounded iterations of m=1 are
//     permitted (they degenerate to a plain occurrence);
//   - WHERE references only declared aliases; iteration-indexed references
//     (e[i], e[i+1]) only target iteration aliases;
//   - predicates over a negated alias may constrain it alone or equate one
//     of its attributes with another alias' attribute (used for keying);
//     other cross-predicates involving negated aliases are not expressible
//     in the NSEQ mapping's next-occurrence UDF and are rejected;
//   - the window has a positive size and a positive slide no larger than
//     the size (Theorem 2's completeness precondition is checked against
//     stream rates at translation time, not here);
//   - RETURN items reference declared, non-negated aliases.
func Validate(p *Pattern) error {
	if p.Root == nil {
		return invalidf("empty pattern structure")
	}
	leaves := p.Leaves()
	if len(leaves) == 0 {
		return invalidf("pattern has no event leaves")
	}

	aliases := make(map[string]*EventLeaf, len(leaves))
	for _, l := range leaves {
		if l.Alias == "" {
			return invalidf("event leaf %s has no alias", l.TypeName)
		}
		if prev, dup := aliases[l.Alias]; dup {
			return invalidf("alias %q bound twice (types %s and %s)", l.Alias, prev.TypeName, l.TypeName)
		}
		aliases[l.Alias] = l
	}

	if err := validateStructure(p.Root); err != nil {
		return err
	}
	if _, err := Analyze(p); err != nil {
		return err
	}

	if p.Window.Size <= 0 {
		return invalidf("window size must be positive")
	}
	if p.Window.Slide <= 0 {
		return invalidf("window slide must be positive")
	}
	if p.Window.Slide > p.Window.Size {
		return invalidf("window slide (%d) exceeds window size (%d): matches spanning pane boundaries would be lost", p.Window.Slide, p.Window.Size)
	}

	for _, r := range p.Return {
		l, ok := aliases[r.Alias]
		if !ok {
			return invalidf("RETURN references unknown alias %q", r.Alias)
		}
		if l.Negated {
			return invalidf("RETURN references negated alias %q, which contributes no event to a match", r.Alias)
		}
		if _, ok := event.Accessor(r.Attr); !ok {
			return invalidf("RETURN references unknown attribute %q", r.Attr)
		}
	}
	return nil
}

// validateStructure walks the tree checking negation placement and
// iteration bounds.
func validateStructure(n Node) error {
	switch v := n.(type) {
	case *EventLeaf:
		if v.Negated {
			return invalidf("negation of %q must appear between two positive elements of a SEQ (negated sequence, Eq. 14)", v.Alias)
		}
		return nil
	case *IterNode:
		if v.M < 1 {
			return invalidf("iteration of %q needs m >= 1", v.Leaf.Alias)
		}
		if v.Leaf.Negated {
			return invalidf("iteration over a negated type is not part of SEA")
		}
		return nil
	case *SeqNode:
		if len(v.Children) < 2 {
			return invalidf("SEQ needs at least two elements")
		}
		for i, c := range v.Children {
			leaf, isLeaf := c.(*EventLeaf)
			if isLeaf && leaf.Negated {
				if i == 0 || i == len(v.Children)-1 {
					return invalidf("negated element %q cannot be the first or last element of a SEQ (Eq. 14 bounds the absence interval by its neighbours)", leaf.Alias)
				}
				prev, prevLeafOK := v.Children[i-1].(*EventLeaf)
				if prevLeafOK && prev.Negated {
					return invalidf("consecutive negated elements (%q, %q) are not supported", prev.Alias, leaf.Alias)
				}
				continue
			}
			if err := validateStructure(c); err != nil {
				return err
			}
		}
		return nil
	case *AndNode:
		if len(v.Children) < 2 {
			return invalidf("AND needs at least two elements")
		}
		for _, c := range v.Children {
			if err := validateStructure(c); err != nil {
				return err
			}
		}
		return nil
	case *OrNode:
		if len(v.Children) < 2 {
			return invalidf("OR needs at least two elements")
		}
		for _, c := range v.Children {
			if err := validateStructure(c); err != nil {
				return err
			}
		}
		return nil
	default:
		return invalidf("unknown pattern node %T", n)
	}
}
