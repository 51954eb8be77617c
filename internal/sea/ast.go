package sea

import (
	"fmt"
	"strings"

	"cep2asp/internal/event"
)

// Node is a node of the pattern structure tree (the PATTERN clause).
type Node interface {
	fmt.Stringer
	// Leaves appends the event leaves of the subtree, in pattern order,
	// to dst and returns the extended slice. Negated leaves are included.
	Leaves(dst []*EventLeaf) []*EventLeaf
}

// EventLeaf binds one event occurrence: an event type plus the alias by
// which WHERE and RETURN clauses refer to it. Negated marks the leaf as the
// absent component of a negated sequence (§3.2, Eq. 14): it contributes no
// constituent to a match.
type EventLeaf struct {
	TypeName string
	Type     event.Type
	Alias    string
	Negated  bool
}

func (l *EventLeaf) String() string {
	if l.Negated {
		return "!" + l.TypeName + " " + l.Alias
	}
	return l.TypeName + " " + l.Alias
}

// Leaves implements Node.
func (l *EventLeaf) Leaves(dst []*EventLeaf) []*EventLeaf { return append(dst, l) }

// SeqNode is the sequence operator SEQ(c1, ..., cn): every child must occur,
// in strictly increasing timestamp order (Eq. 10). Sequences are associative
// (§3.2), so the parser flattens nested sequences. Children may be negated
// leaves, forming negated sequences (NSEQ); validation guarantees negated
// leaves never appear first or last.
type SeqNode struct{ Children []Node }

func (n *SeqNode) String() string { return renderNary("SEQ", n.Children) }

// Leaves implements Node.
func (n *SeqNode) Leaves(dst []*EventLeaf) []*EventLeaf { return naryLeaves(n.Children, dst) }

// AndNode is the conjunction operator AND(c1, ..., cn): every child must
// occur within the window, in any order (Eq. 9). Associative and
// commutative; parsed flat.
type AndNode struct{ Children []Node }

func (n *AndNode) String() string { return renderNary("AND", n.Children) }

// Leaves implements Node.
func (n *AndNode) Leaves(dst []*EventLeaf) []*EventLeaf { return naryLeaves(n.Children, dst) }

// OrNode is the disjunction operator OR(c1, ..., cn): any one child
// occurring within the window is a match (Eq. 11). Associative and
// commutative; parsed flat.
type OrNode struct{ Children []Node }

func (n *OrNode) String() string { return renderNary("OR", n.Children) }

// Leaves implements Node.
func (n *OrNode) Leaves(dst []*EventLeaf) []*EventLeaf { return naryLeaves(n.Children, dst) }

// IterNode is the iteration operator ITER_m(T e): exactly M events of one
// type in strictly increasing timestamp order (Eq. 12). With Unbounded set,
// the node denotes the Kleene+ style variation "at least M events"
// supported through optimization O2 (§4.3.2).
type IterNode struct {
	Leaf      *EventLeaf
	M         int
	Unbounded bool // at least M rather than exactly M
}

func (n *IterNode) String() string {
	plus := ""
	if n.Unbounded {
		plus = "+"
	}
	return fmt.Sprintf("ITER(%s, %d%s)", n.Leaf, n.M, plus)
}

// Leaves implements Node.
func (n *IterNode) Leaves(dst []*EventLeaf) []*EventLeaf { return append(dst, n.Leaf) }

func renderNary(op string, children []Node) string {
	parts := make([]string, len(children))
	for i, c := range children {
		parts[i] = c.String()
	}
	return op + "(" + strings.Join(parts, ", ") + ")"
}

func naryLeaves(children []Node, dst []*EventLeaf) []*EventLeaf {
	for _, c := range children {
		dst = c.Leaves(dst)
	}
	return dst
}

// children returns the operands of a SEQ, AND or OR node; nil otherwise.
func children(n Node) []Node {
	switch v := n.(type) {
	case *SeqNode:
		return v.Children
	case *AndNode:
		return v.Children
	case *OrNode:
		return v.Children
	}
	return nil
}

// Window is the mandatory explicit window of every pattern (§3.1.2):
// time-based, sliding, with size W and slide s. Theorem 2 requires the slide
// to be at most the smallest inter-arrival time of the involved streams for
// completeness; the paper's evaluation uses a one-minute slide throughout
// (§5.1.3).
type Window struct {
	Size  event.Time
	Slide event.Time
}

func (w Window) String() string {
	return fmt.Sprintf("WITHIN %s SLIDE %s", formatDuration(w.Size), formatDuration(w.Slide))
}

func formatDuration(d event.Time) string {
	plural := func(n event.Time, unit string) string {
		if n == 1 {
			return fmt.Sprintf("1 %s", unit)
		}
		return fmt.Sprintf("%d %sS", n, unit)
	}
	switch {
	case d >= event.Hour && d%event.Hour == 0:
		return plural(d/event.Hour, "HOUR")
	case d >= event.Minute && d%event.Minute == 0:
		return plural(d/event.Minute, "MINUTE")
	case d >= event.Second && d%event.Second == 0:
		return plural(d/event.Second, "SECOND")
	default:
		return fmt.Sprintf("%d MS", d)
	}
}

// ReturnItem projects one attribute of a match into the output (RETURN
// clause). An empty Return list means RETURN *: the concatenation of all
// attributes of the participating events (§4.1, mapping directive).
type ReturnItem struct {
	Alias string
	Attr  string
	As    string
}

func (r ReturnItem) String() string {
	s := r.Alias + "." + r.Attr
	if r.As != "" {
		s += " AS " + r.As
	}
	return s
}

// Pattern is a complete SEA pattern: structure, predicates, window, and
// output definition (Listing 1).
type Pattern struct {
	Name   string
	Root   Node
	Where  BoolExpr
	Window Window
	Return []ReturnItem
}

// String renders the pattern in the PSL surface syntax.
func (p *Pattern) String() string {
	var b strings.Builder
	b.WriteString("PATTERN " + p.Root.String())
	if _, isTrue := p.Where.(TrueExpr); !isTrue {
		b.WriteString("\nWHERE " + p.Where.String())
	}
	b.WriteString("\n" + p.Window.String())
	if len(p.Return) > 0 {
		parts := make([]string, len(p.Return))
		for i, r := range p.Return {
			parts[i] = r.String()
		}
		b.WriteString("\nRETURN " + strings.Join(parts, ", "))
	}
	return b.String()
}

// Leaves returns the pattern's event leaves in pattern order.
func (p *Pattern) Leaves() []*EventLeaf { return p.Root.Leaves(nil) }

// PositiveLeaves returns the leaves that contribute constituents to a match
// (all leaves except negated ones), in pattern order. This order defines the
// canonical constituent layout of the pattern's matches.
func (p *Pattern) PositiveLeaves() []*EventLeaf {
	var out []*EventLeaf
	for _, l := range p.Leaves() {
		if !l.Negated {
			out = append(out, l)
		}
	}
	return out
}

// Layout returns the canonical alias layout of the pattern's matches:
// positive leaves in pattern order, with iteration leaves occupying M
// consecutive slots (the alias maps to the first).
func (p *Pattern) Layout() Layout {
	layout := make(Layout)
	pos := 0
	var walk func(n Node)
	walk = func(n Node) {
		switch v := n.(type) {
		case *EventLeaf:
			if !v.Negated {
				layout[v.Alias] = pos
				pos++
			}
		case *IterNode:
			layout[v.Leaf.Alias] = pos
			pos += v.M
		}
		for _, c := range children(n) {
			walk(c)
		}
	}
	walk(p.Root)
	return layout
}
