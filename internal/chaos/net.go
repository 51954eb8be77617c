// Network fault injection: directed, frame-counted faults on the links
// between workers. Unlike node faults — which fire inside an operator
// instance — net faults fire inside the exchange transport's send path, so
// a fired fault exercises the real codec, framing, reconnect and failure
// detection machinery of the receiving side. Faults are scoped by worker
// pair and direction (`from>to`), so asymmetric partitions — A hears B but
// B never hears A — are expressible.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"time"
)

const (
	// NetDrop silently discards one outbound data frame. The sender
	// believes the write succeeded; the receiver observes a sequence gap
	// at the next frame and must escalate to a restart.
	NetDrop Kind = iota + 16
	// NetDelay sleeps Fault.Delay before an outbound frame is written,
	// modelling a congested or lossy-with-retransmit link.
	NetDelay
	// NetReset closes the connection immediately before the write,
	// modelling a mid-stream TCP RST. The frame itself is never lost at
	// the application layer — the sender still holds it — so a transport
	// with reconnect support heals this without a restart.
	NetReset
	// NetCorrupt flips bits in the encoded frame after the length prefix,
	// modelling payload corruption the checksum must catch.
	NetCorrupt
	// NetPartition blackholes the link for a window of sends: frames (and,
	// for links toward the coordinator, control-plane messages) vanish
	// without any error at either end. Use xN to size the window; the
	// partition heals when the window is exhausted.
	NetPartition
)

// netKind reports whether k is a network fault kind.
func netKind(k Kind) bool {
	return k >= NetDrop && k <= NetPartition
}

func netKindString(k Kind) string {
	switch k {
	case NetDrop:
		return "netdrop"
	case NetDelay:
		return "netdelay"
	case NetReset:
		return "netreset"
	case NetCorrupt:
		return "netcorrupt"
	case NetPartition:
		return "netpartition"
	}
	return ""
}

// NetAction is the transport-visible outcome of registering one frame at a
// NetPoint.
type NetAction uint8

const (
	// NetPass lets the frame through unchanged.
	NetPass NetAction = iota
	// NetDropFrame discards the frame but reports success to the sender.
	NetDropFrame
	// NetResetConn severs the connection before the write.
	NetResetConn
	// NetCorruptFrame flips bits in the frame before the write.
	NetCorruptFrame
	// NetBlackhole swallows the frame as part of a partition window.
	NetBlackhole
)

func (a NetAction) String() string {
	switch a {
	case NetPass:
		return "pass"
	case NetDropFrame:
		return "drop"
	case NetResetConn:
		return "reset"
	case NetCorruptFrame:
		return "corrupt"
	case NetBlackhole:
		return "blackhole"
	}
	return fmt.Sprintf("netaction(%d)", a)
}

// NetPoint is the per-link handle of the network inject site for a
// directed worker pair. The transport resolves one per outbound
// connection; a nil NetPoint (no armed fault matches the link) costs one
// pointer comparison per frame.
type NetPoint struct {
	inj        *Injector
	link       string
	faults     []*armed
	partitions []*armed
}

// NetPoint resolves the inject site for the directed link from worker
// `from` to worker `to`, or nil when no armed network fault matches it.
// Nil-safe on a nil Injector. A fault's From/To of -1 match any worker.
func (inj *Injector) NetPoint(from, to int) *NetPoint {
	if inj == nil {
		return nil
	}
	p := &NetPoint{inj: inj, link: fmt.Sprintf("w%d>w%d", from, to)}
	for _, f := range inj.faults {
		if !netKind(f.Kind) {
			continue
		}
		if f.From >= 0 && f.From != from {
			continue
		}
		if f.To >= 0 && f.To != to {
			continue
		}
		p.faults = append(p.faults, f)
		if f.Kind == NetPartition {
			p.partitions = append(p.partitions, f)
		}
	}
	if len(p.faults) == 0 {
		return nil
	}
	return p
}

// Frame registers one outbound data frame on the link and returns the
// action the transport must apply. NetDelay faults sleep inline and still
// return NetPass (a delayed frame is eventually written). When several
// faults fire on the same frame the first destructive action wins. Hit
// counters are shared with every NetPoint of the same fault — including
// the control-plane gate — and count monotonically across restarts.
func (p *NetPoint) Frame() NetAction {
	if p == nil {
		return NetPass
	}
	act := NetPass
	for _, f := range p.faults {
		if !p.fire(f) {
			continue
		}
		if f.Kind == NetDelay {
			time.Sleep(f.Delay)
			continue
		}
		if act != NetPass {
			continue
		}
		switch f.Kind {
		case NetDrop:
			act = NetDropFrame
		case NetReset:
			act = NetResetConn
		case NetCorrupt:
			act = NetCorruptFrame
		case NetPartition:
			act = NetBlackhole
		}
	}
	return act
}

// Partitioned registers one control-plane send on the link and reports
// whether an armed NetPartition window swallows it. Only partition faults
// are consulted — frame-precise faults like netdrop must not have their
// hit counters consumed by heartbeat traffic.
func (p *NetPoint) Partitioned() bool {
	if p == nil {
		return false
	}
	blocked := false
	for _, f := range p.partitions {
		if p.fire(f) {
			blocked = true
		}
	}
	return blocked
}

// fire advances f's hit window for one send and reports whether it fires.
// Only the first firing is recorded in Fires() — partition windows span
// thousands of sends and would otherwise drown the log.
func (p *NetPoint) fire(f *armed) bool {
	if f.hits.Add(1) < f.AtHit {
		return false
	}
	n := f.fired.Add(1)
	if n > f.Times {
		return false
	}
	if n == 1 {
		p.inj.recordFire(f, p.link)
	}
	return true
}

// parseNetLink parses the tail of a network fault spec: from>to[@frame][xN]
// with * as the any-worker wildcard.
func parseNetLink(f Fault, spec, rest string) (Fault, error) {
	if i := strings.LastIndex(rest, "x"); i >= 0 {
		if n, err := strconv.ParseInt(rest[i+1:], 10, 64); err == nil {
			f.Times = n
			rest = rest[:i]
		}
	}
	if i := strings.LastIndex(rest, "@"); i >= 0 {
		n, err := strconv.ParseInt(rest[i+1:], 10, 64)
		if err != nil {
			return f, fmt.Errorf("chaos: fault %q: bad frame count %q", spec, rest[i+1:])
		}
		f.AtHit = n
		rest = rest[:i]
	}
	from, to, ok := strings.Cut(rest, ">")
	if !ok {
		return f, fmt.Errorf("chaos: fault %q: want from>to[@frame][xN]", spec)
	}
	worker := func(s string) (int, error) {
		if s == "*" {
			return -1, nil
		}
		n, err := strconv.Atoi(s)
		if err != nil || n < 0 {
			return 0, fmt.Errorf("chaos: fault %q: bad worker %q", spec, s)
		}
		return n, nil
	}
	var err error
	if f.From, err = worker(from); err != nil {
		return f, err
	}
	if f.To, err = worker(to); err != nil {
		return f, err
	}
	return f, nil
}
