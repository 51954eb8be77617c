// Package chaos provides deterministic fault injection for the dataflow
// engine: named inject sites compiled into the operator, source and sink
// execution paths fire configured faults — panic, delay, channel stall —
// at an exact hit count or on an exact record, so tests and the benchrunner
// can kill arbitrary operator instances mid-run and prove that supervised
// recovery preserves exactly-once match semantics (the Jepsen-lineage
// methodology for streaming systems).
//
// The package is engine-agnostic: sites are identified by a node name and
// instance index, records by an opaque key string. A nil *Injector — and a
// nil *Point, which the engine caches per instance — is a no-op, keeping
// the un-faulted fast path at one pointer comparison per record.
package chaos

import (
	"fmt"
	"strconv"
	"strings"
	"sync"
	"sync/atomic"
	"time"
)

// Kind selects the failure mode a fault injects.
type Kind uint8

const (
	// Panic panics the hitting goroutine — the engine's recovery wrappers
	// convert it into a structured OperatorFailure.
	Panic Kind = iota
	// Delay sleeps the hitting goroutine for Fault.Delay, modelling a slow
	// or GC-stalled operator.
	Delay
	// Stall blocks the hitting goroutine until Injector.ReleaseStalls,
	// modelling a wedged operator that never returns — the case the
	// engine's shutdown deadline exists for.
	Stall
	// KillWorker kills the whole worker process hosting the hitting
	// instance: the injector's OnKill hook (wired by the distributed
	// worker runtime) abruptly severs the worker's network connections,
	// modelling a process crash the coordinator only observes as dead
	// TCP connections. Without a hook the fault degrades to Panic, so
	// single-process runs still fail loudly instead of silently passing.
	KillWorker
)

func (k Kind) String() string {
	switch k {
	case Panic:
		return "panic"
	case Delay:
		return "delay"
	case Stall:
		return "stall"
	case KillWorker:
		return "killworker"
	}
	if s := netKindString(k); s != "" {
		return s
	}
	return fmt.Sprintf("kind(%d)", k)
}

// Fault arms one failure at one inject site.
type Fault struct {
	// Kind is the failure mode; Delay holds the sleep for Kind == Delay.
	Kind  Kind
	Delay time.Duration
	// Node names the dataflow node whose instances carry the site; it must
	// match exactly. Instance selects one parallel instance, or any when
	// negative.
	Node     string
	Instance int
	// AtHit fires the fault starting at the Nth matching hit (1-based);
	// zero behaves like 1. Hits count across restarts: a shared Injector
	// keeps counting while a supervisor rebuilds and replays the graph.
	AtHit int64
	// Times bounds how many hits fire the fault in total (default 1). A
	// panic fault with Times > 1 re-fires after each restart — the
	// crash-loop a poison record produces.
	Times int64
	// RecordKey, when set, matches hits by record identity instead of hit
	// count: the fault fires on every processing attempt of exactly that
	// record (see the engine's poison-record key format) until Times is
	// exhausted. This is what makes poison-record injection deterministic
	// across restarts, where hit counts shift with the replay offset.
	RecordKey string
	// From and To scope a network fault (net.go) to the directed link from
	// one worker to another; -1 matches any worker. Ignored — and zero —
	// for node faults, keeping old specs gob-compatible on the wire.
	From, To int
}

func (f Fault) String() string {
	s := f.Kind.String()
	if f.Kind == Delay || f.Kind == NetDelay {
		s += "=" + f.Delay.String()
	}
	if netKind(f.Kind) {
		from, to := "*", "*"
		if f.From >= 0 {
			from = strconv.Itoa(f.From)
		}
		if f.To >= 0 {
			to = strconv.Itoa(f.To)
		}
		s += ":" + from + ">" + to
		if f.AtHit > 1 {
			s += "@" + strconv.FormatInt(f.AtHit, 10)
		}
		if f.Times > 1 {
			s += "x" + strconv.FormatInt(f.Times, 10)
		}
		return s
	}
	inst := "*"
	if f.Instance >= 0 {
		inst = strconv.Itoa(f.Instance)
	}
	s += ":" + f.Node + "/" + inst
	if f.RecordKey != "" {
		s += "%" + f.RecordKey
	} else if f.AtHit > 1 {
		s += "@" + strconv.FormatInt(f.AtHit, 10)
	}
	if f.Times > 1 {
		s += "x" + strconv.FormatInt(f.Times, 10)
	}
	return s
}

// armed is one fault plus its live counters, shared by every matching point.
type armed struct {
	Fault
	hits  atomic.Int64
	fired atomic.Int64
}

// Injected is the panic value of a Panic fault; recovery wrappers surface
// it inside the structured failure so tests can tell injected crashes from
// real bugs.
type Injected struct {
	Fault string
	Site  string
}

func (p *Injected) Error() string {
	return fmt.Sprintf("chaos: injected panic (%s) at %s", p.Fault, p.Site)
}

// Injector holds a set of armed faults. One Injector is attached to an
// engine configuration; sharing it across restarts of the same job keeps
// the hit and fire counters monotonic, so a once-only fault does not
// re-fire after recovery.
type Injector struct {
	faults []*armed
	stall  chan struct{}

	mu     sync.Mutex
	fires  []string
	onKill func(site string)
}

// SetOnKill installs the KillWorker hook: the distributed worker runtime
// registers a function that severs the process's network connections and
// cancels its jobs, simulating an abrupt process death. Nil-safe; without
// a hook KillWorker faults degrade to Panic.
func (inj *Injector) SetOnKill(fn func(site string)) {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	inj.onKill = fn
	inj.mu.Unlock()
}

// killHook returns the registered KillWorker hook, or nil.
func (inj *Injector) killHook() func(site string) {
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return inj.onKill
}

// NewInjector arms the given faults.
func NewInjector(faults ...Fault) *Injector {
	inj := &Injector{stall: make(chan struct{})}
	for _, f := range faults {
		if f.AtHit <= 0 {
			f.AtHit = 1
		}
		if f.Times <= 0 {
			f.Times = 1
		}
		inj.faults = append(inj.faults, &armed{Fault: f})
	}
	return inj
}

// Faults returns the armed faults as configured, for shipping to the
// processes of a distributed run. Nil-safe.
func (inj *Injector) Faults() []Fault {
	if inj == nil {
		return nil
	}
	out := make([]Fault, len(inj.faults))
	for i, f := range inj.faults {
		out[i] = f.Fault
	}
	return out
}

// Point is the per-instance handle of an inject site. The engine resolves
// one Point per operator/source instance at startup; a nil Point (no fault
// targets the instance) costs one pointer comparison per record.
type Point struct {
	inj  *Injector
	site string
	// NeedKey reports whether any fault at this point matches by record
	// key, so the engine only computes keys when a fault asks for them.
	NeedKey bool
	faults  []*armed
}

// Point resolves the inject site for one node instance, or nil when no
// armed fault targets it. Nil-safe on a nil Injector.
func (inj *Injector) Point(node string, instance int) *Point {
	if inj == nil {
		return nil
	}
	p := &Point{inj: inj, site: fmt.Sprintf("%s/%d", node, instance)}
	for _, f := range inj.faults {
		if f.Node != node || (f.Instance >= 0 && f.Instance != instance) {
			continue
		}
		p.faults = append(p.faults, f)
		if f.RecordKey != "" {
			p.NeedKey = true
		}
	}
	if len(p.faults) == 0 {
		return nil
	}
	return p
}

// Hit registers one record-processing attempt at the point. key is the
// record's identity (may be empty unless NeedKey). It panics, sleeps or
// stalls when an armed fault fires.
func (p *Point) Hit(key string) {
	if p == nil {
		return
	}
	for _, f := range p.faults {
		if f.RecordKey != "" {
			if key != f.RecordKey {
				continue
			}
		} else if f.hits.Add(1) < f.AtHit {
			continue
		}
		if f.fired.Add(1) > f.Times {
			continue // exhausted
		}
		p.inj.recordFire(f, p.site)
		switch f.Kind {
		case Panic:
			panic(&Injected{Fault: f.Fault.String(), Site: p.site})
		case Delay:
			time.Sleep(f.Delay)
		case Stall:
			<-p.inj.stall
		case KillWorker:
			if kill := p.inj.killHook(); kill != nil {
				kill(p.site)
				// The hook tears the process's connections down; the hitting
				// goroutine stalls here until the run's cancellation drains
				// it, like a thread inside a dying process.
				<-p.inj.stall
				return
			}
			panic(&Injected{Fault: f.Fault.String(), Site: p.site})
		}
	}
}

func (inj *Injector) recordFire(f *armed, site string) {
	inj.mu.Lock()
	inj.fires = append(inj.fires, fmt.Sprintf("%s at %s", f.Fault.String(), site))
	inj.mu.Unlock()
}

// Fires returns a description of every fault firing so far, in order.
func (inj *Injector) Fires() []string {
	if inj == nil {
		return nil
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	return append([]string(nil), inj.fires...)
}

// ReleaseStalls unblocks every goroutine blocked in a Stall fault (and all
// future Stall hits). Tests use it to reclaim stalled goroutines after
// asserting the shutdown-deadline behaviour.
func (inj *Injector) ReleaseStalls() {
	if inj == nil {
		return
	}
	inj.mu.Lock()
	defer inj.mu.Unlock()
	select {
	case <-inj.stall:
	default:
		close(inj.stall)
	}
}

// ParseFault parses one fault spec of the form
//
//	kind:node/inst[@hit][xN][%recordkey]
//
// where kind is panic, stall, killworker or delay=<duration>; inst is an instance
// index or * for any; @hit fires starting at the Nth matching hit
// (default 1); xN lets the fault fire N times (default 1); and %key
// switches to record-key matching. Examples:
//
//	panic:⋈w#1/0@100      kill instance 0 of node ⋈w#1 on its 100th record
//	delay=5ms:src:A/0     sleep 5ms before the source's first event
//	stall:sink#0/*        wedge any sink instance on its first record
//	panic:⋈i#3/0x9%e:3:7 panic every attempt (up to 9) at record e:3:7
//	killworker:⋈w#1/1@50  kill the worker process hosting instance 1 of
//	                      node ⋈w#1 on that instance's 50th record
//
// Network faults (net.go) address a directed worker link instead of a node:
//
//	netkind:from>to[@frame][xN]
//
// where kind is netdrop, netreset, netcorrupt, netpartition or
// netdelay=<duration>; from/to are worker indices or * for any; @frame
// fires starting at the Nth frame on the link (default 1); xN fires on N
// consecutive frames (default 1). Examples:
//
//	netreset:0>1@20          RST worker 0's data link to worker 1 before
//	                         its 20th frame — restarts from checkpoint
//	netdrop:1>*@5            silently lose worker 1's 5th outbound frame
//	netcorrupt:*>0@9x2       flip bits in frames 9-10 toward the coordinator
//	netdelay=50ms:0>2@1x10   delay the first 10 frames on 0>2 by 50ms
//	netpartition:1>0@1x5000  blackhole worker 1's link to the coordinator
//	                         (data and control) for 5000 sends
func ParseFault(spec string) (Fault, error) {
	f := Fault{Instance: -1}
	kind, rest, ok := strings.Cut(spec, ":")
	if !ok {
		return f, fmt.Errorf("chaos: fault %q: want kind:node/inst[@hit][xN][%%key]", spec)
	}
	switch {
	case kind == "panic":
		f.Kind = Panic
	case kind == "stall":
		f.Kind = Stall
	case kind == "killworker":
		f.Kind = KillWorker
	case strings.HasPrefix(kind, "delay="):
		d, err := time.ParseDuration(strings.TrimPrefix(kind, "delay="))
		if err != nil {
			return f, fmt.Errorf("chaos: fault %q: %w", spec, err)
		}
		f.Kind, f.Delay = Delay, d
	case kind == "netdrop":
		f.Kind = NetDrop
	case kind == "netreset":
		f.Kind = NetReset
	case kind == "netcorrupt":
		f.Kind = NetCorrupt
	case kind == "netpartition":
		f.Kind = NetPartition
	case strings.HasPrefix(kind, "netdelay="):
		d, err := time.ParseDuration(strings.TrimPrefix(kind, "netdelay="))
		if err != nil {
			return f, fmt.Errorf("chaos: fault %q: %w", spec, err)
		}
		f.Kind, f.Delay = NetDelay, d
	default:
		return f, fmt.Errorf("chaos: fault %q: unknown kind %q", spec, kind)
	}
	if netKind(f.Kind) {
		return parseNetLink(f, spec, rest)
	}
	if i := strings.Index(rest, "%"); i >= 0 {
		f.RecordKey = rest[i+1:]
		rest = rest[:i]
	}
	if i := strings.LastIndex(rest, "x"); i >= 0 {
		if n, err := strconv.ParseInt(rest[i+1:], 10, 64); err == nil {
			f.Times = n
			rest = rest[:i]
		}
	}
	if i := strings.LastIndex(rest, "@"); i >= 0 {
		n, err := strconv.ParseInt(rest[i+1:], 10, 64)
		if err != nil {
			return f, fmt.Errorf("chaos: fault %q: bad hit count %q", spec, rest[i+1:])
		}
		f.AtHit = n
		rest = rest[:i]
	}
	slash := strings.LastIndex(rest, "/")
	if slash < 0 {
		return f, fmt.Errorf("chaos: fault %q: want node/inst", spec)
	}
	f.Node = rest[:slash]
	inst := rest[slash+1:]
	if inst != "*" {
		n, err := strconv.Atoi(inst)
		if err != nil {
			return f, fmt.Errorf("chaos: fault %q: bad instance %q", spec, inst)
		}
		f.Instance = n
	}
	if f.Node == "" {
		return f, fmt.Errorf("chaos: fault %q: empty node name", spec)
	}
	return f, nil
}

// ParseFaults parses a comma-separated list of fault specs.
func ParseFaults(specs string) ([]Fault, error) {
	var out []Fault
	for _, s := range strings.Split(specs, ",") {
		s = strings.TrimSpace(s)
		if s == "" {
			continue
		}
		f, err := ParseFault(s)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}
