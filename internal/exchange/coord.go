package exchange

import (
	"context"
	"errors"
	"fmt"
	"log/slog"
	"net"
	"runtime"
	"sync"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/core"
	"cep2asp/internal/obs"
	"cep2asp/internal/trace"
)

// WorkerFailure reports a worker process that died mid-job (the control
// connection broke without a goodbye — a crash, a kill, a severed
// network). It is restartable: the coordinator replaces the worker and
// restores the job from the latest checkpoint.
type WorkerFailure struct {
	Worker int
	Name   string
	Err    error
}

func (f *WorkerFailure) Error() string {
	return fmt.Sprintf("exchange: worker %d (%s) died: %v", f.Worker, f.Name, f.Err)
}

func (f *WorkerFailure) Unwrap() error { return f.Err }

// Restartable marks the failure recoverable by a supervised restart.
func (f *WorkerFailure) Restartable() bool { return true }

// remoteFailure re-raises a failure a worker reported through Done,
// preserving its restartability across the wire.
type remoteFailure struct {
	worker      int
	msg         string
	restartable bool
}

func (f *remoteFailure) Error() string {
	return fmt.Sprintf("exchange: worker %d failed: %s", f.worker, f.msg)
}

func (f *remoteFailure) Restartable() bool { return f.restartable }

// CoordinatorOptions configures the job coordinator.
type CoordinatorOptions struct {
	// ListenAddr is the control-plane listen address workers join
	// ("127.0.0.1:0" default). DataAddr is the coordinator's own
	// data-plane address (it participates as worker 0).
	ListenAddr string
	DataAddr   string
	// Workers is the total worker count including the coordinator; the
	// coordinator waits for Workers-1 processes to join before running.
	Workers int
	// Metrics serves the cluster view (/cluster/*) and instruments worker
	// 0's slice and network peers when a run's engine config names no
	// registry of its own.
	Metrics *obs.Registry
	// DialTimeout bounds peer dials (default 5s); JoinTimeout bounds
	// waiting for workers to join or rejoin (default 30s).
	DialTimeout time.Duration
	JoinTimeout time.Duration
	// WriteTimeout bounds each data-plane frame write (default 10s,
	// negative disables). A receiver that stops draining its socket would
	// otherwise park the sender forever once the kernel buffer fills.
	WriteTimeout time.Duration
	// Liveness is the failure-detection deadline: a worker silent on the
	// control plane for longer is declared dead and the job restarts from
	// the latest checkpoint (default 15s, negative disables). Workers
	// heartbeat via their stats pushes, so Liveness must comfortably
	// exceed the stats interval.
	Liveness time.Duration
	// PhaseTimeout bounds each choreography phase (prepare/connect/start
	// replies); a worker that never answers is named and the attempt
	// fails restartable instead of hanging (default 30s, negative
	// disables).
	PhaseTimeout time.Duration
	// Respawn, when set, is invoked once per missing worker before a
	// recovery attempt — the process-level supervisor hook that starts a
	// replacement worker (tests spawn one in-process; scripts fork a new
	// cep2asp-worker).
	Respawn func(attempt int) error
	// Log, when set, receives structured progress events.
	Log *slog.Logger
}

// workerSlot is the coordinator's view of one worker seat (index 1..W-1).
// A seat survives its occupant: when a worker dies the seat goes dead and
// the next Hello re-fills it.
type workerSlot struct {
	idx int

	mu       sync.Mutex
	name     string
	dataAddr string
	cc       *ctrlConn
	alive    bool

	// Metrics federation: the worker's most recent stats push and when it
	// arrived. Kept after job completion so post-run scrapes of /cluster/*
	// still see the final counters.
	lastStats *WorkerStats
	lastSeen  time.Time

	// lastHeard is the failure detector's input: the arrival time of ANY
	// envelope from this worker (stats heartbeats, acks, phase replies).
	// A seat silent past the liveness deadline is declared dead even if
	// its TCP connection still looks healthy — a blackholed peer delivers
	// no FIN.
	lastHeard time.Time

	// phase receives Ready/Connected/Done envelopes for the attempt logic.
	phase chan *Envelope
}

func (s *workerSlot) snapshot() (name, addr string, cc *ctrlConn, alive bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.name, s.dataAddr, s.cc, s.alive
}

// Coordinator is core.Run's Cluster: it seats joining workers, ships each
// attempt's spec, wires the data plane, broadcasts checkpoint barriers,
// runs worker 0 — where all single-instance nodes (sources, unions, sinks)
// live under ModuloOwner, so results are collected locally — and reports
// worker deaths as restartable failures for Run's restart policy.
type Coordinator struct {
	opts CoordinatorOptions
	ln   net.Listener
	dl   *dataListener

	mu    sync.Mutex
	slots []*workerSlot
	// attempts counts the attempts prepared so far; cur is the one in
	// flight, from Prepare until its Execute returns.
	attempts int
	cur      *attempt
	closed   bool

	// tracer receives the spans workers push: the Trace of the attempt most
	// recently prepared, kept afterwards for late pushes.
	tracer *trace.Tracer

	joinCh chan struct{}
}

var _ core.Cluster = (*Coordinator)(nil)

// attempt is one execution attempt across the cluster.
type attempt struct {
	n       int
	slots   []*workerSlot
	workers []string // data-plane addresses by worker index
	tr      *Transport
	failCh  chan error
	env     *asp.Environment // worker 0's graph, once Execute runs it
}

// NewCoordinator starts the control and data listeners and begins seating
// workers. Pass it as core.RunSpec.Cluster; Close shuts everything down.
func NewCoordinator(opts CoordinatorOptions) (*Coordinator, error) {
	if opts.Workers < 1 {
		opts.Workers = 1
	}
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.JoinTimeout <= 0 {
		opts.JoinTimeout = 30 * time.Second
	}
	if opts.Liveness == 0 {
		opts.Liveness = 15 * time.Second
	}
	if opts.PhaseTimeout == 0 {
		opts.PhaseTimeout = 30 * time.Second
	}
	addr := opts.ListenAddr
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("exchange: control listener: %w", err)
	}
	dl, err := newDataListener(opts.DataAddr)
	if err != nil {
		ln.Close()
		return nil, err
	}
	c := &Coordinator{
		opts:   opts,
		ln:     ln,
		dl:     dl,
		joinCh: make(chan struct{}, 64),
	}
	for i := 1; i < opts.Workers; i++ {
		c.slots = append(c.slots, &workerSlot{idx: i, phase: make(chan *Envelope, 16)})
	}
	go c.acceptLoop()
	// The coordinator is the cluster's federation point: its registry
	// serves /cluster/metrics and /cluster/topology from the statuses the
	// workers push. The provider survives job completion (and Close) so
	// post-run scrapes still see the final counters.
	opts.Metrics.SetClusterFn(c.ClusterStatuses)
	return c, nil
}

// ControlAddr returns the address workers join (-join flag).
func (c *Coordinator) ControlAddr() string { return c.ln.Addr().String() }

func (c *Coordinator) log() *slog.Logger {
	if c.opts.Log != nil {
		return c.opts.Log
	}
	return noLog
}

// ClusterStatuses assembles the federated per-worker view: the coordinator
// itself as worker 0 (live registry snapshot) plus each seat's most recent
// stats push.
func (c *Coordinator) ClusterStatuses() []obs.WorkerStatus {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	c.mu.Lock()
	attempt := max(c.attempts-1, 0)
	slots := append([]*workerSlot(nil), c.slots...)
	c.mu.Unlock()
	out := []obs.WorkerStatus{{
		Worker: 0, Name: "coordinator", Attempt: attempt,
		Goroutines: runtime.NumGoroutine(), HeapBytes: ms.HeapAlloc,
		Snap: c.opts.Metrics.Snapshot(),
	}}
	for _, s := range slots {
		s.mu.Lock()
		st, seen := s.lastStats, s.lastSeen
		s.mu.Unlock()
		if st == nil {
			continue
		}
		out = append(out, obs.WorkerStatus{
			Worker: st.Worker, Name: st.Name, Attempt: st.Attempt,
			LastSeenMs: time.Since(seen).Milliseconds(),
			Goroutines: st.Goroutines, HeapBytes: st.HeapBytes,
			Snap: st.Snap,
		})
	}
	return out
}

// Close shuts the coordinator down, disconnecting all workers.
func (c *Coordinator) Close() {
	c.mu.Lock()
	if c.closed {
		c.mu.Unlock()
		return
	}
	c.closed = true
	slots := append([]*workerSlot(nil), c.slots...)
	c.mu.Unlock()
	c.ln.Close()
	c.dl.Close()
	for _, s := range slots {
		if _, _, cc, alive := s.snapshot(); alive && cc != nil {
			cc.close()
		}
	}
}

func (c *Coordinator) acceptLoop() {
	for {
		conn, err := c.ln.Accept()
		if err != nil {
			return
		}
		go c.seat(conn)
	}
}

// seat reads a joining worker's Hello and assigns it the first dead seat.
func (c *Coordinator) seat(conn net.Conn) {
	cc := newCtrlConn(conn)
	conn.SetReadDeadline(time.Now().Add(c.opts.JoinTimeout))
	hello, err := cc.recv()
	if err != nil || hello.Kind != MsgHello || hello.DataAddr == "" {
		conn.Close()
		return
	}
	conn.SetReadDeadline(time.Time{})
	c.mu.Lock()
	var slot *workerSlot
	for _, s := range c.slots {
		s.mu.Lock()
		if !s.alive {
			s.name, s.dataAddr, s.cc, s.alive = hello.Name, hello.DataAddr, cc, true
			slot = s
		}
		s.mu.Unlock()
		if slot != nil {
			break
		}
	}
	c.mu.Unlock()
	if slot == nil {
		conn.Close() // all seats taken
		return
	}
	c.log().Info("exchange: worker joined",
		"worker", slot.idx, "name", hello.Name, "data_addr", hello.DataAddr)
	select {
	case c.joinCh <- struct{}{}:
	default:
	}
	go c.serveSlot(slot, cc)
}

// serveSlot reads one worker's control connection for its lifetime,
// dispatching checkpoint acks to the running environment and phase
// replies to the attempt logic. A read error is a worker death.
func (c *Coordinator) serveSlot(s *workerSlot, cc *ctrlConn) {
	for {
		e, err := cc.recv()
		if err != nil {
			s.mu.Lock()
			// Only the current occupant's death counts; a replaced
			// connection's EOF must not kill the replacement's seat.
			mine := s.cc == cc
			if mine {
				s.alive = false
			}
			name := s.name
			s.mu.Unlock()
			if mine {
				c.log().Warn("exchange: worker connection lost",
					"worker", s.idx, "name", name, "err", err)
				c.reportFailure(&WorkerFailure{Worker: s.idx, Name: name, Err: err})
			}
			return
		}
		s.mu.Lock()
		s.lastHeard = time.Now()
		s.mu.Unlock()
		switch e.Kind {
		case MsgAck, MsgFinish:
			c.forwardAck(e)
		case MsgStats:
			if e.Stats != nil {
				s.mu.Lock()
				s.lastStats, s.lastSeen = e.Stats, time.Now()
				s.mu.Unlock()
				c.mu.Lock()
				tracer := c.tracer
				c.mu.Unlock()
				tracer.AddBatch(e.Stats.Spans)
			}
		case MsgReady, MsgConnected, MsgDone:
			select {
			case s.phase <- e:
			default: // stale flood; the attempt logic re-syncs by attempt tag
			}
		}
	}
}

// reportFailure delivers a failure to the attempt in flight, if any.
func (c *Coordinator) reportFailure(err error) {
	c.mu.Lock()
	a := c.cur
	c.mu.Unlock()
	if a != nil {
		select {
		case a.failCh <- err:
		default:
		}
	}
}

// forwardAck feeds a worker's checkpoint acknowledgement into the running
// environment's coordinator (dropping stale attempts).
func (c *Coordinator) forwardAck(e *Envelope) {
	c.mu.Lock()
	var env *asp.Environment
	if a := c.cur; a != nil && a.n == e.Attempt {
		env = a.env
	}
	c.mu.Unlock()
	if env == nil {
		return
	}
	sink := env.AckSink()
	if sink == nil {
		return
	}
	switch e.Kind {
	case MsgAck:
		sink.Ack(e.CheckpointID, e.Task, e.State, time.Duration(e.PauseNs))
	case MsgFinish:
		sink.FinishTask(e.Task, e.State)
	}
}

// WaitForWorkers blocks until every worker seat is filled.
func (c *Coordinator) WaitForWorkers(ctx context.Context) error {
	deadline := time.NewTimer(c.opts.JoinTimeout)
	defer deadline.Stop()
	for {
		missing := 0
		for _, s := range c.slots {
			if _, _, _, alive := s.snapshot(); !alive {
				missing++
			}
		}
		if missing == 0 {
			return nil
		}
		select {
		case <-c.joinCh:
		case <-ctx.Done():
			return ctx.Err()
		case <-deadline.C:
			return fmt.Errorf("exchange: %d of %d workers missing after %v",
				missing, c.opts.Workers-1, c.opts.JoinTimeout)
		}
	}
}

// ensureWorkers refills dead seats, invoking the Respawn hook when set.
func (c *Coordinator) ensureWorkers(ctx context.Context, attempt int) error {
	missing := 0
	for _, s := range c.slots {
		if _, _, _, alive := s.snapshot(); !alive {
			missing++
		}
	}
	if missing > 0 && c.opts.Respawn != nil {
		for i := 0; i < missing; i++ {
			if err := c.opts.Respawn(attempt); err != nil {
				return fmt.Errorf("exchange: respawning worker: %w", err)
			}
		}
	}
	return c.WaitForWorkers(ctx)
}

// aliveSlots returns the currently occupied seats with their connections.
func (c *Coordinator) aliveSlots() []*workerSlot {
	var out []*workerSlot
	for _, s := range c.slots {
		if _, _, _, alive := s.snapshot(); alive {
			out = append(out, s)
		}
	}
	return out
}

// Prepare readies the cluster for one attempt of core.Run: it replaces dead
// workers (Respawn), opens the attempt's transport and returns cfg with the
// distribution splice and the barrier broadcast installed. Workers merge
// their trace spans into cfg.Trace; cfg.Metrics defaults to the
// coordinator's registry.
func (c *Coordinator) Prepare(ctx context.Context, cfg asp.Config) (asp.Config, error) {
	c.mu.Lock()
	n, prev := c.attempts, c.cur
	c.attempts++
	c.cur, c.tracer = nil, cfg.Trace
	c.mu.Unlock()
	if prev != nil {
		prev.tr.Close() // its graph failed to build and never executed
	}
	if err := c.ensureWorkers(ctx, n); err != nil {
		return cfg, err
	}
	a := &attempt{
		n: n, slots: c.aliveSlots(),
		workers: make([]string, c.opts.Workers),
		failCh:  make(chan error, c.opts.Workers+2),
	}
	a.workers[0] = c.dl.Addr()
	for _, s := range a.slots {
		_, a.workers[s.idx], _, _ = s.snapshot()
	}
	if err := ValidateAddrs(a.workers); err != nil {
		return cfg, err
	}
	if cfg.Metrics == nil {
		cfg.Metrics = c.opts.Metrics
	}
	if cfg.ShutdownTimeout == 0 {
		cfg.ShutdownTimeout = 10 * time.Second
	}
	nc := defaultNetConfig()
	nc.dialTimeout = c.opts.DialTimeout
	if c.opts.WriteTimeout != 0 {
		nc.writeTimeout = c.opts.WriteTimeout
	}
	a.tr = newTransport(ctx, transportCfg{
		me: 0, attempt: n,
		reg: cfg.Metrics, tracer: cfg.Trace, inj: cfg.Chaos,
		net: nc, log: c.log(),
	})
	// Data-plane integrity faults (checksum, sequence gaps) detected on our
	// own receive side fail the attempt like any worker-reported failure.
	a.tr.OnFail(c.reportFailure)
	if ck := cfg.Checkpoint; ck != nil {
		cp := *ck
		cp.OnTrigger = func(id int64) { c.broadcastBarrier(n, id) }
		cfg.Checkpoint = &cp
	}
	cfg.Dist = &asp.DistSpec{Worker: 0, Workers: len(a.workers), Owner: ModuloOwner(len(a.workers)), Transport: a.tr}
	c.mu.Lock()
	c.cur = a
	c.mu.Unlock()
	return cfg, nil
}

// Execute runs the prepared attempt: it ships every worker the spec of
// plans and bc — with the snapshot bc's checkpoint spec restores, and the
// faults of bc's chaos injector on the first attempt only — walks the
// Prepare/Connect/Start choreography, runs env as worker 0 and returns the
// first failure of any process. Worker deaths, stalled phases and
// transport faults are restartable.
func (c *Coordinator) Execute(ctx context.Context, env *asp.Environment, plans []*core.Plan, bc core.BuildConfig) error {
	c.mu.Lock()
	a := c.cur
	if a != nil {
		a.env = env
	}
	c.mu.Unlock()
	if a == nil {
		return errors.New("exchange: Execute without Prepare")
	}
	n, slots := a.n, a.slots
	defer func() {
		a.tr.Close()
		c.mu.Lock()
		if c.cur == a {
			c.cur = nil
		}
		c.mu.Unlock()
	}()
	spec := newJobSpec(plans, bc)
	spec.Attempt, spec.Workers = n, a.workers
	if n == 0 {
		// Faults ship once: a fault that killed a worker must not re-fire
		// on its replacement during replay.
		spec.Faults = bc.Engine.Chaos.Faults()
	}
	if ck := bc.Engine.Checkpoint; ck != nil && ck.Restore {
		var err error
		if ck.RestoreID > 0 {
			spec.Snapshot, err = ck.Store.Load(ck.RestoreID)
		} else {
			spec.Snapshot, err = ck.Store.Latest()
		}
		if err != nil {
			return err
		}
		if spec.Snapshot != nil {
			c.log().Info("exchange: restoring checkpoint", "attempt", n, "checkpoint", spec.Snapshot.ID)
		}
	}
	a.tr.table = NewTypeTable(streamNames(spec))
	c.dl.setCurrent(a.tr)

	attemptCtx, cancel := context.WithCancel(ctx)
	defer cancel()

	// Phase 1: Prepare. Workers build the identical graph and install
	// their attempt transports before anyone dials.
	for _, s := range slots {
		ws := *spec
		ws.Me = s.idx
		_, _, cc, _ := s.snapshot()
		if err := cc.send(&Envelope{Kind: MsgPrepare, Attempt: n, Spec: &ws}); err != nil {
			return &WorkerFailure{Worker: s.idx, Err: err}
		}
	}
	if err := c.awaitPhase(attemptCtx, slots, n, MsgReady, a.failCh); err != nil {
		return err
	}

	// Phase 2: Connect. Everyone (including us) dials every peer.
	for _, s := range slots {
		_, _, cc, _ := s.snapshot()
		if err := cc.send(&Envelope{Kind: MsgConnect, Attempt: n}); err != nil {
			return &WorkerFailure{Worker: s.idx, Err: err}
		}
	}
	addrs := make(map[int]string, len(a.workers))
	for i, addr := range a.workers {
		addrs[i] = addr
	}
	if err := a.tr.Dial(addrs, c.opts.DialTimeout); err != nil {
		return err // DialError: structured fail-fast, not restartable
	}
	if err := c.awaitPhase(attemptCtx, slots, n, MsgConnected, a.failCh); err != nil {
		return err
	}

	// Phase 3: Start everyone, run our own slice, await completion.
	for _, s := range slots {
		_, _, cc, _ := s.snapshot()
		if err := cc.send(&Envelope{Kind: MsgStart, Attempt: n}); err != nil {
			return &WorkerFailure{Worker: s.idx, Err: err}
		}
	}
	c.log().Info("exchange: attempt running", "attempt", n, "workers", c.opts.Workers)
	stopMonitor := c.monitorLiveness(slots)
	defer stopMonitor()
	execDone := make(chan error, 1)
	go func() { execDone <- env.Execute(attemptCtx) }()
	doneCh := make(chan *remoteFailure, len(slots))
	for _, s := range slots {
		go func(s *workerSlot) { doneCh <- c.awaitDone(attemptCtx, s, n) }(s)
	}

	var firstErr error
	fail := func(err error) {
		if firstErr == nil && err != nil {
			firstErr = err
			cancel()
			c.abortAll(slots, n)
		}
	}
	localRunning, pending := true, len(slots)
	for localRunning || pending > 0 {
		select {
		case err := <-execDone:
			localRunning = false
			fail(err)
		case d := <-doneCh:
			pending--
			if d != nil {
				fail(d)
			}
		case err := <-a.failCh:
			fail(err)
		}
	}
	// A worker death racing normal completion: prefer the failure that
	// arrived during the run, then any late slot death already queued.
	if firstErr == nil {
		select {
		case err := <-a.failCh:
			fail(err)
		default:
		}
	}
	if firstErr == nil {
		c.log().Info("exchange: attempt complete", "attempt", n)
	}
	return firstErr
}

// monitorLiveness is the coordinator-side failure detector: it watches
// every seat's lastHeard and declares a worker dead once it has been
// silent past the liveness deadline — catching blackholed peers whose TCP
// connections never deliver an error. A detected death closes the seat's
// control connection and reports a restartable WorkerFailure to the
// attempt in flight. Returns the stop function; no-op when disabled.
func (c *Coordinator) monitorLiveness(slots []*workerSlot) func() {
	liveness := c.opts.Liveness
	if liveness <= 0 || len(slots) == 0 {
		return func() {}
	}
	// Reset the clocks at run start: the time a worker spent seated before
	// this attempt must not count against it.
	now := time.Now()
	for _, s := range slots {
		s.mu.Lock()
		s.lastHeard = now
		s.mu.Unlock()
	}
	done := make(chan struct{})
	go func() {
		period := liveness / 4
		if period < 10*time.Millisecond {
			period = 10 * time.Millisecond
		}
		tick := time.NewTicker(period)
		defer tick.Stop()
		for {
			select {
			case <-done:
				return
			case <-tick.C:
			}
			for _, s := range slots {
				s.mu.Lock()
				age := time.Since(s.lastHeard)
				expired := s.alive && age > liveness
				name, cc := s.name, s.cc
				if expired {
					s.alive = false
				}
				s.mu.Unlock()
				if !expired {
					continue
				}
				c.opts.Metrics.RecordHeartbeatTimeout(age.Nanoseconds())
				c.log().Warn("exchange: worker heartbeat timeout",
					"worker", s.idx, "name", name, "silent_for", age.Round(time.Millisecond))
				if cc != nil {
					cc.close() // wake serveSlot; the seat re-fills on rejoin
				}
				c.reportFailure(&WorkerFailure{Worker: s.idx, Name: name,
					Err: fmt.Errorf("no heartbeat for %v (liveness deadline %v): worker unreachable or stalled",
						age.Round(time.Millisecond), liveness)})
			}
		}
	}()
	return func() { close(done) }
}

// awaitPhase collects one phase reply (Ready or Connected) from every
// slot, failing fast on phase errors, worker deaths, cancellation, or the
// phase deadline — a worker that never answers is named and the attempt
// fails restartable instead of hanging the choreography.
func (c *Coordinator) awaitPhase(ctx context.Context, slots []*workerSlot, attempt int, kind MsgKind, failCh chan error) error {
	var deadline <-chan time.Time
	if c.opts.PhaseTimeout > 0 {
		timer := time.NewTimer(c.opts.PhaseTimeout)
		defer timer.Stop()
		deadline = timer.C
	}
	for _, s := range slots {
		for {
			select {
			case e := <-s.phase:
				if e.Attempt != attempt {
					continue // stale reply from a superseded attempt
				}
				if e.Kind != kind {
					if e.Kind == MsgDone && e.Err != "" {
						return &remoteFailure{worker: s.idx, msg: e.Err, restartable: e.Restartable}
					}
					continue
				}
				if e.Err != "" {
					return fmt.Errorf("exchange: worker %d %s failed: %s", s.idx, kind, e.Err)
				}
			case err := <-failCh:
				return err
			case <-deadline:
				return c.phaseStalled(s, kind)
			case <-ctx.Done():
				return ctx.Err()
			}
			break
		}
	}
	return nil
}

// phaseStalled converts a phase-deadline expiry into a restartable
// failure naming the worker whose reply never came. The seat is marked
// dead and its control connection closed so recovery replaces the worker
// rather than re-asking a wedged process.
func (c *Coordinator) phaseStalled(s *workerSlot, kind MsgKind) error {
	s.mu.Lock()
	name, cc := s.name, s.cc
	s.alive = false
	s.mu.Unlock()
	if cc != nil {
		cc.close()
	}
	c.opts.Metrics.RecordHeartbeatTimeout(c.opts.PhaseTimeout.Nanoseconds())
	return &WorkerFailure{Worker: s.idx, Name: name,
		Err: fmt.Errorf("no %v reply within %v: choreography stalled", kind, c.opts.PhaseTimeout)}
}

// awaitDone waits for one worker's Done (nil on success), a failure, or
// cancellation (also nil — the canceller owns the error).
func (c *Coordinator) awaitDone(ctx context.Context, s *workerSlot, attempt int) *remoteFailure {
	for {
		select {
		case e := <-s.phase:
			if e.Attempt != attempt || e.Kind != MsgDone {
				continue
			}
			if e.Err != "" {
				return &remoteFailure{worker: s.idx, msg: e.Err, restartable: e.Restartable}
			}
			return nil
		case <-ctx.Done():
			return nil
		}
	}
}

// abortAll tells every live worker to cancel the attempt.
func (c *Coordinator) abortAll(slots []*workerSlot, attempt int) {
	for _, s := range slots {
		if _, _, cc, alive := s.snapshot(); alive {
			cc.send(&Envelope{Kind: MsgAbort, Attempt: attempt})
		}
	}
}

// broadcastBarrier ships a checkpoint barrier trigger to every worker
// (their sources inject it; workers without sources ignore it).
func (c *Coordinator) broadcastBarrier(attempt int, id int64) {
	c.mu.Lock()
	slots := append([]*workerSlot(nil), c.slots...)
	c.mu.Unlock()
	for _, s := range slots {
		if _, _, cc, alive := s.snapshot(); alive {
			cc.send(&Envelope{Kind: MsgBarrier, Attempt: attempt, CheckpointID: id})
		}
	}
}
