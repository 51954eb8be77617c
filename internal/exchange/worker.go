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
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/core"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
	"cep2asp/internal/trace"
)

// buildSlice constructs this worker's slice of one attempt from its spec:
// it rewrites the streams' event types to this process's, translates every
// plan exactly as the coordinator did (identical graph, identical
// fingerprint), and builds the environment with the distribution splice
// installed.
func buildSlice(spec *JobSpec, table *TypeTable, ck *asp.CheckpointSpec, inj *chaos.Injector, reg *obs.Registry, tr *Transport, tracer *trace.Tracer, log *slog.Logger) (*asp.Environment, error) {
	if err := ValidateAddrs(spec.Workers); err != nil {
		return nil, err
	}
	data := make(map[event.Type][]event.Event, len(spec.Streams))
	for i, st := range spec.Streams {
		// Event Type values are process-local; rewrite the sender's values
		// to ours.
		lt := table.toLocal[i]
		for j := range st.Events {
			st.Events[j].Type = lt
		}
		data[lt] = st.Events
	}
	plans := make([]*core.Plan, len(spec.Plans))
	for i, ps := range spec.Plans {
		pat, err := sea.Parse(ps.Pattern)
		if err != nil {
			return nil, fmt.Errorf("exchange: parsing pattern: %w", err)
		}
		translate := core.Translate
		if ps.FCEP {
			translate = core.TranslateFCEP
		}
		if plans[i], err = translate(pat, ps.Opts); err != nil {
			return nil, fmt.Errorf("exchange: translating pattern: %w", err)
		}
	}
	cfg := spec.Engine.config()
	cfg.Checkpoint = ck
	cfg.Metrics = reg
	cfg.Chaos = inj
	cfg.Trace = tracer
	cfg.Log = log
	cfg.ShutdownTimeout = 10 * time.Second
	cfg.Dist = &asp.DistSpec{
		Worker:    spec.Me,
		Workers:   len(spec.Workers),
		Owner:     ModuloOwner(len(spec.Workers)),
		Transport: tr,
	}
	env, _, err := core.BuildMulti(plans, core.BuildConfig{
		Engine:           cfg,
		Data:             data,
		Lateness:         spec.Lateness,
		KeepMatches:      spec.KeepMatches,
		SourceRatePerSec: spec.SourceRatePerSec,
	})
	return env, err
}

// streamNames extracts the canonical type-name order of a spec.
func streamNames(spec *JobSpec) []string {
	names := make([]string, len(spec.Streams))
	for i, st := range spec.Streams {
		names[i] = st.Name
	}
	return names
}

// WorkerOptions configures one worker process (or in-process worker).
type WorkerOptions struct {
	// Name identifies the worker in logs and errors; defaults to its data
	// address.
	Name string
	// DataAddr is the data-plane listen address ("127.0.0.1:0" default).
	DataAddr string
	// Metrics, when set, instruments this worker's operators and network
	// peers (served per worker via obs.Serve).
	Metrics *obs.Registry
	// DialTimeout bounds control and peer dials (default 5s).
	DialTimeout time.Duration
	// WriteTimeout bounds each data-plane frame write (default 10s,
	// negative disables).
	WriteTimeout time.Duration
	// StatsInterval is the metrics-federation push period — which doubles
	// as the worker's heartbeat, so the coordinator's liveness deadline
	// must comfortably exceed it (default 1s).
	StatsInterval time.Duration
	// Log, when set, receives structured progress events; every record
	// carries the worker's identity.
	Log *slog.Logger
}

// Worker hosts operator instances of distributed jobs: it joins a
// coordinator, builds each prepared job's graph, runs the locally-owned
// slice, and forwards checkpoint acknowledgements. One Worker serves many
// consecutive attempts (the coordinator re-prepares after failures) but
// dies with its process — recovery replaces dead workers with fresh ones.
type Worker struct {
	opts WorkerOptions
	ctrl *ctrlConn
	dl   *dataListener
	root context.Context
	stop context.CancelFunc

	mu     sync.Mutex
	cur    *workerAttempt
	inj    *chaos.Injector
	killed bool

	done chan struct{}
	err  error
}

type workerAttempt struct {
	n      int
	spec   *JobSpec
	env    *asp.Environment
	tr     *Transport
	tracer *trace.Tracer
	cancel context.CancelFunc
	ctx    context.Context
	// ctrlNP is the chaos inject site on the control-plane link toward the
	// coordinator: an armed NetPartition window swallows this worker's
	// heartbeats and acks exactly like it swallows data frames, so only
	// the coordinator's failure detector can notice the silence.
	ctrlNP *chaos.NetPoint
}

// StartWorker joins the coordinator at coordAddr and serves jobs until the
// context is cancelled, the coordinator goes away, or the worker is killed
// by a chaos fault. It returns after the control handshake; job traffic is
// handled in the background (Wait blocks for termination).
func StartWorker(ctx context.Context, coordAddr string, opts WorkerOptions) (*Worker, error) {
	if opts.DialTimeout <= 0 {
		opts.DialTimeout = defaultDialTimeout
	}
	if opts.StatsInterval <= 0 {
		opts.StatsInterval = time.Second
	}
	dl, err := newDataListener(opts.DataAddr)
	if err != nil {
		return nil, err
	}
	if opts.Name == "" {
		opts.Name = dl.Addr()
	}
	var d net.Dialer
	dialCtx, cancel := context.WithTimeout(ctx, opts.DialTimeout)
	c, err := d.DialContext(dialCtx, "tcp", coordAddr)
	cancel()
	if err != nil {
		dl.Close()
		return nil, fmt.Errorf("exchange: joining coordinator at %s: %w", coordAddr, err)
	}
	root, stop := context.WithCancel(ctx)
	w := &Worker{
		opts: opts,
		ctrl: newCtrlConn(c),
		dl:   dl,
		root: root,
		stop: stop,
		done: make(chan struct{}),
	}
	if err := w.ctrl.send(&Envelope{Kind: MsgHello, Name: opts.Name, DataAddr: dl.Addr()}); err != nil {
		w.Close()
		return nil, fmt.Errorf("exchange: hello to coordinator: %w", err)
	}
	go w.run()
	return w, nil
}

func (w *Worker) log() *slog.Logger {
	if w.opts.Log != nil {
		return w.opts.Log
	}
	return noLog
}

// Wait blocks until the worker terminates and returns its terminal error
// (nil for a clean Close).
func (w *Worker) Wait() error {
	<-w.done
	return w.err
}

// Close shuts the worker down: cancels any running attempt and closes its
// connections. Idempotent.
func (w *Worker) Close() {
	w.stop()
	w.ctrl.close()
	w.dl.Close()
	w.mu.Lock()
	cur := w.cur
	w.mu.Unlock()
	if cur != nil {
		cur.cancel()
		cur.tr.Close()
	}
}

// Kill simulates an abrupt process death for the KillWorker chaos fault:
// every network connection is severed without protocol goodbyes and the
// running attempt is cancelled, so the coordinator observes exactly what a
// crashed process would leave behind — dead TCP connections.
func (w *Worker) Kill(site string) {
	w.mu.Lock()
	if w.killed {
		w.mu.Unlock()
		return
	}
	w.killed = true
	cur := w.cur
	inj := w.inj
	w.mu.Unlock()
	w.log().Warn("exchange: worker killed by chaos", "worker", w.opts.Name, "site", site)
	w.ctrl.close()
	w.dl.Close()
	if cur != nil {
		cur.tr.Close()
		cur.cancel()
	}
	w.stop()
	// The goroutine that hit the fault is parked on the injector's stall
	// channel (a thread inside a dying process); release it so the
	// cancelled attempt can drain.
	inj.ReleaseStalls()
}

// run is the control loop: it reacts to coordinator messages until the
// connection dies or the worker stops.
func (w *Worker) run() {
	defer close(w.done)
	defer w.Close()
	for {
		e, err := w.ctrl.recv()
		if err != nil {
			w.mu.Lock()
			killed := w.killed
			w.mu.Unlock()
			if w.root.Err() == nil && !killed {
				w.err = fmt.Errorf("exchange: worker %s lost coordinator: %w", w.opts.Name, err)
			}
			return
		}
		switch e.Kind {
		case MsgPrepare:
			w.handlePrepare(e)
		case MsgConnect:
			w.handleConnect(e)
		case MsgStart:
			w.handleStart(e)
		case MsgBarrier:
			if cur := w.current(e.Attempt); cur != nil {
				cur.env.InjectBarrier(e.CheckpointID)
			}
		case MsgAbort:
			if cur := w.current(e.Attempt); cur != nil {
				cur.cancel()
			}
		}
	}
}

func (w *Worker) current(attempt int) *workerAttempt {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.cur != nil && w.cur.n == attempt {
		return w.cur
	}
	return nil
}

func (w *Worker) handlePrepare(e *Envelope) {
	spec := e.Spec
	w.mu.Lock()
	prev := w.cur
	w.cur = nil
	w.mu.Unlock()
	if prev != nil {
		prev.cancel()
		prev.tr.Close()
	}
	var ctrlNP *chaos.NetPoint
	reply := func(err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if ctrlNP.Partitioned() {
			return // the coordinator's phase deadline must notice
		}
		w.ctrl.send(&Envelope{Kind: MsgReady, Attempt: e.Attempt, Err: msg})
	}
	if spec == nil {
		reply(errors.New("exchange: prepare without a job spec"))
		return
	}
	// The injector persists across attempts of this worker so fault hit
	// counters stay monotonic; fresh faults (attempt 0) re-arm it.
	w.mu.Lock()
	if len(spec.Faults) > 0 {
		w.inj = chaos.NewInjector(spec.Faults...)
		w.inj.SetOnKill(w.Kill)
	}
	inj := w.inj
	w.mu.Unlock()
	ctrlNP = inj.NetPoint(spec.Me, 0)

	table := NewTypeTable(streamNames(spec))
	ctx, cancel := context.WithCancel(w.root)
	tracer := trace.New(spec.TraceRate, spec.Me)
	nc := defaultNetConfig()
	nc.dialTimeout = w.opts.DialTimeout
	if w.opts.WriteTimeout != 0 {
		nc.writeTimeout = w.opts.WriteTimeout
	}
	tr := newTransport(ctx, transportCfg{
		me: spec.Me, attempt: spec.Attempt, table: table,
		reg: w.opts.Metrics, tracer: tracer, inj: inj,
		net: nc, log: w.log(),
	})
	var ck *asp.CheckpointSpec
	if spec.Checkpointing {
		// The coordinator decides completion: acknowledgements go there, and
		// the store only serves the snapshot it shipped.
		store := checkpoint.NewMemStore()
		ck = &asp.CheckpointSpec{
			Store: store,
			Ack:   &ackForwarder{ctrl: w.ctrl, attempt: spec.Attempt, np: ctrlNP},
		}
		if snap := spec.Snapshot; snap != nil {
			_ = store.Save(snap) // a MemStore cannot fail to save
			ck.Restore, ck.RestoreID = true, snap.ID
		}
	}
	jobLog := w.log().With("worker", spec.Me, "attempt", spec.Attempt)
	env, err := buildSlice(spec, table, ck, inj, w.opts.Metrics, tr, tracer, jobLog)
	if err != nil {
		cancel()
		tr.Close()
		reply(err)
		return
	}
	// Data-plane integrity faults detected on our receive side (checksum
	// mismatch, sequence gaps) abort the running attempt; the error then
	// rides the Done reply back to the coordinator as restartable.
	tr.OnFail(env.Fail)
	w.mu.Lock()
	w.cur = &workerAttempt{n: spec.Attempt, spec: spec, env: env, tr: tr, tracer: tracer, cancel: cancel, ctx: ctx, ctrlNP: ctrlNP}
	w.mu.Unlock()
	w.dl.setCurrent(tr)
	w.log().Info("exchange: worker prepared attempt",
		"name", w.opts.Name, "worker", spec.Me, "attempt", spec.Attempt, "workers", len(spec.Workers))
	reply(nil)
}

func (w *Worker) handleConnect(e *Envelope) {
	cur := w.current(e.Attempt)
	reply := func(err error) {
		msg := ""
		if err != nil {
			msg = err.Error()
		}
		if cur != nil && cur.ctrlNP.Partitioned() {
			return // the coordinator's phase deadline must notice
		}
		w.ctrl.send(&Envelope{Kind: MsgConnected, Attempt: e.Attempt, Err: msg})
	}
	if cur == nil {
		reply(fmt.Errorf("exchange: connect for unknown attempt %d", e.Attempt))
		return
	}
	addrs := make(map[int]string, len(cur.spec.Workers))
	for i, a := range cur.spec.Workers {
		addrs[i] = a
	}
	reply(cur.tr.Dial(addrs, w.opts.DialTimeout))
}

func (w *Worker) handleStart(e *Envelope) {
	cur := w.current(e.Attempt)
	if cur == nil {
		w.ctrl.send(&Envelope{Kind: MsgDone, Attempt: e.Attempt,
			Err: fmt.Sprintf("exchange: start for unknown attempt %d", e.Attempt)})
		return
	}
	go w.statsLoop(cur)
	go func() {
		err := cur.env.Execute(cur.ctx)
		msg, restartable := "", false
		if err != nil {
			msg = err.Error()
			var re supervise.RestartableError
			restartable = errors.As(err, &re) && re.Restartable()
		}
		// Final federation flush: short jobs may finish between ticker
		// firings, and the last snapshot carries the final counters. The
		// control conn serializes sends, so this lands before Done.
		w.pushStats(cur)
		w.log().Info("exchange: worker attempt done",
			"name", w.opts.Name, "worker", cur.spec.Me, "attempt", cur.n, "err", msg)
		if cur.ctrlNP.Partitioned() {
			return // a partitioned Done vanishes; the failure detector decides
		}
		w.ctrl.send(&Envelope{Kind: MsgDone, Attempt: cur.n, Err: msg, Restartable: restartable})
	}()
}

// statsLoop pushes this worker's observability snapshot to the coordinator
// while the attempt runs; handleStart sends one final flush before Done.
// The pushes double as the worker's heartbeat for the coordinator's
// failure detector.
func (w *Worker) statsLoop(cur *workerAttempt) {
	t := time.NewTicker(w.opts.StatsInterval)
	defer t.Stop()
	for {
		select {
		case <-cur.ctx.Done():
			return
		case <-t.C:
			w.pushStats(cur)
		}
	}
}

// pushStats sends one MsgStats envelope: the registry snapshot (histograms
// include bucket state for exact merging), process gauges, and the trace
// spans collected since the previous push.
func (w *Worker) pushStats(cur *workerAttempt) {
	if cur.ctrlNP.Partitioned() {
		return // blackholed heartbeat: silence is the whole point
	}
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	st := &WorkerStats{
		Worker: cur.spec.Me, Name: w.opts.Name, Attempt: cur.n,
		Goroutines: runtime.NumGoroutine(), HeapBytes: ms.HeapAlloc,
		Snap:  w.opts.Metrics.Snapshot(),
		Spans: cur.tracer.Drain(),
	}
	w.ctrl.send(&Envelope{Kind: MsgStats, Attempt: cur.n, Stats: st})
}

// ackForwarder relays a worker's checkpoint acknowledgements to the
// coordinator process over the control connection. Send failures are
// dropped: a dead control connection already means the coordinator is
// failing the job.
type ackForwarder struct {
	ctrl    *ctrlConn
	attempt int
	// np gates the acks through the control-plane partition window: a
	// partitioned worker's checkpoint acks vanish like its heartbeats do.
	np *chaos.NetPoint
}

var _ checkpoint.AckSink = (*ackForwarder)(nil)

func (f *ackForwarder) Ack(id int64, task string, state []byte, pause time.Duration) {
	if f.np.Partitioned() {
		return
	}
	f.ctrl.send(&Envelope{
		Kind: MsgAck, Attempt: f.attempt,
		CheckpointID: id, Task: task, State: state, PauseNs: int64(pause),
	})
}

func (f *ackForwarder) FinishTask(task string, state []byte) {
	if f.np.Partitioned() {
		return
	}
	f.ctrl.send(&Envelope{Kind: MsgFinish, Attempt: f.attempt, Task: task, State: state})
}
