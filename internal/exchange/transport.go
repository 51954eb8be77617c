package exchange

import (
	"context"
	"encoding/binary"
	"fmt"
	"io"
	"log/slog"
	"math/rand"
	"net"
	"sync"
	"sync/atomic"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/obs"
	"cep2asp/internal/supervise"
	"cep2asp/internal/trace"
)

// dataMagic opens every data-plane connection, followed by the dialing
// worker's index (u32 LE) and the attempt number (u32 LE). The receiver
// routes the connection to the transport of the matching attempt, or
// closes it (stale attempt, dead job).
var dataMagic = [4]byte{'c', '2', 'a', frameVersion}

// defaultDialTimeout bounds each peer dial; an unreachable peer yields a
// structured DialError instead of a hang.
const defaultDialTimeout = 5 * time.Second

// defaultWriteTimeout bounds each data-plane frame write. A blackholed
// receiver — one that accepted the connection but stopped draining it —
// eventually fills the kernel send buffer; without a deadline the sending
// goroutine blocks forever and the job hangs instead of failing over.
const defaultWriteTimeout = 10 * time.Second

// netConfig bundles the transport's fault-tolerance knobs. The zero value
// is not useful; start from defaultNetConfig.
type netConfig struct {
	dialTimeout  time.Duration // per dial attempt (connect + handshake)
	writeTimeout time.Duration // per-frame write deadline; <= 0 disables
	dialRetries  int           // extra attempts per peer at connect time
	reconnects   int           // mid-run reconnect attempts per frame
	backoff      supervise.Policy
}

func defaultNetConfig() netConfig {
	return netConfig{
		dialTimeout:  defaultDialTimeout,
		writeTimeout: defaultWriteTimeout,
		dialRetries:  2,
		reconnects:   5,
		backoff: supervise.Policy{
			InitialBackoff: 20 * time.Millisecond,
			MaxBackoff:     500 * time.Millisecond,
			Multiplier:     2,
			Jitter:         0.2,
		},
	}
}

// DialError reports one unreachable peer at connect time.
type DialError struct {
	Worker int
	Addr   string
	Err    error
}

func (e *DialError) Error() string {
	return fmt.Sprintf("exchange: dialing worker %d at %s: %v", e.Worker, e.Addr, e.Err)
}

func (e *DialError) Unwrap() error { return e.Err }

// TransportFailure reports a data-plane integrity fault detected at the
// receiving end: a corrupted frame (checksum or structure), an implausible
// length prefix, or a sequence gap proving frames were lost or duplicated
// in flight. The stream cannot be trusted past that point, so the failure
// is restartable — the supervisor rebuilds the attempt from the latest
// checkpoint.
type TransportFailure struct {
	From int // peer worker whose frame stream broke
	Err  error
}

func (f *TransportFailure) Error() string {
	return fmt.Sprintf("exchange: data plane from worker %d: %v", f.From, f.Err)
}

func (f *TransportFailure) Unwrap() error     { return f.Err }
func (f *TransportFailure) Restartable() bool { return true }

// transportCfg bundles the constructor parameters of a Transport.
type transportCfg struct {
	me      int
	attempt int
	table   *TypeTable
	reg     *obs.Registry
	tracer  *trace.Tracer
	inj     *chaos.Injector // nil disables network chaos
	net     netConfig
	log     *slog.Logger
}

// Transport is one attempt's data-plane endpoint in one process: the
// outbound connections to every peer worker, the inbound connections
// routed to it by the process's data listener, and the ingress
// registrations of locally-owned operator instances. It implements
// asp.Transport.
type Transport struct {
	me      int
	attempt int
	table   *TypeTable
	ctx     context.Context
	cancel  context.CancelFunc
	reg     *obs.Registry
	// tracer records a network-hop span per traced record arriving from a
	// peer; nil when tracing is off.
	tracer *trace.Tracer
	inj    *chaos.Injector
	nc     netConfig
	log    *slog.Logger

	mu       sync.Mutex
	cond     *sync.Cond // signals ingress registrations, rx handovers, Close
	out      map[int]*dataConn
	ingress  map[ikey]ingressReg
	rx       map[int]*rxState
	accepted []net.Conn
	onFail   func(error)
	closed   bool
}

type ikey struct{ node, target int }

type ingressReg struct {
	ch     chan<- []asp.Record
	queued *atomic.Int64
}

// rxState is the receiver's per-peer frame-stream state. Sequence numbers
// are continuous across a peer's reconnects, so expect/seen live here —
// outside any single connection. active serializes serve loops: a
// replacement connection is not read until the previous connection's serve
// loop has drained and exited, so frames never interleave across conns.
// expect/seen are only touched by the goroutine holding active, with the
// handover through t.mu ordering the accesses.
type rxState struct {
	active bool
	seen   bool
	expect uint64
}

// dataConn is one outbound peer link; concurrent egress pumps to the same
// peer serialize on mu and share the encode buffer. The conn pointer has
// its own lock so Close never waits behind an in-flight write or backoff.
type dataConn struct {
	peer int
	addr string
	nm   *obs.NetMetrics
	np   *chaos.NetPoint
	rng  *rand.Rand

	mu         sync.Mutex
	buf        []byte
	seq        uint64
	blackholed int64

	cmu sync.Mutex
	c   net.Conn
}

func (dc *dataConn) conn() net.Conn {
	dc.cmu.Lock()
	defer dc.cmu.Unlock()
	return dc.c
}

// swapConn installs a replacement connection and returns the old one.
func (dc *dataConn) swapConn(c net.Conn) net.Conn {
	dc.cmu.Lock()
	old := dc.c
	dc.c = c
	dc.cmu.Unlock()
	return old
}

func newTransport(parent context.Context, cfg transportCfg) *Transport {
	ctx, cancel := context.WithCancel(parent)
	if cfg.log == nil {
		cfg.log = noLog
	}
	t := &Transport{
		me: cfg.me, attempt: cfg.attempt, table: cfg.table, ctx: ctx, cancel: cancel,
		reg: cfg.reg, tracer: cfg.tracer, inj: cfg.inj, nc: cfg.net, log: cfg.log,
		out:     make(map[int]*dataConn),
		ingress: make(map[ikey]ingressReg),
		rx:      make(map[int]*rxState),
	}
	t.cond = sync.NewCond(&t.mu)
	return t
}

// OnFail installs the handler receiving data-plane integrity faults
// (TransportFailure) detected by this endpoint's receive side. The worker
// runtime routes them into the running environment; the coordinator routes
// them into its failure channel. Without a handler faults are only logged.
func (t *Transport) OnFail(fn func(error)) {
	t.mu.Lock()
	t.onFail = fn
	t.mu.Unlock()
}

func (t *Transport) reportRx(from int, err error) {
	t.mu.Lock()
	fn := t.onFail
	t.mu.Unlock()
	t.log.Warn("exchange: data-plane fault", "from", from, "err", err)
	if fn != nil {
		fn(&TransportFailure{From: from, Err: err})
	}
}

// Dial connects to every listed peer (worker index → data address),
// performing the attempt handshake. Each peer gets 1+dialRetries bounded
// attempts with backoff; an unreachable peer yields a DialError.
func (t *Transport) Dial(addrs map[int]string, timeout time.Duration) error {
	if timeout <= 0 {
		timeout = t.nc.dialTimeout
	}
	for w, addr := range addrs {
		if w == t.me {
			continue
		}
		rng := rand.New(rand.NewSource(int64(t.me)<<16 ^ int64(w)<<4 ^ int64(t.attempt)))
		var c net.Conn
		var err error
		for n := 0; ; n++ {
			c, err = t.dialPeer(addr, timeout)
			if err == nil || n >= t.nc.dialRetries {
				break
			}
			select {
			case <-t.ctx.Done():
				return &DialError{Worker: w, Addr: addr, Err: err}
			case <-time.After(t.nc.backoff.Backoff(n, rng)):
			}
		}
		if err != nil {
			return &DialError{Worker: w, Addr: addr, Err: err}
		}
		t.mu.Lock()
		if t.closed {
			t.mu.Unlock()
			c.Close()
			return fmt.Errorf("exchange: transport closed during dial")
		}
		t.out[w] = &dataConn{
			peer: w, addr: addr, c: c,
			nm:  t.reg.Net(fmt.Sprintf("w%d", w)),
			np:  t.inj.NetPoint(t.me, w),
			rng: rng,
		}
		t.mu.Unlock()
	}
	return nil
}

// dialPeer performs one bounded connect + handshake to a peer address.
func (t *Transport) dialPeer(addr string, timeout time.Duration) (net.Conn, error) {
	var d net.Dialer
	dialCtx, cancel := context.WithTimeout(t.ctx, timeout)
	c, err := d.DialContext(dialCtx, "tcp", addr)
	cancel()
	if err != nil {
		return nil, err
	}
	var hs [12]byte
	copy(hs[:4], dataMagic[:])
	binary.LittleEndian.PutUint32(hs[4:], uint32(t.me))
	binary.LittleEndian.PutUint32(hs[8:], uint32(t.attempt))
	c.SetWriteDeadline(time.Now().Add(timeout))
	if _, err := c.Write(hs[:]); err != nil {
		c.Close()
		return nil, err
	}
	c.SetWriteDeadline(time.Time{})
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	return c, nil
}

// Ingress implements asp.Transport: frames addressed to (nodeID, target)
// are decoded and delivered into ch.
func (t *Transport) Ingress(node string, nodeID, target int, ch chan<- []asp.Record, queued *atomic.Int64) {
	t.mu.Lock()
	t.ingress[ikey{nodeID, target}] = ingressReg{ch: ch, queued: queued}
	t.cond.Broadcast()
	t.mu.Unlock()
}

// waitIngress blocks until (nodeID, target) registers or the transport
// closes. Peers start pumping frames the moment their own Execute starts,
// which can be before this process's Execute has reached the wiring step
// that registers ingress channels — the frames must wait, not be dropped.
// Placement is a pure function over an identical graph, so an instance a
// frame addresses is guaranteed to register here (a frame that never
// matches would mean divergent placement, and the job hangs loudly at its
// timeout rather than losing data silently).
func (t *Transport) waitIngress(k ikey) (ingressReg, bool) {
	t.mu.Lock()
	defer t.mu.Unlock()
	for {
		if reg, ok := t.ingress[k]; ok {
			return reg, true
		}
		if t.closed {
			return ingressReg{}, false
		}
		t.cond.Wait()
	}
}

// Egress implements asp.Transport: it returns the batch-transfer function
// for the remote instance (nodeID, target) on worker owner.
func (t *Transport) Egress(owner int, node string, nodeID, target int) (func(batch []asp.Record) error, error) {
	t.mu.Lock()
	dc := t.out[owner]
	t.mu.Unlock()
	if dc == nil {
		return nil, fmt.Errorf("exchange: not connected to worker %d (needed for %s/%d)", owner, node, target)
	}
	return func(batch []asp.Record) error {
		dc.mu.Lock()
		defer dc.mu.Unlock()
		buf, err := AppendFrame(dc.buf[:0], t.table, dc.seq, nodeID, target, batch)
		if err != nil {
			return err
		}
		dc.buf = buf[:0] // keep the grown buffer for the next frame
		// The sequence number is consumed even when chaos discards the
		// frame below: the receiver sees the gap at the next frame and
		// escalates — exactly what real in-flight loss looks like.
		dc.seq++
		return t.send(dc, buf)
	}, nil
}

// send pushes one encoded frame through the chaos site and onto the wire,
// transparently reconnecting on write failure. Called with dc.mu held.
func (t *Transport) send(dc *dataConn, buf []byte) error {
	switch act := dc.np.Frame(); act {
	case chaos.NetDropFrame:
		return nil // the sender believes the write succeeded
	case chaos.NetBlackhole:
		dc.blackholed++
		return nil
	case chaos.NetResetConn:
		if c := dc.conn(); c != nil {
			c.Close() // the write below hits a dead socket: mid-stream RST
		}
	case chaos.NetCorruptFrame:
		// Flip bits inside the payload, never the length prefix: framing
		// stays synchronized and the receiver's checksum must do the work.
		buf[4+(len(buf)-4)/2] ^= 0x55
	}
	healing := dc.blackholed > 0
	err := t.writeFrame(dc, buf)
	if err != nil {
		err = t.resend(dc, buf, err)
	}
	if err == nil && healing {
		// First frame delivered after a blackhole window: the partition
		// healed. The receiver decides whether the gap needs a restart.
		dc.blackholed = 0
		t.reg.RecordPartitionHealed()
		t.log.Info("exchange: partition healed", "peer", dc.peer, "addr", dc.addr)
	}
	return err
}

// writeFrame performs one deadline-bounded write of a complete frame.
func (t *Transport) writeFrame(dc *dataConn, buf []byte) error {
	c := dc.conn()
	if c == nil {
		return fmt.Errorf("exchange: no connection to worker %d", dc.peer)
	}
	if t.nc.writeTimeout > 0 {
		c.SetWriteDeadline(time.Now().Add(t.nc.writeTimeout))
	}
	_, err := c.Write(buf)
	if err != nil {
		return err
	}
	if t.nc.writeTimeout > 0 {
		c.SetWriteDeadline(time.Time{})
	}
	dc.nm.SentFrame(len(buf))
	return nil
}

// resend re-establishes the peer link with exponential backoff + jitter
// and retransmits the frame. The sender always closes the old connection
// before writing on the new one, and sequence numbers are continuous
// across the reconnect, so the receiver can verify nothing was lost: a
// torn half-written frame is discarded with the old connection and the
// retransmit carries the same seq the receiver expects. Transient resets
// therefore heal exactly-once, with no job restart. Called with dc.mu held.
func (t *Transport) resend(dc *dataConn, buf []byte, cause error) error {
	for n := 0; n < t.nc.reconnects; n++ {
		select {
		case <-t.ctx.Done():
			return cause
		case <-time.After(t.nc.backoff.Backoff(n, dc.rng)):
		}
		c, err := t.dialPeer(dc.addr, t.nc.dialTimeout)
		if err != nil {
			cause = err
			continue
		}
		if old := dc.swapConn(c); old != nil {
			old.Close()
		}
		t.reg.RecordReconnect()
		dc.nm.Reconnect()
		t.log.Info("exchange: data link re-established",
			"peer", dc.peer, "addr", dc.addr, "dials", n+1, "cause", cause)
		if err := t.writeFrame(dc, buf); err == nil {
			return nil
		} else {
			cause = err
		}
	}
	return fmt.Errorf("exchange: data link to worker %d at %s: %d reconnect attempts exhausted: %w",
		dc.peer, dc.addr, t.nc.reconnects, cause)
}

// accept adopts one inbound peer connection (handshake already consumed)
// and serves its frames until EOF, error, or transport shutdown. When the
// peer reconnects mid-run the replacement connection waits here until the
// previous connection's serve loop has fully drained — cross-connection
// frame ordering is what makes the sequence check sound.
func (t *Transport) accept(from int, c net.Conn) {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	t.accepted = append(t.accepted, c)
	rx := t.rx[from]
	if rx == nil {
		rx = &rxState{}
		t.rx[from] = rx
	}
	for rx.active && !t.closed {
		t.cond.Wait()
	}
	if t.closed {
		t.mu.Unlock()
		c.Close()
		return
	}
	rx.active = true
	t.mu.Unlock()
	go func() {
		t.serve(from, rx, c)
		t.mu.Lock()
		rx.active = false
		t.cond.Broadcast()
		t.mu.Unlock()
	}()
}

// maxFrameBytes bounds a single frame; larger length prefixes indicate
// corruption. Generous: a full batch of worst-case matches stays far below.
const maxFrameBytes = 64 << 20

func (t *Transport) serve(from int, rx *rxState, c net.Conn) {
	defer c.Close()
	nm := t.reg.Net(fmt.Sprintf("w%d", from))
	var lenBuf [4]byte
	var payload []byte
	for {
		if _, err := io.ReadFull(c, lenBuf[:]); err != nil {
			// Clean EOF (peer done), torn connection (peer reconnecting —
			// the seq check on the replacement conn audits the handover),
			// or our own Close. Never a failure by itself.
			return
		}
		n := binary.LittleEndian.Uint32(lenBuf[:])
		if n == 0 || n > maxFrameBytes {
			t.reportRx(from, fmt.Errorf("implausible frame length %d: stream corrupted", n))
			return
		}
		if cap(payload) < int(n) {
			payload = make([]byte, n)
		}
		payload = payload[:n]
		if _, err := io.ReadFull(c, payload); err != nil {
			return // torn mid-frame: same as a torn length prefix above
		}
		nm.RecvFrame(int(n) + 4)
		hdr, batch, err := DecodeFrame(payload, t.table)
		if err != nil {
			t.reportRx(from, err)
			return
		}
		if rx.seen && hdr.Seq != rx.expect {
			t.reportRx(from, fmt.Errorf("frame stream jumped from seq %d to %d: frame(s) lost or duplicated in flight", rx.expect, hdr.Seq))
			return
		}
		rx.seen, rx.expect = true, hdr.Seq+1
		if t.tracer != nil {
			t.traceArrivals(from, batch)
		}
		reg, ok := t.waitIngress(ikey{hdr.NodeID, hdr.Target})
		if !ok {
			return // transport closed while waiting
		}
		// Blocking delivery into the instance's bounded input channel:
		// a full channel stalls this connection's reads, extending the
		// engine's backpressure over the network (with the usual aligned-
		// checkpoint caveat that distinct logical edges multiplexed on one
		// TCP connection share head-of-line blocking).
		select {
		case reg.ch <- batch:
			if reg.queued != nil {
				reg.queued.Add(int64(len(batch)))
			}
		case <-t.ctx.Done():
			return
		}
	}
}

// traceArrivals records one network-hop span per traced data record in an
// inbound batch: the sender's emit timestamp to local arrival, covering
// upstream batching, the wire, and decode. The handoff timestamp is then
// reset to the arrival time so the receiving instance's queue span measures
// only local queueing. Barrier records keep their original stamp — their
// propagation latency is measured end-to-end at the aligning instance.
func (t *Transport) traceArrivals(from int, batch []asp.Record) {
	now := time.Now().UnixNano()
	name := fmt.Sprintf("net:w%d>w%d", from, t.me)
	for i := range batch {
		r := &batch[i]
		if r.TraceNs == 0 || (r.Kind != asp.KindEvent && r.Kind != asp.KindMatch) {
			continue
		}
		d := now - r.TraceNs
		if d < 0 {
			d = 0 // clock skew between workers; keep the span well-formed
		}
		var id uint64
		if r.Kind == asp.KindMatch {
			id = trace.MatchID(r.Match.Events)
		} else {
			id = trace.ID(r.Event)
		}
		t.tracer.Add(trace.Span{
			Trace: id, Kind: trace.KindNet, Name: name,
			Instance: from, StartNs: r.TraceNs, DurNs: d,
		})
		r.TraceNs = now
	}
}

// Close severs every connection of this attempt and stops ingress
// deliveries. Idempotent.
func (t *Transport) Close() {
	t.mu.Lock()
	if t.closed {
		t.mu.Unlock()
		return
	}
	t.closed = true
	outs := make([]*dataConn, 0, len(t.out))
	for _, dc := range t.out {
		outs = append(outs, dc)
	}
	ins := append([]net.Conn(nil), t.accepted...)
	t.cond.Broadcast()
	t.mu.Unlock()
	t.cancel()
	for _, dc := range outs {
		if c := dc.conn(); c != nil {
			c.Close()
		}
	}
	for _, c := range ins {
		c.Close()
	}
}

// dataListener is one process's persistent data-plane listener: it owns
// the TCP listen socket across attempts and routes each accepted peer
// connection — identified by the handshake's attempt tag — to the current
// transport.
type dataListener struct {
	ln net.Listener

	mu  sync.Mutex
	cur *Transport
}

func newDataListener(addr string) (*dataListener, error) {
	if addr == "" {
		addr = "127.0.0.1:0"
	}
	ln, err := net.Listen("tcp", addr)
	if err != nil {
		return nil, fmt.Errorf("exchange: data listener: %w", err)
	}
	dl := &dataListener{ln: ln}
	go dl.run()
	return dl, nil
}

func (dl *dataListener) Addr() string { return dl.ln.Addr().String() }

// setCurrent installs the transport accepting this attempt's connections,
// closing the previous attempt's transport if still open.
func (dl *dataListener) setCurrent(t *Transport) {
	dl.mu.Lock()
	prev := dl.cur
	dl.cur = t
	dl.mu.Unlock()
	if prev != nil && prev != t {
		prev.Close()
	}
}

func (dl *dataListener) run() {
	for {
		c, err := dl.ln.Accept()
		if err != nil {
			return // listener closed
		}
		go dl.handshake(c)
	}
}

func (dl *dataListener) handshake(c net.Conn) {
	var hs [12]byte
	c.SetReadDeadline(time.Now().Add(defaultDialTimeout))
	if _, err := io.ReadFull(c, hs[:]); err != nil || [4]byte(hs[:4]) != dataMagic {
		c.Close()
		return
	}
	c.SetReadDeadline(time.Time{})
	from := int(binary.LittleEndian.Uint32(hs[4:]))
	attempt := int(binary.LittleEndian.Uint32(hs[8:]))
	if tc, ok := c.(*net.TCPConn); ok {
		tc.SetNoDelay(true)
	}
	dl.mu.Lock()
	cur := dl.cur
	dl.mu.Unlock()
	if cur == nil || cur.attempt != attempt {
		c.Close() // stale attempt: its transport is gone
		return
	}
	cur.accept(from, c)
}

func (dl *dataListener) Close() {
	dl.ln.Close()
	dl.mu.Lock()
	cur := dl.cur
	dl.cur = nil
	dl.mu.Unlock()
	if cur != nil {
		cur.Close()
	}
}
