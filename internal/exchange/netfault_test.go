package exchange

import (
	"context"
	"errors"
	"fmt"
	"io"
	"net"
	"os"
	"strings"
	"sync/atomic"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/core"
	"cep2asp/internal/obs"
	"cep2asp/internal/supervise"
)

// TestFlakyNetworkRecovery is the network fault-tolerance acceptance
// property: deterministic transport chaos — a dropped frame (a link's
// first one included), a corrupted frame, a partition window, a connection
// reset — hits a data link mid-run, one end detects the damage (sequence
// gap, checksum mismatch or failed write), the job restarts from the
// latest checkpoint, and the recovered match set is identical to an
// unfailed single-process run.
func TestFlakyNetworkRecovery(t *testing.T) {
	o3 := core.Options{UsePartitioning: true, Parallelism: 4}
	cases := []struct {
		name    string
		pattern string
		fault   chaos.Fault
	}{
		{
			name: "SEQ/netcorrupt",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			fault: chaos.Fault{Kind: chaos.NetCorrupt, From: 1, To: 0, AtHit: 40},
		},
		{
			name: "AND/netdrop",
			pattern: `PATTERN AND(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 50 AND v.value <= 50 AND q.id == v.id
				WITHIN 5 MINUTES SLIDE 1 MINUTE`,
			fault: chaos.Fault{Kind: chaos.NetDrop, From: 1, To: 0, AtHit: 40},
		},
		{
			name: "ITER/netpartition",
			pattern: `PATTERN ITER(QnVVelocity v, 3)
				WHERE v.value <= 60 AND v[i].id == v[i+1].id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			// A 30-send blackhole window: data frames and control messages
			// toward the coordinator vanish, then the link heals and the
			// first delivered frame exposes the sequence gap.
			fault: chaos.Fault{Kind: chaos.NetPartition, From: 1, To: 0, AtHit: 40, Times: 30},
		},
		{
			// A reset costs one restart like any other broken link: the
			// sender's write on the severed connection fails the attempt.
			name: "SEQ/netreset",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			fault: chaos.Fault{Kind: chaos.NetReset, From: 0, To: 1, AtHit: 6},
		},
		{
			// The link's very first frame vanishes: the receiver must check
			// it against seq 0 rather than adopt whatever arrives first.
			name: "SEQ/netdrop-first",
			pattern: `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
				WHERE q.id == v.id
				WITHIN 10 MINUTES SLIDE 1 MINUTE`,
			fault: chaos.Fault{Kind: chaos.NetDrop, From: 0, To: 1, AtHit: 1},
		},
	}
	for _, tc := range cases {
		t.Run(tc.name, func(t *testing.T) {
			policy := supervise.DefaultPolicy()
			spec := core.RunSpec{
				Plans: testPlans(t, tc.pattern, false, o3),
				Build: core.BuildConfig{
					Engine:      testEngine(),
					Data:        testStreams(t, false),
					KeepMatches: true,
					// Throttled sources stretch the run so the fault lands
					// mid-stream with checkpoints already completed.
					SourceRatePerSec: 600,
				},
				Restart: &policy,
			}
			spec.Build.Engine.Checkpoint = testCheckpoints()
			want := runSingleProcess(t, spec)
			if len(want) == 0 {
				t.Fatal("degenerate case: unfailed run found no matches")
			}

			spec.Build.Engine.Chaos = chaos.NewInjector(tc.fault)
			coord := cluster(t, 2, CoordinatorOptions{})
			rep, err := runOn(coord, spec)
			if err != nil {
				t.Fatalf("recovered run failed: %v", err)
			}
			if rep.Restarts == 0 {
				t.Fatal("the net fault never forced a restart: detection is broken or the fault never fired")
			}
			got := sortedKeys(rep.Sinks[0].Keys())
			if len(got) != len(want) {
				t.Fatalf("recovered match set diverged: unfailed %d unique, recovered %d unique",
					len(want), len(got))
			}
			for i := range want {
				if want[i] != got[i] {
					t.Fatalf("recovered match key %d diverged:\nunfailed  %s\nrecovered %s", i, want[i], got[i])
				}
			}
			t.Logf("recovered after %d restart(s), %d checkpoint(s)", rep.Restarts, rep.Env.CompletedCheckpoints())
		})
	}
}

// TestHeartbeatDetectsBlackholedWorker: a worker whose every message
// toward the coordinator vanishes (an effectively permanent asymmetric
// partition) produces no TCP error anywhere — only the coordinator's
// heartbeat failure detector can notice. It must declare the worker dead
// within the liveness deadline, restart from the latest checkpoint with a
// respawned replacement, and still produce the unfailed match set.
func TestHeartbeatDetectsBlackholedWorker(t *testing.T) {
	policy := supervise.DefaultPolicy()
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 4}),
		Build: core.BuildConfig{
			Engine:           testEngine(),
			Data:             testStreams(t, false),
			KeepMatches:      true,
			SourceRatePerSec: 600,
		},
		Restart: &policy,
	}
	spec.Build.Engine.Checkpoint = testCheckpoints()
	want := runSingleProcess(t, spec)
	if len(want) == 0 {
		t.Fatal("degenerate case: unfailed run found no matches")
	}
	// The window never exhausts within the job: worker 1 goes dark toward
	// the coordinator a few dozen sends into the run and stays dark.
	// Silence, not an error, is the only signal.
	spec.Build.Engine.Chaos = chaos.NewInjector(chaos.Fault{Kind: chaos.NetPartition, From: 1, To: 0, AtHit: 30, Times: 1 << 40})

	reg := obs.NewRegistry()
	liveness := 700 * time.Millisecond
	var coordAddr string
	var respawns atomic.Int32
	coord, err := NewCoordinator(CoordinatorOptions{
		Workers:  2,
		Metrics:  reg,
		Liveness: liveness,
		Respawn: func(attempt int) error {
			n := respawns.Add(1)
			w, err := StartWorker(context.Background(), coordAddr, WorkerOptions{
				Name:          fmt.Sprintf("respawned-%d-%d", attempt, n),
				StatsInterval: 50 * time.Millisecond,
			})
			if err != nil {
				return err
			}
			t.Cleanup(w.Close)
			return nil
		},
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)
	coordAddr = coord.ControlAddr()
	w, err := StartWorker(context.Background(), coordAddr, WorkerOptions{
		Name: "blackholed", StatsInterval: 50 * time.Millisecond,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(w.Close)
	waitCtx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(waitCtx); err != nil {
		t.Fatal(err)
	}

	rep, err := runOn(coord, spec)
	if err != nil {
		t.Fatalf("run with blackholed worker failed: %v", err)
	}
	if rep.Restarts == 0 {
		t.Fatal("blackholed worker was never detected: run completed without a restart")
	}
	if respawns.Load() == 0 {
		t.Fatal("recovery never respawned a worker")
	}
	h := reg.Health()
	if h.HeartbeatTimeouts < 1 {
		t.Fatalf("no heartbeat timeout recorded (health %+v); detection happened some other way", h)
	}
	// Detection latency is bounded: the detector ticks at liveness/4, so
	// silence is noticed within liveness + one tick (plus scheduling slack).
	if maxMs := (2 * liveness).Milliseconds(); h.DetectLatencyMs > maxMs {
		t.Fatalf("detection took %dms; the liveness deadline of %v is not enforced", h.DetectLatencyMs, liveness)
	}
	got := sortedKeys(rep.Sinks[0].Keys())
	if len(got) != len(want) {
		t.Fatalf("recovered match set diverged: unfailed %d unique, recovered %d unique", len(want), len(got))
	}
	for i := range want {
		if want[i] != got[i] {
			t.Fatalf("recovered match key %d diverged:\nunfailed  %s\nrecovered %s", i, want[i], got[i])
		}
	}
	t.Logf("detected in %dms (liveness %v), %d restart(s)", h.DetectLatencyMs, liveness, rep.Restarts)
}

// TestWriteDeadlineBoundsBlackholedSend is the regression test for the
// per-frame write deadline: a peer that accepts the connection and then
// never reads eventually fills the kernel send buffer, and without a
// deadline the sending goroutine blocks forever (this test hangs on
// pre-deadline code). With the deadline the send must fail within a
// bounded window.
func TestWriteDeadlineBoundsBlackholedSend(t *testing.T) {
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		t.Fatal(err)
	}
	defer ln.Close()
	stop := make(chan struct{})
	defer close(stop)
	go func() {
		c, err := ln.Accept()
		if err != nil {
			return
		}
		defer c.Close()
		var hs [12]byte
		io.ReadFull(c, hs[:]) // consume the handshake, then never read again
		<-stop
	}()

	nc := defaultNetConfig()
	nc.writeTimeout = 150 * time.Millisecond
	nc.dialRetries = 0
	tr := newTransport(context.Background(), transportCfg{me: 0, table: testTable(), net: nc})
	defer tr.Close()
	if err := tr.Dial(map[int]string{1: ln.Addr().String()}, time.Second); err != nil {
		t.Fatal(err)
	}
	send, err := tr.Egress(1, "join", 3, 1)
	if err != nil {
		t.Fatal(err)
	}

	batch := make([]asp.Record, 4096)
	for i := range batch {
		batch[i] = asp.Record{Kind: asp.KindEOS, Src: 7}
	}
	start := time.Now()
	for err == nil {
		if time.Since(start) > 60*time.Second {
			t.Fatal("blackholed send never failed: the write deadline is not applied")
		}
		err = send(batch)
	}
	if !errors.Is(err, os.ErrDeadlineExceeded) {
		t.Fatalf("send failed with %v; want a write-deadline expiry", err)
	}
	t.Logf("blackholed send failed after %v: %v", time.Since(start).Round(time.Millisecond), err)
}

// TestPhaseDeadlineNamesStuckWorker is the regression test for the
// choreography deadlines: a worker that joins and then never answers the
// Prepare phase must not hang the job — the coordinator names it in a
// restartable failure once the phase deadline expires.
func TestPhaseDeadlineNamesStuckWorker(t *testing.T) {
	coord, err := NewCoordinator(CoordinatorOptions{
		Workers:      2,
		PhaseTimeout: 300 * time.Millisecond,
		JoinTimeout:  2 * time.Second,
	})
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(coord.Close)

	// A wedged worker: joins with a valid Hello, then reads envelopes
	// forever without ever replying.
	conn, err := net.Dial("tcp", coord.ControlAddr())
	if err != nil {
		t.Fatal(err)
	}
	t.Cleanup(func() { conn.Close() })
	cc := newCtrlConn(conn)
	if err := cc.send(&Envelope{Kind: MsgHello, Name: "wedged", DataAddr: "127.0.0.1:9"}); err != nil {
		t.Fatal(err)
	}
	go func() {
		for {
			if _, err := cc.recv(); err != nil {
				return
			}
		}
	}()
	waitCtx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(waitCtx); err != nil {
		t.Fatal(err)
	}

	// No restart policy: the first failure surfaces.
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 4}),
		Build: core.BuildConfig{
			Engine: testEngine(),
			Data:   testStreams(t, false),
		},
	}
	start := time.Now()
	_, err = runOn(coord, spec)
	elapsed := time.Since(start)
	if err == nil {
		t.Fatal("job with a wedged worker succeeded")
	}
	var wf *WorkerFailure
	if !errors.As(err, &wf) {
		t.Fatalf("want *WorkerFailure naming the stuck worker, got %T: %v", err, err)
	}
	if wf.Worker != 1 || wf.Name != "wedged" {
		t.Fatalf("failure misattributed: %+v", wf)
	}
	if !strings.Contains(err.Error(), "stalled") {
		t.Fatalf("failure does not describe the stall: %v", err)
	}
	if !wf.Restartable() {
		t.Fatal("phase stall must be restartable")
	}
	if elapsed > 10*time.Second {
		t.Fatalf("stall detection took %v; the phase deadline is not enforced", elapsed)
	}
}
