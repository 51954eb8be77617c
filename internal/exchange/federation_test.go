package exchange

import (
	"bytes"
	"context"
	"fmt"
	"strconv"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/core"
	"cep2asp/internal/obs"
	"cep2asp/internal/trace"
)

// TestTwoWorkerFederation is the metrics-federation acceptance test: after
// a 2-worker run, the coordinator's cluster view must contain both
// workers, the remote worker's federated snapshot must equal that
// worker's own registry, the per-worker Prometheus export must carry
// worker labels whose sink ingress sums to the job's match count, and the
// run's tracer must hold spans from both processes including network
// hops.
func TestTwoWorkerFederation(t *testing.T) {
	regC := obs.NewRegistry()
	regW := obs.NewRegistry()

	coord, err := NewCoordinator(CoordinatorOptions{Workers: 2, Metrics: regC})
	if err != nil {
		t.Fatalf("coordinator: %v", err)
	}
	t.Cleanup(coord.Close)
	w, err := StartWorker(context.Background(), coord.ControlAddr(), WorkerOptions{
		Name:    "fed-worker",
		Metrics: regW,
	})
	if err != nil {
		t.Fatalf("worker: %v", err)
	}
	t.Cleanup(w.Close)
	wctx, cancel := context.WithTimeout(context.Background(), 30*time.Second)
	defer cancel()
	if err := coord.WaitForWorkers(wctx); err != nil {
		t.Fatalf("waiting for workers: %v", err)
	}

	tracer := trace.New(1, 0)
	spec := core.RunSpec{
		Plans: testPlans(t, `PATTERN SEQ(QnVQuantity q, QnVVelocity v)
			WHERE q.value >= 40 AND v.value <= 60 AND q.id == v.id
			WITHIN 10 MINUTES SLIDE 1 MINUTE`, false, core.Options{UsePartitioning: true, Parallelism: 4}),
		Build: core.BuildConfig{
			Engine: testEngine(),
			Data:   testStreams(t, false),
		},
	}
	spec.Build.Engine.Trace = tracer
	rep, err := runOn(coord, spec)
	if err != nil {
		t.Fatalf("distributed run: %v", err)
	}
	total := rep.Sinks[0].Total()
	if total == 0 {
		t.Fatal("degenerate case: no matches")
	}

	// The cluster provider is installed on the coordinator's registry.
	fn := regC.ClusterFn()
	if fn == nil {
		t.Fatal("coordinator did not install a cluster provider on its registry")
	}
	statuses := fn()
	if len(statuses) != 2 {
		t.Fatalf("cluster view has %d workers, want 2: %+v", len(statuses), statuses)
	}
	byWorker := make(map[int]obs.WorkerStatus)
	for _, st := range statuses {
		byWorker[st.Worker] = st
		if st.Goroutines <= 0 || st.HeapBytes == 0 {
			t.Fatalf("worker %d health not populated: %+v", st.Worker, st)
		}
	}
	remote, ok := byWorker[1]
	if !ok {
		t.Fatalf("worker 1 missing from cluster view: %+v", statuses)
	}
	if remote.Name != "fed-worker" {
		t.Fatalf("worker 1 reported name %q", remote.Name)
	}
	if remote.LastSeenMs < 0 || remote.LastSeenMs > 30_000 {
		t.Fatalf("worker 1 heartbeat age %dms implausible", remote.LastSeenMs)
	}

	// The federated snapshot must agree with the worker's own registry:
	// same per-operator ingress totals (the final stats push precedes Done,
	// and no records flow afterwards).
	ownIn := make(map[string]int64)
	for _, o := range regW.Snapshot().Operators {
		ownIn[fmt.Sprintf("%s/%d", o.Node, o.Instance)] = o.In
	}
	if len(remote.Snap.Operators) == 0 {
		t.Fatal("worker 1 federated snapshot has no operators")
	}
	for _, o := range remote.Snap.Operators {
		key := fmt.Sprintf("%s/%d", o.Node, o.Instance)
		if own, ok := ownIn[key]; !ok || own != o.In {
			t.Fatalf("federated snapshot diverges from worker registry at %s: federated %d, own %d",
				key, o.In, own)
		}
	}

	// Prometheus federation: both worker labels present, and the sink
	// ingress summed across workers equals the run's match count.
	var buf bytes.Buffer
	obs.WriteClusterPrometheus(&buf, statuses)
	text := buf.String()
	for _, label := range []string{`worker="0"`, `worker="1"`} {
		if !strings.Contains(text, label) {
			t.Fatalf("cluster export missing %s label:\n%s", label, text)
		}
	}
	var sinkIn int64
	for _, line := range strings.Split(text, "\n") {
		if !strings.HasPrefix(line, "cep2asp_operator_records_in_total{") ||
			!strings.Contains(line, `node="sink#`) {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		v, err := strconv.ParseInt(line[i+1:], 10, 64)
		if err != nil {
			t.Fatalf("unparseable sample %q: %v", line, err)
		}
		sinkIn += v
	}
	if sinkIn != total {
		t.Fatalf("sink ingress across cluster sums to %d, run reported %d matches", sinkIn, total)
	}

	// Trace federation: the run's tracer must hold spans from both
	// processes, including the network hops between them.
	workersSeen := make(map[int]bool)
	var nets int
	for _, s := range tracer.Spans() {
		workersSeen[s.Worker] = true
		if s.Kind == trace.KindNet {
			nets++
		}
	}
	if !workersSeen[0] || !workersSeen[1] {
		t.Fatalf("trace spans cover workers %v, want both 0 and 1", workersSeen)
	}
	if nets == 0 {
		t.Fatal("2-worker traced run recorded no network-hop spans")
	}
}
