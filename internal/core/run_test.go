package core

import (
	"context"
	"fmt"
	"math/rand"
	"strings"
	"testing"
	"time"

	"cep2asp/internal/asp"
	"cep2asp/internal/chaos"
	"cep2asp/internal/checkpoint"
	"cep2asp/internal/event"
	"cep2asp/internal/obs"
	"cep2asp/internal/overload"
	"cep2asp/internal/sea"
	"cep2asp/internal/supervise"
)

// forcedReplan is a test Replanner: one plan generation per entry of opts,
// each next one due once the sources have emitted after events.
type forcedReplan struct {
	p     *sea.Pattern
	opts  []Options
	after int64
	plans int
}

func (f *forcedReplan) Plan() (*Plan, string, error) {
	plan, err := Translate(f.p, f.opts[f.plans])
	if err != nil {
		return nil, "", err
	}
	f.plans++
	return plan, plan.Explain(), nil
}

func (f *forcedReplan) Poll() time.Duration {
	if f.plans >= len(f.opts) {
		return 0
	}
	return time.Millisecond
}

func (f *forcedReplan) Due(snap obs.Snapshot, _ *Plan) bool {
	var emitted int64
	for _, op := range snap.Operators {
		if strings.HasPrefix(op.Node, "src:") {
			emitted += op.Out
		}
	}
	return emitted >= f.after
}

func testRestartPolicy() *supervise.Policy {
	return &supervise.Policy{
		MaxRestarts: 3, InitialBackoff: time.Millisecond, MaxBackoff: time.Millisecond,
		PoisonThreshold: 5, Seed: 1,
	}
}

// poisonKey is the engine's identity key of an event record, which chaos
// faults can target.
func poisonKey(e event.Event) string {
	return fmt.Sprintf("e:%d:%d:%d:%g", e.Type, e.ID, e.TS, e.Value)
}

// A re-plan and a restart compose: the run is cut at a barrier and re-planned
// onto a differently shaped graph, then the last record of a stream — which
// only the new generation reaches — kills it once. The restart must resume
// the new generation, never restore the old graph's snapshots, and finish
// with the uninterrupted run's match set: from the sinks as the generation
// found them when it has no checkpoint of its own ("cut"), from its latest
// checkpoint otherwise ("checkpoint").
func TestReplanRestartCompose(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(RCA a, RCB b) WHERE a.value <= b.value WITHIN 6 MINUTES SLIDE 1 MINUTE`)
	rng := rand.New(rand.NewSource(17))
	ta, tb := event.RegisterType("RCA"), event.RegisterType("RCB")
	data := map[event.Type][]event.Event{
		ta: genStream(rng, ta, 300, 600, 1),
		tb: genStream(rng, tb, 300, 600, 1),
	}
	plain, err := Translate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc := BuildConfig{Engine: asp.Config{WatermarkInterval: 8}, Data: data, DedupSink: true, KeepMatches: true}
	oracle, err := Run(context.Background(), RunSpec{Plans: []*Plan{plain}, Build: bc})
	if err != nil {
		t.Fatal(err)
	}
	want := sortedKeys(oracle.Sinks[0].Matches())

	for _, tc := range []struct {
		name     string
		interval time.Duration
	}{{"cut", 0}, {"checkpoint", time.Millisecond}} {
		t.Run(tc.name, func(t *testing.T) {
			last := data[tb][len(data[tb])-1]
			inj := chaos.NewInjector(chaos.Fault{
				Kind: chaos.Panic, Node: "src:RCB", Instance: -1, RecordKey: poisonKey(last),
			})
			run := bc
			run.Engine.Chaos = inj
			run.Engine.Checkpoint = &asp.CheckpointSpec{Store: checkpoint.NewMemStore(), Interval: tc.interval}
			// Throttled so the cut lands long before the last record.
			run.SourceRatePerSec = 3000
			// totals[i] is the sink's count as attempt i starts.
			var totals []int64
			rep, err := Run(context.Background(), RunSpec{
				Build:     run,
				Restart:   testRestartPolicy(),
				Replanner: &forcedReplan{p: p, opts: []Options{{}, {UseIntervalJoin: true}}, after: 100},
				OnAttempt: func(_ *asp.Environment, sinks []*asp.Results) { totals = append(totals, sinks[0].Total()) },
			})
			if err != nil {
				t.Fatal(err)
			}
			if rep.Replans != 1 || rep.Restarts != 1 || len(inj.Fires()) != 1 || len(totals) != 3 {
				t.Fatalf("replans %d, restarts %d, faults fired %d, attempts %d; want 1, 1, 1, 3",
					rep.Replans, rep.Restarts, len(inj.Fires()), len(totals))
			}
			if tc.interval == 0 && totals[2] != totals[1] {
				t.Fatalf("restart resumed the sink at %d records, the generation started at %d", totals[2], totals[1])
			}
			equalSets(t, tc.name, want, sortedKeys(rep.Sinks[0].Matches()))
		})
	}
}

// The recall bound spans attempts: a supervised, shedding run killed once
// reports the sum of every attempt's lost-match bound — not the last
// attempt's alone — so its estimate stays a lower bound on the recall
// achieved against the unshed run.
func TestRecallBoundSpansAttempts(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(RRA a, RRB b) WHERE a.value <= b.value WITHIN 10 MINUTES SLIDE 1 MINUTE`)
	rng := rand.New(rand.NewSource(5))
	ta, tb := event.RegisterType("RRA"), event.RegisterType("RRB")
	data := map[event.Type][]event.Event{
		ta: genStream(rng, ta, 300, 600, 1),
		tb: genStream(rng, tb, 300, 600, 1),
	}
	plan, err := Translate(p, Options{})
	if err != nil {
		t.Fatal(err)
	}
	bc := BuildConfig{Engine: asp.Config{WatermarkInterval: 8}, Data: data, DedupSink: true}
	full, err := Run(context.Background(), RunSpec{Plans: []*Plan{plan}, Build: bc})
	if err != nil {
		t.Fatal(err)
	}

	bc.Engine.Overload = overload.Spec{Budget: overload.Budget{PerOperator: 8}, Policy: overload.Shed}
	inj := chaos.NewInjector(chaos.Fault{Kind: chaos.Panic, Node: "src:RRA", Instance: -1, AtHit: 150})
	bc.Engine.Chaos = inj
	var envs []*asp.Environment
	rep, err := Run(context.Background(), RunSpec{
		Plans:     []*Plan{plan},
		Build:     bc,
		Restart:   testRestartPolicy(),
		OnAttempt: func(env *asp.Environment, _ []*asp.Results) { envs = append(envs, env) },
	})
	if err != nil {
		t.Fatal(err)
	}
	if rep.Restarts != 1 || len(envs) != 2 {
		t.Fatalf("restarts %d over %d attempts, want 1 over 2", rep.Restarts, len(envs))
	}
	var lost float64
	var shed int64
	for _, env := range envs {
		lost += env.LostMatchBound()
		shed += env.ShedRecords()
	}
	if envs[0].LostMatchBound() <= 0 {
		t.Fatal("the killed attempt charged no loss; the test is vacuous")
	}
	if rep.LostMatchBound != lost || rep.ShedRecords != shed {
		t.Fatalf("report: bound %g, shed %d; attempts sum to %g, %d", rep.LostMatchBound, rep.ShedRecords, lost, shed)
	}
	achieved := float64(rep.Sinks[0].Unique()) / float64(full.Sinks[0].Unique())
	if est := rep.RecallEstimate(0); est > achieved+1e-9 {
		t.Fatalf("RecallEstimate %g over-reports achieved recall %g", est, achieved)
	}
}

// replayCutoff must rewind at least two windows behind the slowest
// source's watermark, and fall back to full replay when a source has not
// yet emitted a watermark.
func TestReplayCutoff(t *testing.T) {
	p := mustPattern(t, `PATTERN SEQ(RPA a, RPB b) WITHIN 5 MIN SLIDE 1 MIN`)
	ta, _ := event.LookupType("RPA")
	tb, _ := event.LookupType("RPB")
	mk := func(typ event.Type, n int) []event.Event {
		out := make([]event.Event, n)
		for i := range out {
			out[i] = event.Event{Type: typ, ID: 1, TS: int64(i+1) * event.Minute}
		}
		return out
	}
	data := map[event.Type][]event.Event{ta: mk(ta, 100), tb: mk(tb, 100)}

	// Both sources at offset 64 with interval 8: watermark covers the
	// first 64 events, maxTS = 64 min, wm = 64min-1. Cutoff = wm - 2W - 1.
	prog := map[string]asp.SourceProgress{
		"src:RPA": {Offset: 64, MaxTS: 64 * event.Minute},
		"src:RPB": {Offset: 64, MaxTS: 64 * event.Minute},
	}
	cut := replayCutoff(p, data, prog, 8, 0)
	wm := 64*event.Minute - 1
	want := wm - 2*p.Window.Size - 1
	if cut != want {
		t.Fatalf("cutoff %d, want %d", cut, want)
	}

	// A source below one watermark interval forces full replay.
	prog["src:RPB"] = asp.SourceProgress{Offset: 3, MaxTS: 3 * event.Minute}
	if cut := replayCutoff(p, data, prog, 8, 0); cut != event.MinWatermark {
		t.Fatalf("expected full replay, got cutoff %d", cut)
	}

	// A missing source also forces full replay.
	delete(prog, "src:RPB")
	if cut := replayCutoff(p, data, prog, 8, 0); cut != event.MinWatermark {
		t.Fatalf("expected full replay on missing source, got %d", cut)
	}
}
