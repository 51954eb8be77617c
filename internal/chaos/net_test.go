package chaos

import (
	"testing"
	"time"
)

func TestParseNetFaults(t *testing.T) {
	cases := []struct {
		spec string
		want Fault
	}{
		{"netreset:0>1@20", Fault{Kind: NetReset, Instance: -1, From: 0, To: 1, AtHit: 20}},
		{"netdrop:1>*@5", Fault{Kind: NetDrop, Instance: -1, From: 1, To: -1, AtHit: 5}},
		{"netcorrupt:*>0@9x2", Fault{Kind: NetCorrupt, Instance: -1, From: -1, To: 0, AtHit: 9, Times: 2}},
		{"netdelay=50ms:0>2@1x10", Fault{Kind: NetDelay, Delay: 50 * time.Millisecond, Instance: -1, From: 0, To: 2, AtHit: 1, Times: 10}},
		{"netpartition:1>0x5000", Fault{Kind: NetPartition, Instance: -1, From: 1, To: 0, Times: 5000}},
	}
	for _, tc := range cases {
		got, err := ParseFault(tc.spec)
		if err != nil {
			t.Fatalf("ParseFault(%q): %v", tc.spec, err)
		}
		if got != tc.want {
			t.Fatalf("ParseFault(%q) = %+v, want %+v", tc.spec, got, tc.want)
		}
	}
	for _, bad := range []string{
		"netdrop:0/1",        // node syntax on a net fault
		"netreset:0>x",       // bad worker
		"netreset:->2",       // negative worker
		"netfrob:0>1",        // unknown kind
		"netdelay=zzz:0>1",   // bad duration
		"netdrop:0>1@frames", // bad frame count
	} {
		if _, err := ParseFault(bad); err == nil {
			t.Fatalf("ParseFault(%q) accepted a malformed spec", bad)
		}
	}
}

func TestNetFaultStringRoundTrip(t *testing.T) {
	for _, spec := range []string{
		"netreset:0>1@20",
		"netdrop:1>*@5",
		"netcorrupt:*>0@9x2",
		"netdelay=50ms:0>2x10",
		"netpartition:1>0@2x5000",
	} {
		f, err := ParseFault(spec)
		if err != nil {
			t.Fatalf("ParseFault(%q): %v", spec, err)
		}
		back, err := ParseFault(f.String())
		if err != nil {
			t.Fatalf("re-parsing %q (from %q): %v", f.String(), spec, err)
		}
		if back != f {
			t.Fatalf("String round trip of %q: %+v != %+v", spec, back, f)
		}
	}
}

// TestNetPointScoping: faults match only their directed link, wildcards
// match everything, and node faults never leak into NetPoints (nor net
// faults into node Points).
func TestNetPointScoping(t *testing.T) {
	inj := NewInjector(
		Fault{Kind: NetDrop, From: 0, To: 1},
		Fault{Kind: Panic, Node: "sink#0", Instance: -1},
	)
	if p := inj.NetPoint(1, 0); p != nil {
		t.Fatal("reverse direction resolved a NetPoint: net faults must be asymmetric")
	}
	if p := inj.NetPoint(0, 2); p != nil {
		t.Fatal("unrelated link resolved a NetPoint")
	}
	p := inj.NetPoint(0, 1)
	if p == nil {
		t.Fatal("matching link resolved no NetPoint")
	}
	if len(p.faults) != 1 {
		t.Fatalf("NetPoint carries %d faults, want 1 (the node fault must not leak in)", len(p.faults))
	}
	if np := inj.Point("sink#0", 0); np == nil || len(np.faults) != 1 {
		t.Fatalf("node Point = %+v, want exactly the panic fault", np)
	}

	wild := NewInjector(Fault{Kind: NetReset, From: -1, To: -1})
	if wild.NetPoint(3, 7) == nil {
		t.Fatal("wildcard fault did not match an arbitrary link")
	}
	var nilInj *Injector
	if nilInj.NetPoint(0, 1) != nil {
		t.Fatal("nil injector must resolve nothing")
	}
	var nilPoint *NetPoint
	if nilPoint.Frame() != NetPass || nilPoint.Partitioned() {
		t.Fatal("nil NetPoint must be a no-op")
	}
}

// TestNetPointFrameWindow: @hit/xN select an exact frame window, counters
// are shared across NetPoints of the same injector (monotonic across
// restarts), and exhausted faults never re-fire.
func TestNetPointFrameWindow(t *testing.T) {
	inj := NewInjector(Fault{Kind: NetDrop, From: 0, To: 1, AtHit: 3, Times: 2})
	p := inj.NetPoint(0, 1)
	want := []NetAction{NetPass, NetPass, NetDropFrame, NetDropFrame, NetPass, NetPass}
	for i, w := range want {
		if got := p.Frame(); got != w {
			t.Fatalf("frame %d: action %v, want %v", i+1, got, w)
		}
	}
	// A fresh NetPoint (post-restart re-resolution) shares the counters.
	if got := inj.NetPoint(0, 1).Frame(); got != NetPass {
		t.Fatalf("exhausted fault re-fired after re-resolution: %v", got)
	}
	if fires := inj.Fires(); len(fires) != 1 {
		t.Fatalf("want exactly one recorded fire for the window, got %v", fires)
	}
}

// TestPartitionWindow: Partitioned() consults only netpartition faults, so
// control-plane gating never consumes the frame counters of frame-precise
// faults, while data frames and control sends share the partition window.
func TestPartitionWindow(t *testing.T) {
	inj := NewInjector(
		Fault{Kind: NetDrop, From: 1, To: 0, AtHit: 2},
		Fault{Kind: NetPartition, From: 1, To: 0, Times: 3},
	)
	p := inj.NetPoint(1, 0)
	if !p.Partitioned() || !p.Partitioned() {
		t.Fatal("partition window did not swallow control sends")
	}
	// Third partition hit comes from the data plane.
	if got := p.Frame(); got != NetBlackhole {
		t.Fatalf("frame inside partition window: %v, want blackhole", got)
	}
	// Window exhausted; the netdrop fault must still be at hit 1 of 2 —
	// Partitioned() must not have advanced it — so the next frame drops.
	if got := p.Frame(); got != NetDropFrame {
		t.Fatalf("post-partition frame: %v, want drop (netdrop counter must be untouched by control gating)", got)
	}
	if p.Partitioned() {
		t.Fatal("partition window re-fired after exhaustion")
	}
}

// TestNetDelayInline: delay faults sleep but pass the frame through.
func TestNetDelayInline(t *testing.T) {
	inj := NewInjector(Fault{Kind: NetDelay, Delay: 20 * time.Millisecond, From: 0, To: 1})
	p := inj.NetPoint(0, 1)
	start := time.Now()
	if got := p.Frame(); got != NetPass {
		t.Fatalf("delayed frame action %v, want pass", got)
	}
	if d := time.Since(start); d < 20*time.Millisecond {
		t.Fatalf("netdelay slept %v, want >= 20ms", d)
	}
}
