package fabric

import (
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// pfcSwitchConfig: thresholds small enough that a handful of 4 KiB
// packets crosses XOFF (16 KiB) while the headroom (16 KiB more) bounds
// total ingress buffering at 32 KiB.
func pfcSwitchConfig() SwitchConfig {
	return SwitchConfig{
		PortBufferBytes:   1 << 20,
		ECNThresholdBytes: 1 << 19,
		PFC: PFCConfig{
			Enabled:       true,
			XoffBytes:     16 << 10,
			XonBytes:      8 << 10,
			HeadroomBytes: 16 << 10,
		},
	}
}

func TestPFCConfigValidate(t *testing.T) {
	const buf = 1 << 20
	cases := []struct {
		name    string
		cfg     PFCConfig
		wantErr string // "" = valid
	}{
		{"disabled-anything-goes", PFCConfig{XoffBytes: -5}, ""},
		{"default", DefaultPFCConfig(buf), ""},
		{"zero-xoff", PFCConfig{Enabled: true, XonBytes: 1, HeadroomBytes: 1}, "XoffBytes"},
		{"zero-xon", PFCConfig{Enabled: true, XoffBytes: 100, HeadroomBytes: 1}, "XonBytes"},
		{"xon-above-xoff", PFCConfig{Enabled: true, XoffBytes: 100, XonBytes: 200, HeadroomBytes: 1}, "XonBytes"},
		{"zero-headroom", PFCConfig{Enabled: true, XoffBytes: 100, XonBytes: 50}, "HeadroomBytes"},
		{"over-buffer", PFCConfig{Enabled: true, XoffBytes: buf, XonBytes: 1, HeadroomBytes: buf}, "exceed PortBufferBytes"},
		{"negative-watchdog", PFCConfig{Enabled: true, XoffBytes: 100, XonBytes: 50, HeadroomBytes: 100, ResumeTimeout: -1}, "ResumeTimeout"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate(buf)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestIngressXoffXon walks one ingress through the full PFC state
// machine: occupancy crossing XOFF pauses the upstream (after the pause
// frame's flight time), draining to XON releases it, and the pause
// frames are counted.
func TestIngressXoffXon(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, pfcSwitchConfig())
	out := NewLink(e, DefaultLinkConfig(), func(*packet.Packet) {})
	sw.AttachPort(2, out)
	var pauses []bool
	ig := sw.NewIngress("h1", sim.Microsecond, func(on bool) { pauses = append(pauses, on) })

	// 8 injections at t=0: the first starts serializing immediately (its
	// bytes released at dequeue), so occupancy peaks at 7x4096 = 28 KiB —
	// above XOFF (16 KiB), under XOFF+headroom (32 KiB).
	for i := 0; i < 8; i++ {
		sw.InjectFrom(ig, dataPkt(2, 4096, packet.NotECT))
	}
	if !ig.Xoff() {
		t.Fatalf("occupancy %d above XOFF but ingress not paused", ig.Occupancy())
	}
	if got := ig.Xoffs.Total(); got != 1 {
		t.Fatalf("Xoffs = %d, want 1", got)
	}
	if len(pauses) != 0 {
		t.Fatal("pause arrived upstream before its flight time")
	}

	e.Run() // drain: occupancy -> 0 <= XON, pause released
	if ig.Xoff() || ig.Occupancy() != 0 {
		t.Fatalf("drained ingress still xoff=%v occ=%d", ig.Xoff(), ig.Occupancy())
	}
	want := []bool{true, false}
	if len(pauses) != 2 || pauses[0] != want[0] || pauses[1] != want[1] {
		t.Fatalf("upstream pause sequence %v, want %v", pauses, want)
	}
	if got := sw.PauseFrames.Total(); got != 2 {
		t.Fatalf("PauseFrames = %d, want 2 (XOFF + XON)", got)
	}
	if sw.Drops.Total() != 0 || sw.HeadroomDrops.Total() != 0 {
		t.Fatal("lossless ingress dropped within its provisioned headroom")
	}
}

// TestIngressHeadroomExhaustion: arrivals beyond XOFF+headroom are the
// lossless guarantee failing — counted as both Drops and HeadroomDrops.
func TestIngressHeadroomExhaustion(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, pfcSwitchConfig())
	out := NewLink(e, DefaultLinkConfig(), func(*packet.Packet) {})
	sw.AttachPort(2, out)
	ig := sw.NewIngress("h1", sim.Microsecond, func(bool) {})

	// 12 injections: 1 serializing + 8 queued fill the 32 KiB quota; the
	// last 3 exceed it.
	for i := 0; i < 12; i++ {
		sw.InjectFrom(ig, dataPkt(2, 4096, packet.NotECT))
	}
	if got := sw.HeadroomDrops.Total(); got != 3 {
		t.Fatalf("HeadroomDrops = %d, want 3", got)
	}
	if sw.Drops.Total() != sw.HeadroomDrops.Total() {
		t.Fatalf("headroom drops not mirrored in Drops: %d vs %d",
			sw.Drops.Total(), sw.HeadroomDrops.Total())
	}
	e.Run()
}

// TestPauseFrameLoss: with the fault hook discarding every pause frame,
// the upstream never hears XOFF — the frames are counted as emitted and
// lost, and the pause target stays silent (how real storms begin).
func TestPauseFrameLoss(t *testing.T) {
	e := sim.NewEngine(1)
	sw := NewSwitch(e, pfcSwitchConfig())
	out := NewLink(e, DefaultLinkConfig(), func(*packet.Packet) {})
	sw.AttachPort(2, out)
	var delivered int
	ig := sw.NewIngress("h1", sim.Microsecond, func(bool) { delivered++ })
	sw.SetPauseFault(func() bool { return true })

	for i := 0; i < 8; i++ {
		sw.InjectFrom(ig, dataPkt(2, 4096, packet.NotECT))
	}
	e.Run()
	if delivered != 0 {
		t.Fatalf("%d pause frames delivered despite total loss fault", delivered)
	}
	if sw.PauseFrames.Total() != 2 || sw.PauseLost.Total() != 2 {
		t.Fatalf("frames=%d lost=%d, want 2 and 2", sw.PauseFrames.Total(), sw.PauseLost.Total())
	}
}

// TestPortPauseGatesAndWatchdogReleases: a paused output port holds its
// queue; the PFC watchdog force-releases a pause held past ResumeTimeout
// (even a forced one — the storm containment), counts the release, and
// the queue then drains.
func TestPortPauseGatesAndWatchdogReleases(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := pfcSwitchConfig()
	cfg.PFC.ResumeTimeout = 50 * sim.Microsecond
	sw := NewSwitch(e, cfg)
	var delivered int
	out := NewLink(e, DefaultLinkConfig(), func(*packet.Packet) { delivered++ })
	port := sw.AttachPort(2, out)

	sw.SetPortForcedPause(port, true)
	sw.Inject(dataPkt(2, 4096, packet.NotECT))
	e.RunUntil(40 * sim.Microsecond)
	if delivered != 0 {
		t.Fatal("paused port transmitted")
	}
	if !sw.PortPaused(port) {
		t.Fatal("port not reported paused")
	}
	if got := sw.PortPausedFor(port); got != 40*sim.Microsecond {
		t.Fatalf("PortPausedFor = %v mid-pause, want 40us", got)
	}

	e.Run() // watchdog fires at 50 us, the queue drains
	if sw.WatchdogReleases.Total() != 1 {
		t.Fatalf("WatchdogReleases = %d, want 1", sw.WatchdogReleases.Total())
	}
	if sw.PortPaused(port) {
		t.Fatal("watchdog did not release the forced pause")
	}
	if delivered != 1 {
		t.Fatalf("delivered %d after release, want 1", delivered)
	}
	if got := sw.PortPausedFor(port); got != 50*sim.Microsecond {
		t.Fatalf("PortPausedFor = %v, want the watchdog's 50us", got)
	}
	if sw.PauseAsserts.Total() != 1 {
		t.Fatalf("PauseAsserts = %d, want 1", sw.PauseAsserts.Total())
	}
}

// TestBuildErrors is the table-driven sweep of Build's rejection paths:
// host wiring mistakes, impossible shapes, and PFC configurations that
// could not actually be lossless.
func TestBuildErrors(t *testing.T) {
	sink := func(*packet.Packet) {}
	hosts := func(hp ...HostPort) []HostPort { return hp }
	thinPFC := LeafSpine(2, 1)
	thinPFC.Switch = DefaultSwitchConfig()
	thinPFC.Switch.PFC = PFCConfig{Enabled: true, XoffBytes: 4096, XonBytes: 2048, HeadroomBytes: 4096}

	cases := []struct {
		name    string
		topo    Topology
		hosts   []HostPort
		wantErr string // "" = must build
	}{
		{"star-ok", Star(), hosts(HostPort{ID: 1, Rack: 0, Deliver: sink}), ""},
		{"dumbbell-ok", Dumbbell(),
			hosts(HostPort{ID: 1, Rack: 0, Deliver: sink}, HostPort{ID: 2, Rack: 1, Deliver: sink}), ""},
		{"rack-negative", Star(), hosts(HostPort{ID: 1, Rack: -1, Deliver: sink}), "rack -1"},
		{"rack-beyond-star", Star(), hosts(HostPort{ID: 1, Rack: 1, Deliver: sink}), "rack 1"},
		{"rack-beyond-leafspine", LeafSpine(2, 2), hosts(HostPort{ID: 1, Rack: 2, Deliver: sink}), "rack 2"},
		{"zero-host-id", Star(), hosts(HostPort{ID: 0, Rack: 0, Deliver: sink}), "zero ID"},
		{"duplicate-host-id", Star(),
			hosts(HostPort{ID: 7, Rack: 0, Deliver: sink}, HostPort{ID: 7, Rack: 0, Deliver: sink}),
			"duplicate host ID 7"},
		{"unknown-kind", Topology{Kind: TopologyKind(9)}, nil, "unknown topology kind"},
		{"one-leaf", LeafSpine(1, 2), nil, "at least 2 leaves"},
		{"dumbbell-with-shape", Topology{Kind: TopoDumbbell, Leaves: 2}, nil, "dumbbell shape"},
		{"pfc-thin-headroom", thinPFC, nil, "HeadroomBytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Build(serial(sim.NewEngine(1)), c.topo, DefaultLinkConfig(), c.hosts, nil)
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid build rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestBuildPausePropagatesAcrossTrunk: on a PFC dumbbell, saturating the
// right switch's ingress from the trunk must pause the *left* switch's
// trunk port — congestion spreading across tiers, the mechanism the
// pfc-cycle classifier names.
func TestBuildPausePropagatesAcrossTrunk(t *testing.T) {
	e := sim.NewEngine(1)
	topo := Dumbbell()
	topo.Switch = DefaultSwitchConfig()
	topo.Switch.PFC = DefaultPFCConfig(topo.Switch.PortBufferBytes)
	hosts := []HostPort{
		{ID: 1, Rack: 0, Deliver: func(*packet.Packet) {}},
		{ID: 2, Rack: 1, Deliver: func(*packet.Packet) {}},
	}
	fb, err := Build(serial(e), topo, DefaultLinkConfig(), hosts, nil)
	if err != nil {
		t.Fatal(err)
	}
	left, right := fb.Switches[0], fb.Switches[1]
	lrPort := fb.TrunkPorts[0]
	if lrPort.Sw != left || lrPort.Name != "sw0->sw1" {
		t.Fatalf("TrunkPorts[0] = %+v, want left's sw0->sw1", lrPort)
	}

	// Force-pause the right switch's host port so trunk arrivals pile up
	// in right's trunk ingress, then pour cross-fabric traffic in. The
	// ingress XOFF must reach back and pause left's trunk port.
	rightHostPort := PortID(0) // first attached port on right is host 2's
	right.SetPortForcedPause(rightHostPort, true)
	xoff := topo.Switch.PFC.XoffBytes
	for sent := 0; sent <= xoff+64<<10; sent += 4096 {
		fb.HostSend(0)(dataPkt(2, 4096, packet.NotECT))
	}
	e.RunUntil(5 * sim.Millisecond)
	if !left.PortPaused(lrPort.Port) {
		t.Fatal("right's ingress pressure did not pause left's trunk port")
	}
	right.SetPortForcedPause(rightHostPort, false)
	e.Run()
	if left.PortPaused(lrPort.Port) {
		t.Fatal("trunk pause not released after the host port drained")
	}
}
