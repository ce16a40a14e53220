package apps

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/host"
	"repro/internal/sim"
)

// rig builds sender+receiver joined by a switch, as the testbed does.
func rig(t *testing.T) (*sim.Engine, *host.Host, *host.Host) {
	t.Helper()
	e := sim.NewEngine(1)
	recv := host.New(e, host.DefaultConfig(1, 4096, false))
	send := host.New(e, host.DefaultConfig(2, 4096, false))
	sw := fabric.NewSwitch(e, fabric.DefaultSwitchConfig())
	for _, h := range []*host.Host{recv, send} {
		up := fabric.NewLink(e, fabric.DefaultLinkConfig(), sw.Inject)
		h.SetOutput(up.Send)
		down := fabric.NewLink(e, fabric.DefaultLinkConfig(), h.ReceiveFromWire)
		sw.AttachPort(h.ID(), down)
	}
	return e, send, recv
}

func TestNetAppTSaturatesUncongestedLink(t *testing.T) {
	e, send, recv := rig(t)
	app := NewNetAppT(e, []*host.Host{send}, recv, 4)
	e.RunUntil(8 * sim.Millisecond)
	app.MarkWindow()
	e.RunUntil(20 * sim.Millisecond)
	gbps := app.Throughput().Gbps()
	// Goodput ceiling is 100G x 4026/4096 = 98.3.
	if gbps < 93 || gbps > 99 {
		t.Fatalf("NetApp-T goodput = %.1f Gbps, want ~98", gbps)
	}
	if app.Retransmits() != 0 {
		t.Fatalf("uncongested NetApp-T saw %d retransmits", app.Retransmits())
	}
	if len(app.Conns()) != 4 {
		t.Fatalf("conns = %d", len(app.Conns()))
	}
}

func TestNetAppTSingleFlowIsCoreBound(t *testing.T) {
	// One flow is steered to one RX core; DCTCP needs 4 cores to reach
	// line rate (§2.2), so a single flow must achieve well under 98G.
	e, send, recv := rig(t)
	app := NewNetAppT(e, []*host.Host{send}, recv, 1)
	e.RunUntil(8 * sim.Millisecond)
	app.MarkWindow()
	e.RunUntil(20 * sim.Millisecond)
	gbps := app.Throughput().Gbps()
	if gbps > 70 {
		t.Fatalf("single flow got %.1f Gbps; should be core-bound well below line rate", gbps)
	}
	if gbps < 15 {
		t.Fatalf("single flow got %.1f Gbps; suspiciously low", gbps)
	}
}

func TestNetAppLClosedLoop(t *testing.T) {
	e, send, recv := rig(t)
	done := false
	l := NewNetAppL(e, send, recv, 2048, 50, func() { done = true })
	l.SetRecording(true)
	l.Start()
	e.RunUntil(100 * sim.Millisecond)
	if !done {
		t.Fatalf("completed %d of 50 RPCs", l.Completed())
	}
	if l.Latency.Count() != 50 {
		t.Fatalf("recorded %d latencies", l.Latency.Count())
	}
	// Uncongested RPC: ~2.5 RTTs incl. datapath; must be well under 1ms.
	if p50 := l.Latency.Quantile(0.5); p50 > 500_000 || p50 < 20_000 {
		t.Fatalf("P50 = %.1fus, want tens of microseconds", p50/1000)
	}
}

func TestNetAppLWarmupNotRecorded(t *testing.T) {
	e, send, recv := rig(t)
	l := NewNetAppL(e, send, recv, 128, 0, nil)
	l.Start()
	e.RunUntil(5 * sim.Millisecond)
	if l.Completed() == 0 {
		t.Fatal("no RPCs completed")
	}
	if l.Latency.Count() != 0 {
		t.Fatal("latencies recorded before SetRecording(true)")
	}
	l.SetRecording(true)
	before := l.Completed()
	e.RunUntil(10 * sim.Millisecond)
	if got := l.Latency.Count(); got != int64(l.Completed()-before) {
		t.Fatalf("recorded %d, completed %d new", got, l.Completed()-before)
	}
}

func TestNetAppLLargeRPCSpansSegments(t *testing.T) {
	e, send, recv := rig(t)
	l := NewNetAppL(e, send, recv, 32768, 10, nil)
	l.SetRecording(true)
	l.Start()
	e.RunUntil(50 * sim.Millisecond)
	if l.Completed() < 10 {
		t.Fatalf("completed %d of 10 32KB RPCs", l.Completed())
	}
}

func TestAppValidation(t *testing.T) {
	e, send, recv := rig(t)
	for name, fn := range map[string]func(){
		"zero flows":   func() { NewNetAppT(e, []*host.Host{send}, recv, 0) },
		"no senders":   func() { NewNetAppT(e, nil, recv, 4) },
		"zero rpc len": func() { NewNetAppL(e, send, recv, 0, 1, nil) },
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
}
