package fabric

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func dataPkt(dst packet.HostID, size int, ecn packet.ECN) *packet.Packet {
	return &packet.Packet{
		Flow:       packet.FlowID{Src: 1, Dst: dst, SrcPort: 10, DstPort: 20},
		PayloadLen: size - packet.HeaderLen,
		ECN:        ecn,
	}
}

func TestLinkSerializationAndPropagation(t *testing.T) {
	e := sim.NewEngine(1)
	var at []sim.Time
	l := NewLink(e, LinkConfig{Rate: sim.Gbps(100), Delay: 9 * sim.Microsecond}, func(*packet.Packet) {
		at = append(at, e.Now())
	})
	l.Send(dataPkt(2, 4096, packet.NotECT))
	l.Send(dataPkt(2, 4096, packet.NotECT))
	e.Run()
	per := sim.Gbps(100).TimeFor(4096)
	if at[0] != per+9*sim.Microsecond {
		t.Fatalf("first delivery at %v", at[0])
	}
	if at[1]-at[0] != per {
		t.Fatalf("deliveries %v apart, want %v (serialized)", at[1]-at[0], per)
	}
}

func TestLinkQueuedTime(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, DefaultLinkConfig(), func(*packet.Packet) {})
	if l.QueuedTime() != 0 {
		t.Fatal("idle link reports queue")
	}
	for i := 0; i < 10; i++ {
		l.Send(dataPkt(2, 4096, packet.NotECT))
	}
	if l.QueuedTime() <= 0 {
		t.Fatal("busy link reports no queue")
	}
}

func newSwitchedPath(e *sim.Engine, cfg SwitchConfig, deliver func(*packet.Packet)) *Switch {
	sw := NewSwitch(e, cfg)
	out := NewLink(e, DefaultLinkConfig(), deliver)
	sw.AttachPort(2, out)
	return sw
}

func TestSwitchForwards(t *testing.T) {
	e := sim.NewEngine(1)
	var got []*packet.Packet
	sw := newSwitchedPath(e, DefaultSwitchConfig(), func(p *packet.Packet) { got = append(got, p) })
	for i := 0; i < 5; i++ {
		sw.Inject(dataPkt(2, 1500, packet.ECT0))
	}
	e.Run()
	if len(got) != 5 {
		t.Fatalf("forwarded %d packets", len(got))
	}
	if sw.Drops.Total() != 0 || sw.Marks.Total() != 0 {
		t.Fatal("unexpected drops/marks on an idle switch")
	}
}

func TestSwitchECNMarkingAboveThreshold(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := SwitchConfig{PortBufferBytes: 1 << 20, ECNThresholdBytes: 10000}
	var ce, ect int
	sw := newSwitchedPath(e, cfg, func(p *packet.Packet) {
		switch p.ECN {
		case packet.CE:
			ce++
		case packet.ECT0:
			ect++
		}
	})
	// Burst of 20 x 4KB: queue exceeds 10KB after ~3 packets.
	for i := 0; i < 20; i++ {
		sw.Inject(dataPkt(2, 4096, packet.ECT0))
	}
	e.Run()
	if ce == 0 {
		t.Fatal("no CE marks despite queue above threshold")
	}
	if ect == 0 {
		t.Fatal("every packet marked; early packets should pass unmarked")
	}
	if int64(ce) != sw.Marks.Total() {
		t.Fatalf("mark accounting mismatch: %d vs %d", ce, sw.Marks.Total())
	}
}

func TestSwitchDoesNotMarkNonECT(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := SwitchConfig{PortBufferBytes: 1 << 20, ECNThresholdBytes: 1}
	var marked bool
	sw := newSwitchedPath(e, cfg, func(p *packet.Packet) { marked = marked || p.ECN == packet.CE })
	for i := 0; i < 10; i++ {
		sw.Inject(dataPkt(2, 4096, packet.NotECT))
	}
	e.Run()
	if marked {
		t.Fatal("non-ECT packet was CE-marked")
	}
}

func TestSwitchDropTail(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := SwitchConfig{PortBufferBytes: 20000, ECNThresholdBytes: 10000}
	delivered := 0
	sw := newSwitchedPath(e, cfg, func(*packet.Packet) { delivered++ })
	for i := 0; i < 50; i++ {
		sw.Inject(dataPkt(2, 4096, packet.ECT0))
	}
	e.Run()
	if sw.Drops.Total() == 0 {
		t.Fatal("expected drop-tail losses")
	}
	if int64(delivered)+sw.Drops.Total() != 50 {
		t.Fatalf("conservation violated: %d delivered + %d dropped != 50", delivered, sw.Drops.Total())
	}
}

func TestSwitchQueueBytesAndUnknownRoute(t *testing.T) {
	e := sim.NewEngine(1)
	sw := newSwitchedPath(e, DefaultSwitchConfig(), func(*packet.Packet) {})
	sw.Inject(dataPkt(2, 4096, packet.NotECT))
	sw.Inject(dataPkt(2, 4096, packet.NotECT))
	// First packet is serializing; second queued.
	if sw.QueueBytes(2) != 4096 {
		t.Fatalf("QueueBytes = %d, want 4096", sw.QueueBytes(2))
	}
	if sw.QueueBytes(99) != 0 {
		t.Fatal("unknown port should report empty queue")
	}
	defer func() {
		if recover() == nil {
			t.Error("routing to unknown host did not panic")
		}
	}()
	sw.Inject(dataPkt(99, 100, packet.NotECT))
}

func TestBandwidthSharingUnderIncast(t *testing.T) {
	// Two ingress streams to one output port share the 100G port evenly
	// and the excess is queued/dropped.
	e := sim.NewEngine(1)
	cfg := SwitchConfig{PortBufferBytes: 200 * 1024, ECNThresholdBytes: 80 * 1024}
	delivered := 0
	sw := newSwitchedPath(e, cfg, func(*packet.Packet) { delivered++ })
	// Each source injects at 100G: 2x overload.
	gap := sim.Gbps(100).TimeFor(4096)
	n := 0
	var inject sim.HandlerID // arg0 is the source host
	inject = e.Handler(func(src, _ uint64) {
		if e.Now() > 2*sim.Millisecond {
			return
		}
		p := dataPkt(2, 4096, packet.ECT0)
		p.Flow.Src = packet.HostID(src)
		sw.Inject(p)
		n++
		e.ScheduleAfter(gap, inject, src, 0)
	})
	e.ScheduleAfter(0, inject, 1, 0)
	e.ScheduleAfter(0, inject, 3, 0)
	e.RunUntil(2 * sim.Millisecond)
	// Output at 100G can carry half the offered load.
	frac := float64(delivered) / float64(n)
	if frac < 0.4 || frac > 0.6 {
		t.Fatalf("delivered fraction %.2f, want ~0.5 under 2x incast", frac)
	}
	if sw.Drops.Total() == 0 {
		t.Fatal("2x incast with finite buffer must drop")
	}
}

func TestInjectedWireLoss(t *testing.T) {
	e := sim.NewEngine(3)
	cfg := DefaultLinkConfig()
	cfg.LossProb = 0.2
	delivered := 0
	l := NewLink(e, cfg, func(*packet.Packet) { delivered++ })
	const n = 5000
	for i := 0; i < n; i++ {
		l.Send(dataPkt(2, 1500, packet.NotECT))
	}
	e.Run()
	lossRate := float64(l.Corrupted.Total()) / n
	if lossRate < 0.17 || lossRate > 0.23 {
		t.Fatalf("injected loss rate = %.3f, want ~0.2", lossRate)
	}
	if delivered+int(l.Corrupted.Total()) != n {
		t.Fatalf("conservation: %d delivered + %d lost != %d", delivered, l.Corrupted.Total(), n)
	}
}
