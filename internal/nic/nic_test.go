package nic

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// stubIIO releases credits after a configurable latency, emulating the
// IIO+memory side of the PCIe link.
type stubIIO struct {
	e        *sim.Engine
	link     *pcie.Link
	latency  sim.Time
	tlps     []*pcie.TLP
	releaseH sim.HandlerID // arg0 is the lines to release
}

func (s *stubIIO) onTLP(t *pcie.TLP) {
	s.tlps = append(s.tlps, t)
	s.e.ScheduleAfter(s.latency, s.releaseH, uint64(t.Lines), 0)
}

func newNICUnderTest(e *sim.Engine, cfg Config, creditLatency sim.Time) (*NIC, *stubIIO) {
	s := &stubIIO{e: e, latency: creditLatency}
	s.releaseH = e.Handler(func(lines, _ uint64) { s.link.ReleaseCredits(int(lines)) })
	link := pcie.NewLink(e, pcie.DefaultConfig(), s.onTLP)
	s.link = link
	n := New(e, cfg, link, nil)
	return n, s
}

func pkt(size int, seq uint64) *packet.Packet {
	return &packet.Packet{
		Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: 7, DstPort: 9},
		Seq:        seq,
		PayloadLen: size - packet.HeaderLen,
	}
}

func TestRxBufferOverflowDrops(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RxBufferBytes = 10000
	// Credits never released after the pool empties: DMA stalls, so only
	// the in-flight packet leaves the buffer.
	n, _ := newNICUnderTest(e, cfg, 1<<40)
	for i := 0; i < 10; i++ {
		n.Receive(pkt(4096, uint64(i)))
	}
	// Buffer holds 2x4166 after the first is consumed by DMA; rest drop.
	if n.Drops.Total() == 0 {
		t.Fatal("expected drops on rx buffer overflow")
	}
	if n.Arrivals.Total() != 10 {
		t.Fatalf("arrivals = %d", n.Arrivals.Total())
	}
	if got := n.RxQueuedBytes(); got > cfg.RxBufferBytes {
		t.Fatalf("rx buffer %d exceeds cap %d", got, cfg.RxBufferBytes)
	}
	if n.DropRate() <= 0 {
		t.Fatal("drop rate should be positive")
	}
}

func TestDescriptorExhaustionStallsDMA(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RxDescriptors = 2
	n, s := newNICUnderTest(e, cfg, 0)
	for i := 0; i < 5; i++ {
		n.Receive(pkt(4096, uint64(i)))
	}
	e.Run()
	// Only 2 packets' worth of TLPs can be DMA'd (9 TLPs each).
	if len(s.tlps) != 18 {
		t.Fatalf("DMA'd %d TLPs, want 18 (2 packets)", len(s.tlps))
	}
	if n.FreeDescriptors() != 0 {
		t.Fatalf("free descriptors = %d", n.FreeDescriptors())
	}
	n.ReleaseDescriptor()
	e.Run()
	if len(s.tlps) != 27 {
		t.Fatalf("after descriptor release: %d TLPs, want 27", len(s.tlps))
	}
}

func TestDescriptorOverReleasePanics(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNICUnderTest(e, DefaultConfig(), 0)
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	n.ReleaseDescriptor()
}

func TestPacketLeavesBufferAtDMAInitiation(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNICUnderTest(e, DefaultConfig(), 0)
	p := pkt(4096, 0)
	n.Receive(p)
	// DMA initiates synchronously (credits available), so the buffer is
	// already empty even though TLPs are still serializing.
	if n.RxQueuedBytes() != 0 {
		t.Fatalf("rx buffer = %d right after receive, want 0 (DMA initiated)", n.RxQueuedBytes())
	}
	e.Run()
}

func TestQueueDelayRecorded(t *testing.T) {
	e := sim.NewEngine(1)
	// Slow credit release: later packets wait in the buffer.
	n, _ := newNICUnderTest(e, DefaultConfig(), 10*sim.Microsecond)
	for i := 0; i < 8; i++ {
		n.Receive(pkt(4096, uint64(i)))
	}
	e.Run()
	if n.QueueDelay.Count() != 8 {
		t.Fatalf("recorded %d queue delays", n.QueueDelay.Count())
	}
	if n.QueueDelay.Max() <= 0 {
		t.Fatal("stalled packets should record positive queueing delay")
	}
}

func TestTransmitSerializesAtLineRate(t *testing.T) {
	e := sim.NewEngine(1)
	n, _ := newNICUnderTest(e, DefaultConfig(), 0)
	var outAt []sim.Time
	n.SetOutput(func(*packet.Packet) { outAt = append(outAt, e.Now()) })
	for i := 0; i < 3; i++ {
		n.Transmit(pkt(4096, uint64(i)))
	}
	e.Run()
	if len(outAt) != 3 {
		t.Fatalf("transmitted %d", len(outAt))
	}
	// 4096B wire at 100Gbps = 327.68 -> 328ns each, back to back.
	per := sim.Gbps(100).TimeFor(4096)
	for i, at := range outAt {
		want := sim.Time(i+1) * per
		if at != want {
			t.Fatalf("packet %d sent at %v, want %v", i, at, want)
		}
	}
	if n.TxSent.Total() != 3 {
		t.Fatalf("TxSent = %d", n.TxSent.Total())
	}
}

func TestTransmitChargesMemoryReads(t *testing.T) {
	e := sim.NewEngine(1)
	mc := mem.NewController(e, mem.DefaultConfig())
	link := pcie.NewLink(e, pcie.DefaultConfig(), func(*pcie.TLP) {})
	n := New(e, DefaultConfig(), link, mc)
	n.SetOutput(func(*packet.Packet) {})
	mc.MarkAll()
	n.Transmit(pkt(4096, 0))
	e.Run()
	if mc.BytesOf(mem.ClassNetCopy) != 4096 {
		t.Fatalf("tx read bytes = %d, want 4096", mc.BytesOf(mem.ClassNetCopy))
	}
}

func TestWindowDropRate(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultConfig()
	cfg.RxBufferBytes = 5000
	n, _ := newNICUnderTest(e, cfg, 1<<40)
	for i := 0; i < 5; i++ {
		n.Receive(pkt(4096, uint64(i)))
	}
	n.MarkWindow()
	if n.WindowDropRate() != 0 {
		t.Fatal("window drop rate should reset at mark")
	}
	n.Receive(pkt(4096, 9))
	if n.WindowDropRate() != 1 {
		t.Fatalf("window drop rate = %v, want 1", n.WindowDropRate())
	}
}
