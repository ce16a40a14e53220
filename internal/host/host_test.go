package host

import (
	"testing"

	"repro/internal/mem"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/transport"
)

// loopback wires two hosts back-to-back with a fixed-delay wire (no
// switch), enough to exercise the full receive datapath end to end.
func loopback(t *testing.T, ddio bool) (*sim.Engine, *Host, *Host) {
	t.Helper()
	e := sim.NewEngine(1)
	a := New(e, DefaultConfig(1, 4096, ddio))
	b := New(e, DefaultConfig(2, 4096, ddio))
	a.SetOutput(wire(e, b))
	b.SetOutput(wire(e, a))
	return e, a, b
}

// wire returns a fixed-delay wire that delivers each packet to dst 5 µs
// after it is sent.
func wire(e *sim.Engine, dst *Host) func(*packet.Packet) {
	var inflight sim.Slots[*packet.Packet]
	arrive := e.Handler(func(slot, _ uint64) { dst.ReceiveFromWire(inflight.Take(slot)) })
	return func(p *packet.Packet) {
		e.ScheduleAfter(5*sim.Microsecond, arrive, inflight.Put(p), 0)
	}
}

func TestEndToEndTransferThroughDatapath(t *testing.T) {
	e, a, b := loopback(t, false)
	var got int64
	b.EP.Listen(5000, func(c *transport.Conn) {
		c.OnData(func(n int) { got += int64(n) })
	})
	c := a.EP.Dial(2, 5000)
	const total = 512 * 1024
	c.Send(total)
	e.RunUntil(50 * sim.Millisecond)
	if got != total {
		t.Fatalf("delivered %d of %d through the host datapath", got, total)
	}
	// Data crossed the receiver's memory controller.
	if b.MC.Submitted == 0 {
		t.Fatal("no memory traffic at the receiver")
	}
	if b.IIO.RINS() == 0 {
		t.Fatal("no IIO insertions recorded")
	}
	if b.Rx.Processed() == 0 {
		t.Fatal("no packets processed by RX cores")
	}
}

func TestReceiveHooksRunBeforeTransport(t *testing.T) {
	e, a, b := loopback(t, false)
	var hookSeq []uint64
	b.AddReceiveHook(func(p *packet.Packet) {
		if p.IsData() {
			hookSeq = append(hookSeq, p.Seq)
		}
	})
	var gotData bool
	b.EP.Listen(5000, func(c *transport.Conn) {
		c.OnData(func(int) {
			gotData = true
			if len(hookSeq) == 0 {
				t.Error("transport delivery before receive hook")
			}
		})
	})
	a.EP.Dial(2, 5000).Send(1000)
	e.RunUntil(10 * sim.Millisecond)
	if !gotData || len(hookSeq) == 0 {
		t.Fatalf("gotData=%v hooks=%d", gotData, len(hookSeq))
	}
}

func TestHookCanMarkCE(t *testing.T) {
	// A hook that marks every data packet CE must cause ECE on ACKs and
	// DCTCP alpha growth at the sender — the hostCC echo mechanism.
	e, a, b := loopback(t, false)
	b.AddReceiveHook(func(p *packet.Packet) {
		if p.IsData() && p.ECN == packet.ECT0 {
			p.ECN = packet.CE
		}
	})
	b.EP.Listen(5000, func(c *transport.Conn) {})
	c := a.EP.Dial(2, 5000)
	c.SetInfiniteSource(true)
	e.RunUntil(20 * sim.Millisecond)
	if c.MarkedAcks.Total() == 0 {
		t.Fatal("no ECE feedback despite CE-marking hook")
	}
}

func TestMAppLifecycle(t *testing.T) {
	e, a, _ := loopback(t, false)
	if a.MApp() != nil {
		t.Fatal("MApp should be nil before start")
	}
	a.MarkWindow()
	ma := a.StartMApp(1)
	e.RunUntil(1 * sim.Millisecond)
	if ma.Cores() != 8 {
		t.Fatalf("1x MApp cores = %d, want 8", ma.Cores())
	}
	if a.MC.RateOf(mem.ClassMApp).GBps() < 5 {
		t.Fatalf("MApp bandwidth %.1f too low", a.MC.RateOf(mem.ClassMApp).GBps())
	}
	defer func() {
		if recover() == nil {
			t.Error("second StartMApp did not panic")
		}
	}()
	a.StartMApp(1)
}

func TestDDIOLowersIIOResidency(t *testing.T) {
	// Average IIO residency per line = ΔROCC/ΔRINS IIO clock ticks. The
	// LLC write path is faster than DRAM, so residency must drop with
	// DDIO enabled (the reason idle occupancy is ~45 vs ~65, §5.2).
	run := func(ddio bool) float64 {
		e, a, b := loopback(t, ddio)
		b.EP.Listen(5000, func(c *transport.Conn) {})
		c := a.EP.Dial(2, 5000)
		c.SetInfiniteSource(true)
		e.RunUntil(5 * sim.Millisecond)
		r1, i1 := b.IIO.ROCC(), b.IIO.RINS()
		e.RunUntil(8 * sim.Millisecond)
		return float64(b.IIO.ROCC()-r1) / float64(b.IIO.RINS()-i1)
	}
	off, on := run(false), run(true)
	if on >= off {
		t.Fatalf("DDIO residency %.2f ticks/line should be below DDIO-off %.2f", on, off)
	}
}

func TestDynamicPollutionTracksMApp(t *testing.T) {
	e, _, b := loopback(t, true)
	// Idle: pollution near base.
	base := b.Cfg.Cache.PollutionProb
	id, evs := b.DDIO.Insert(64)
	_ = id
	_ = evs
	b.StartMApp(3)
	e.RunUntil(2 * sim.Millisecond)
	// With a 3x MApp running, the pollution function must be well above
	// base; sample it via repeated insertions.
	evicted := 0
	for i := 0; i < 200; i++ {
		_, evs := b.DDIO.Insert(64)
		if len(evs) > 0 {
			evicted++
		}
	}
	frac := float64(evicted) / 200
	if frac < base+0.2 {
		t.Fatalf("pollution fraction %.2f under 3x MApp; want well above base %.2f", frac, base)
	}
}
