package host

import (
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/transport"
)

// TestSenderSideGuardPreventsTxStarvation exercises the sender half of
// §3.2: host-local traffic on the SENDER can starve transmit DMA reads;
// the sender-side response detects the starved transmit path and
// backpressures the local MApp until the target rate is restored.
func TestSenderSideGuardPreventsTxStarvation(t *testing.T) {
	run := func(withGuard bool) float64 {
		e := sim.NewEngine(1)
		scfg := DefaultConfig(1, 4096, false)
		scfg.NIC.TxBlockingReads = true // transmit waits for memory reads
		sender := New(e, scfg)
		receiver := New(e, DefaultConfig(2, 4096, false))
		sender.SetOutput(wire(e, receiver))
		receiver.SetOutput(wire(e, sender))

		// Heavy host-local traffic on the sender.
		sender.StartMApp(3)

		if withGuard {
			gcfg := core.DefaultSenderGuardConfig()
			gcfg.BT = sim.Gbps(60)
			core.NewSenderGuard(e, sender.MBA, gcfg,
				func() int64 { return sender.NIC.TxSent.Total() * 4096 },
				sender.NIC.TxQueuedBytes)
		}

		var got int64
		receiver.EP.Listen(5000, func(c *transport.Conn) {
			c.OnData(func(n int) { got += int64(n) })
		})
		for i := 0; i < 4; i++ {
			c := sender.EP.DialFrom(uint16(100+i), 2, 5000)
			c.SetInfiniteSource(true)
		}
		e.RunUntil(5 * sim.Millisecond)
		start := got
		t0 := e.Now()
		e.RunUntil(15 * sim.Millisecond)
		return float64(got-start) * 8 / (e.Now() - t0).Seconds() / 1e9
	}

	without, with := run(false), run(true)
	if with <= without*1.1 {
		t.Fatalf("sender guard gave %.1f Gbps vs %.1f without; no starvation relief", with, without)
	}
	t.Logf("sender-side: %.1f Gbps without guard, %.1f with", without, with)
}
