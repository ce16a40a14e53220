package testbed

import (
	"fmt"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTracerCoversReceiveHook: the tracer is the run's only per-packet
// record, so it must hold a cpu-rx span for every packet a receive hook
// sees after hostCC's, and a nic-queue span for every DMA the NIC starts,
// with and without host congestion.
func TestTracerCoversReceiveHook(t *testing.T) {
	for _, degree := range []float64{0, 3} {
		t.Run(fmt.Sprintf("degree-%g", degree), func(t *testing.T) {
			opts := DefaultConfig()
			opts.Telemetry = true
			opts.HostCC = true
			opts.Degree = degree
			opts.Warmup = 2 * sim.Millisecond
			opts.Measure = 4 * sim.Millisecond
			opts.MinRTO = 5 * sim.Millisecond
			tb := New(opts)
			defer tb.Close()
			var hooked int64
			tb.Receiver.AddReceiveHook(func(*packet.Packet) { hooked++ })
			tb.StartNetAppT()
			m := tb.RunWindow()

			// Span keys are (hop, flow, seq): a retransmitted segment
			// would share its original's key, and a capped tracer keeps
			// only some spans, so either would break the counts below.
			tl := tb.Tr.Timeline()
			if m.NetRetx != 0 || tl.Dropped != 0 {
				t.Fatalf("retransmits %d, spans dropped %d: counts not comparable", m.NetRetx, tl.Dropped)
			}
			spans := map[telemetry.Hop]int64{}
			for _, s := range tl.Spans {
				if s.Pkt {
					spans[s.Hop]++
				}
			}
			counter := func(name string) int64 {
				inst, ok := tb.Reg.Get(name)
				if !ok {
					t.Fatalf("no instrument %s", name)
				}
				return int64(inst.Value())
			}
			if hooked == 0 {
				t.Fatal("the receive hook saw no packet")
			}
			if cpu, processed := spans[telemetry.HopCPU], counter("receiver/rx/processed"); cpu != hooked || processed != hooked {
				t.Errorf("cpu-rx spans %d, rx/processed %d, hook saw %d", cpu, processed, hooked)
			}
			if nic, dma := spans[telemetry.HopNICQueue], counter("receiver/nic/dma-started"); nic != dma {
				t.Errorf("nic-queue spans %d, nic/dma-started %d", nic, dma)
			}
		})
	}
}
