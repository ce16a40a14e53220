package testbed

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestTracerCoversReceiveHook: the tracer is the run's only per-packet
// record, so it must hold a cpu-rx span for every packet a receive hook
// sees after hostCC's, and a nic-queue span for every DMA the NIC starts,
// with and without host congestion, and with retransmitted copies in
// the datapath beside their originals.
func TestTracerCoversReceiveHook(t *testing.T) {
	rows := []struct {
		name    string
		hostCC  bool
		degree  float64
		minRTO  sim.Time
		measure sim.Time
		retx    bool // the row must retransmit
	}{
		{"degree-0", true, 0, 5 * sim.Millisecond, 4 * sim.Millisecond, false},
		{"degree-3", true, 3, 5 * sim.Millisecond, 4 * sim.Millisecond, false},
		{"retransmits", false, 3, sim.Millisecond, 8 * sim.Millisecond, true},
	}
	for _, row := range rows {
		t.Run(row.name, func(t *testing.T) {
			opts := DefaultConfig()
			opts.Telemetry = true
			opts.HostCC = row.hostCC
			opts.Degree = row.degree
			opts.Warmup = 2 * sim.Millisecond
			opts.Measure = row.measure
			opts.MinRTO = row.minRTO
			tb := New(opts)
			defer tb.Close()
			var hooked int64
			tb.Receiver.AddReceiveHook(func(*packet.Packet) { hooked++ })
			tb.StartNetAppT()
			m := tb.RunWindow()

			// Packet spans key on the live packet, so a retransmitted copy
			// that meets its original in a hop keeps a span of its own. A
			// capped tracer keeps only some spans, which would break the
			// counts below.
			tl := tb.Tr.Timeline()
			if tl.Dropped != 0 {
				t.Fatalf("%d spans dropped: counts not comparable", tl.Dropped)
			}
			if row.retx && m.NetRetx == 0 {
				t.Fatal("no retransmits: the row does not exercise retransmitted copies")
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
