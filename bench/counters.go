package main

import (
	"strings"

	"repro/internal/telemetry"
	"repro/internal/testbed"
)

// testbedCounters reads a finished testbed's per-layer counts from its
// public getters and telemetry registry. Every rep builds a fresh
// testbed, so the totals are the rep's deltas.
func testbedCounters(tb *testbed.Testbed) map[string]float64 {
	c := map[string]float64{
		"sim.events":                float64(tb.Processed()),
		"sim.heap_peak":             float64(tb.MaxPendingEvents()),
		"sim.heap_cap":              float64(tb.EventHeapCap()),
		"fabric.switch_drops":       float64(tb.Fabric.Drops()),
		"fabric.switch_marks":       float64(tb.Fabric.Marks()),
		"cpu.rx_processed":          sumInstruments(tb.Reg, "", "/rx/processed"),
		"cpu.mba_writes":            sumInstruments(tb.Reg, "", "/mba/writes"),
		"core.samples":              sumInstruments(tb.Reg, "", "/hostcc/samples"),
		"core.marked":               sumInstruments(tb.Reg, "", "/hostcc/marked"),
		"nic.arrivals":              sumInstruments(tb.Reg, "", "/nic/arrivals"),
		"nic.drops":                 sumInstruments(tb.Reg, "", "/nic/drops"),
		"pcie.tlps":                 sumInstruments(tb.Reg, "", "/pcie/sent"),
		"pcie.credit_stalls":        sumInstruments(tb.Reg, "", "/pcie/credit-stalls"),
		"iio.rins":                  sumInstruments(tb.Reg, "", "/iio/rins"),
		"mem.bytes":                 sumInstruments(tb.Reg, "/mem/bytes/", ""),
		"transport.retransmits":     sumInstruments(tb.Reg, "", "/transport/retransmits"),
		"transport.timeouts":        sumInstruments(tb.Reg, "", "/transport/timeouts"),
		"transport.delivered_bytes": sumInstruments(tb.Reg, "", "/transport/delivered-bytes"),
		"fabric.link_bytes":         sumInstruments(tb.Reg, "fabric/", "/bytes"),
	}
	if g := tb.Group; g != nil {
		c["sim.shard.exchanged"] = float64(g.Exchanged())
		var peak, total uint64
		for i := 0; i < g.Shards(); i++ {
			n := g.Shard(i).Processed
			peak = max(peak, n)
			total += n
		}
		if total > 0 {
			c["sim.shard.imbalance"] = float64(peak) * float64(g.Shards()) / float64(total)
		}
	}
	if n := tb.FluidNet; n != nil {
		c["fluid.flows"] = float64(n.Flows())
		c["fluid.ticks"] = float64(n.Ticks())
		c["fluid.promotions"] = float64(n.Promotions())
	}
	return c
}

// sumInstruments adds up every instrument whose name contains infix (""
// matches all) and ends with suffix.
func sumInstruments(reg *telemetry.Registry, infix, suffix string) float64 {
	var v float64
	reg.Each(func(i *telemetry.Instrument) {
		if strings.Contains(i.Name, infix) && strings.HasSuffix(i.Name, suffix) {
			v += i.Value()
		}
	})
	return v
}
