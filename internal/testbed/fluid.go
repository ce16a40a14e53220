package testbed

import (
	"fmt"

	"repro/internal/apps"
	"repro/internal/fabric"
	"repro/internal/fluid"
	"repro/internal/sim"
)

// FluidBackground configures the hybrid fluid/packet tier: a population
// of long-lived background flows advanced as per-flow rate ODEs on
// coarse ticks instead of per-packet events. The population lives on
// virtual hosts (no host.Host is built for them — that is what makes
// million-flow scale affordable) but shares the real fabric's trunk and
// access capacities through conservation seams, so the packet-level
// foreground sees the congestion the background causes and vice versa.
// The leading Promotable flows additionally get packet-level twin
// connections between the real senders and receivers, promoted to full
// packet fidelity when their path leaves the fluid model's valid regime
// (deep queue, overflow loss, or a fault window) and demoted back once
// it calms.
type FluidBackground struct {
	// Hosts is the virtual background host count, in [2,
	// fluid.MaxFlows], placed round-robin across the topology's racks.
	Hosts int
	// Flows is the background flow count (default 4 × Hosts). Flow j
	// runs virtual host j%Hosts → a deterministically strided peer.
	Flows int
	// Promotable is how many leading flows get packet twins (default 0).
	Promotable int
}

func (f FluidBackground) withDefaults() FluidBackground {
	if f.Flows == 0 {
		f.Flows = 4 * f.Hosts
	}
	return f
}

func (f FluidBackground) validate(mtu int) error {
	f = f.withDefaults()
	if f.Hosts < 2 || f.Hosts > fluid.MaxFlows {
		return fmt.Errorf("testbed: FluidBackground.Hosts %d outside [2, %d]", f.Hosts, fluid.MaxFlows)
	}
	if f.Flows <= 0 || f.Flows > fluid.MaxFlows {
		return fmt.Errorf("testbed: FluidBackground.Flows %d outside [1, %d]", f.Flows, fluid.MaxFlows)
	}
	if f.Promotable < 0 || f.Promotable > f.Flows {
		return fmt.Errorf("testbed: FluidBackground.Promotable %d outside [0, Flows=%d]", f.Promotable, f.Flows)
	}
	return fluidConfig(mtu).Validate()
}

// fluidConfig is the fluid tier's config: the fluid package's defaults
// for tick, RTT, scheme and initial rate, with the testbed MTU as the
// AIMD MSS.
func fluidConfig(mtu int) fluid.Config { return fluid.Config{MSS: mtu} }

// buildFluid wires the fluid tier into a fully built testbed: seam
// resources over every real access link and trunk port, virtual
// resources for the background hosts, the flow population, promote/
// demote hooks into the packet twins, fault-window coupling, and the
// tick (through Every: a Ticker on the serial engine; a coordinator hook
// — so ticks run with every shard quiesced — when sharded). Construction
// order is fixed, which makes resource and flow indices, and therefore
// the fluid snapshot layout, identical run over run.
func (tb *Testbed) buildFluid() {
	opts := tb.Opts
	fbCfg := opts.FluidBackground.withDefaults()
	net := fluid.New(fluidConfig(opts.MTU))
	topo := opts.Topology
	racks := topo.Racks()
	spines := topo.Switches() - racks

	swcfg := topo.Switch
	if swcfg == (fabric.SwitchConfig{}) {
		swcfg = fabric.DefaultSwitchConfig()
	}
	buf, ecn := swcfg.PortBufferBytes, swcfg.ECNThresholdBytes
	lrate := fabric.DefaultLinkConfig().Rate
	if opts.LinkRate > 0 {
		lrate = opts.LinkRate
	}

	// Seam resources: real host access paths (host index order —
	// receivers then senders; up before down), then trunk ports.
	nHosts := len(tb.Receivers) + len(tb.Senders)
	upRes := make([]fluid.ResourceID, nHosts)
	downRes := make([]fluid.ResourceID, nHosts)
	for i := 0; i < nHosts; i++ {
		up, down := tb.Fabric.HostFluidTaps(i)
		upRes[i] = net.AddResource(lrate, buf, ecn)
		net.BindSeam(upRes[i], up)
		downRes[i] = net.AddResource(lrate, buf, ecn)
		net.BindSeam(downRes[i], down)
	}
	trunkRes := make([]fluid.ResourceID, len(tb.Fabric.TrunkPorts))
	for i, tp := range tb.Fabric.TrunkPorts {
		trunkRes[i] = net.AddResource(lrate, buf, ecn)
		net.BindSeam(trunkRes[i], tp.Sw.FluidTap(tp.Port))
	}

	// Virtual background hosts: capacity-only resources, no seam.
	vUp := make([]fluid.ResourceID, fbCfg.Hosts)
	vDown := make([]fluid.ResourceID, fbCfg.Hosts)
	for v := 0; v < fbCfg.Hosts; v++ {
		vUp[v] = net.AddResource(lrate, buf, ecn)
		vDown[v] = net.AddResource(lrate, buf, ecn)
	}

	// flowPath fills path with the source's up hop, the trunk hops from
	// rack a to rack b, and the destination's down hop, and returns it.
	// The trunk hops mirror the fabric's static routing between racks:
	// the leaf–spine picks its spine by destination (the fabric's ECMP
	// rule), the dumbbell has one pair.
	flowPath := func(path *[4]fluid.ResourceID, up fluid.ResourceID, a, b, dst int, down fluid.ResourceID) []fluid.ResourceID {
		p := append(path[:0], up)
		if a != b && len(trunkRes) > 0 {
			switch topo.Kind {
			case fabric.TopoLeafSpine:
				sp := dst % spines
				p = append(p, trunkRes[2*(a*spines+sp)], trunkRes[2*(b*spines+sp)+1])
			case fabric.TopoDumbbell:
				t := trunkRes[1]
				if a == 0 {
					t = trunkRes[0]
				}
				p = append(p, t)
			}
		}
		return append(p, down)
	}
	net.Grow(fbCfg.Flows)
	var path [4]fluid.ResourceID

	// Promotable flows first (flow index == twin index), between real
	// sender/receiver pairs over the real seams.
	if fbCfg.Promotable > 0 {
		tb.FluidTwins = apps.NewFluidTwins(tb.Senders, tb.Receivers, fbCfg.Promotable,
			net.Config().RTT, tb.Now)
		for j := 0; j < fbCfg.Promotable; j++ {
			si := len(tb.Receivers) + j%len(tb.Senders)
			ri := j % len(tb.Receivers)
			idx := net.AddFlow(flowPath(&path, upRes[si],
				rackFor(topo, si, opts.Receivers), rackFor(topo, ri, opts.Receivers),
				int(tb.Receivers[ri].ID()), downRes[ri])...)
			net.SetPromotable(idx, true)
		}
		net.SetPromoteHooks(
			func(i int, rate sim.Rate) { tb.FluidTwins.Promote(i, rate) },
			func(i int) sim.Rate { return tb.FluidTwins.Demote(i) },
		)
	}

	// Virtual background flows: source strides the hosts, destination
	// strides a coprime-ish offset so the matrix mixes intra- and
	// cross-rack paths deterministically.
	for j := fbCfg.Promotable; j < fbCfg.Flows; j++ {
		src := j % fbCfg.Hosts
		dst := (src + 1 + (j/fbCfg.Hosts)%(fbCfg.Hosts-1)) % fbCfg.Hosts
		net.AddFlow(flowPath(&path, vUp[src], src%racks, dst%racks, dst, vDown[dst])...)
	}

	// The fault poll runs before the integrator each tick so a flapped
	// trunk or access link reads as a faulted resource — flows entering a
	// fault window promote — within one tick.
	trunkLinks := tb.Fabric.Trunks
	accessLinks := tb.Links
	tb.Every(net.Config().Tick, func() {
		for i, r := range trunkRes {
			net.SetFault(r, trunkLinks[i].IsDown())
		}
		for i := 0; i < nHosts; i++ {
			net.SetFault(upRes[i], accessLinks[2*i].IsDown())
			net.SetFault(downRes[i], accessLinks[2*i+1].IsDown())
		}
		net.Tick(tb.Now())
	})
	tb.FluidNet = net

	// Instruments, registered after every other so that the registry's
	// order is the same with and without a fluid tier up to here. They
	// read the network's getters; the tick path pays nothing for them.
	tb.Reg.Gauge("fluid/flows", "flows", "fluid background flows",
		func() float64 { return float64(net.Flows()) })
	tb.Reg.Counter("fluid/ticks", "ticks", "fluid integration steps run",
		func() float64 { return float64(net.Ticks()) })
	tb.Reg.Counter("fluid/promotions", "flows", "fluid flows promoted to packet level",
		func() float64 { return float64(net.Promotions()) })
	tb.Reg.Counter("fluid/demotions", "flows", "promoted flows demoted back to fluid",
		func() float64 { return float64(net.Demotions()) })
	tb.Reg.Gauge("fluid/promoted", "flows", "flows at packet level now (promotions - demotions)",
		func() float64 { return float64(net.Promotions() - net.Demotions()) })
	tb.Reg.Counter("fluid/delivered-bytes", "bytes", "aggregate fluid goodput integrated so far",
		net.DeliveredBytes)
}
