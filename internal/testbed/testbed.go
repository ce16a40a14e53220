// Package testbed wires hosts, fabric, applications and hostCC into the
// paper's experimental setups and provides one runner per evaluation
// figure. Every figure in §2 and §5 has a corresponding Run function
// returning typed rows; the bench harness at the repository root and
// cmd/hostcc-bench both print them.
package testbed

import (
	"fmt"
	"math"

	"repro/internal/apps"
	"repro/internal/core"
	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/fluid"
	"repro/internal/host"
	"repro/internal/iommu"
	"repro/internal/msr"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/transport"
)

// Config selects one experimental configuration.
//
// Naming convention (repo-wide): the parameter struct a package's New
// function takes is named Config, built by DefaultConfig, and checked by
// Validate.
type Config struct {
	Seed    int64
	MTU     int
	DDIO    bool
	Flows   int     // NetApp-T flows
	Senders int     // sending hosts (2 for incast)
	Degree  float64 // degree of host congestion (MApp units at receivers), at most MaxDegree

	// Topology selects the fabric shape (zero value = the paper's
	// single-switch star). Leaf–spine and dumbbell fabrics add trunk
	// links with their own queues and ECN marking; hosts are placed
	// round-robin across racks (dumbbell: receivers right, senders left).
	Topology fabric.Topology

	// Receivers is the number of receiving hosts (0 = 1). Every receiver
	// runs hostCC (ModeOff when disabled) and the MApp at Degree;
	// NetApp-T flows fan in round-robin across receivers.
	Receivers int

	// Shards, when > 1, partitions the simulation across that many
	// parallel engine shards (one goroutine each): each switch and the
	// hosts behind it run on the shard of their rack, and inter-switch
	// trunks become conservative-lookahead boundaries whose propagation
	// delay bounds the synchronization window. Requires a multi-switch
	// Topology (the star has no trunks to cut) and is incompatible with
	// Telemetry (the tracer is a single shared timeline). 0 or 1 runs the
	// classic single-engine testbed, byte-identical to before.
	Shards int

	// FaultTrunks aims link-flap faults at the inter-switch trunk links
	// instead of the host access links (requires a multi-switch
	// Topology).
	FaultTrunks bool

	// LinkRate overrides every fabric link's rate and each NIC's line
	// rate together (0 keeps the paper's 100 Gbps).
	LinkRate sim.Rate

	// Lossless converts the fabric and NICs to PFC lossless operation:
	// switch ingresses pause their upstream instead of dropping, NIC rx
	// buffers pause the leaf instead of overflowing, and the default
	// transport CC becomes DCQCN (rate control driven by CNPs the
	// receiver NIC generates from ECN marks). Off by default — every
	// pre-existing experiment runs the lossy fabric unchanged.
	Lossless bool
	// PauseWatchdog arms the PFC watchdog: any pause asserted longer
	// than this is force-released (0 disables — a lost XON then wedges
	// the port until the peer re-pauses and re-releases, the storm
	// failure mode). Only meaningful with Lossless.
	PauseWatchdog sim.Time
	// StormTrunks lists trunk indices (into Fabric.TrunkPorts) whose
	// transmit ports a pause-storm fault forces paused for its window.
	// Requires Lossless and a multi-switch Topology.
	StormTrunks []int

	// Telemetry enables the event tracer: per-hop packet spans and
	// counter tracks, collected into a telemetry.Timeline. Instrument
	// registration is always on (it costs nothing per event); the tracer
	// is opt-in because it records per-packet state.
	Telemetry bool

	// FluidBackground, when non-nil, adds the hybrid fluid/packet tier: a
	// background flow population advanced as rate ODEs on coarse ticks,
	// coupled to the packet fabric through conservation seams (see
	// fluid.go). nil runs the pure packet testbed, byte-identical to
	// before.
	FluidBackground *FluidBackground

	// CC is the network congestion control (nil = DCTCP).
	CC transport.CCFactory

	// HostCC enables the hostCC module; Mode refines it for ablations.
	HostCC bool
	Mode   core.Mode
	IT     float64  // 0 = paper default (70 / 50 with DDIO)
	BT     sim.Rate // 0 = paper default (80 Gbps)

	// FixedLevel, when >= 0, disables the dynamic response and hard-codes
	// the MBA level (the Figure 9 calibration experiment).
	FixedLevel int

	// MinRTO overrides the transport's minimum RTO (0 keeps the Linux
	// default of 200 ms). Throughput experiments lower it so the startup
	// transient settles within an affordable warmup.
	MinRTO sim.Time

	// Ablation overrides (0 keeps the paper defaults): the I_S EWMA
	// weight (§4.1), the signal sampling interval, and the MBA MSR write
	// latency (§6 discusses the 22 µs hardware limitation).
	SignalWeightIS  float64
	SampleInterval  sim.Time
	MBAWriteLatency sim.Time

	// WireLossProb injects independent random packet loss on every
	// fabric link (failure injection; 0 for the paper's lossless links).
	WireLossProb float64

	// Faults, when non-nil, arms a fault-injection plan against the
	// receiver's hardware seams (internal/faults). The plan's events run
	// on the testbed engine, so the whole chaotic run is reproducible
	// from Seed.
	Faults *faults.Plan

	// Watchdog enables hostCC's failsafe with the given config (nil
	// disables it, the pre-hardening behavior).
	Watchdog *core.WatchdogConfig

	// Invariants runs the datapath invariant checker during the run;
	// violations panic (a chaotic run that broke conservation laws has
	// no valid results).
	Invariants bool

	Warmup  sim.Time
	Measure sim.Time

	// iommu, when set, enables DMA translation at the receiver (used by
	// the IOMMU study; see iommu_study.go).
	iommu *iommu.Config
	// mba, when set, replaces the receiver's MBA mechanism (used by the
	// future-hardware study; see futuremba_study.go).
	mba *cpu.MBAConfig
}

// trunkCount returns how many directed trunks (Fabric.TrunkPorts entries)
// Build will create for the topology.
func trunkCount(t fabric.Topology) int {
	switch t.Kind {
	case fabric.TopoLeafSpine:
		return 2 * t.Racks() * (t.Switches() - t.Racks())
	case fabric.TopoDumbbell:
		return 2
	}
	return 0
}

// Validate reports the first invalid parameter. Zero values are not
// errors — withDefaults fills them — so this catches only parameters no
// default can repair.
func (o Config) Validate() error {
	if o.MTU < 0 {
		return fmt.Errorf("testbed: negative MTU %d", o.MTU)
	}
	if o.MTU != 0 && o.MTU <= packet.HeaderLen {
		return fmt.Errorf("testbed: MTU %d does not exceed the %d-byte headers", o.MTU, packet.HeaderLen)
	}
	if o.Flows < 0 {
		return fmt.Errorf("testbed: negative Flows %d", o.Flows)
	}
	if o.Senders < 0 {
		return fmt.Errorf("testbed: negative Senders %d", o.Senders)
	}
	if o.Receivers < 0 {
		return fmt.Errorf("testbed: negative Receivers %d", o.Receivers)
	}
	d := o.withDefaults()
	if n := d.Receivers + d.Senders; n > math.MaxUint16 {
		return fmt.Errorf("testbed: %d hosts exceed the %d host IDs", n, math.MaxUint16)
	}
	if err := o.Topology.Validate(); err != nil {
		return err
	}
	if o.FaultTrunks && o.Topology.Switches() < 2 {
		return fmt.Errorf("testbed: FaultTrunks requires a multi-switch Topology")
	}
	if !(o.Degree >= 0 && o.Degree <= MaxDegree) {
		return fmt.Errorf("testbed: Degree %v outside [0,%d]", o.Degree, MaxDegree)
	}
	if !(o.LinkRate >= 0) || math.IsInf(float64(o.LinkRate), 1) {
		return fmt.Errorf("testbed: LinkRate %v is not a finite non-negative rate", o.LinkRate)
	}
	if !(o.WireLossProb >= 0 && o.WireLossProb <= 1) { // NaN fails both
		return fmt.Errorf("testbed: WireLossProb %v outside [0,1]", o.WireLossProb)
	}
	if o.PauseWatchdog < 0 {
		return fmt.Errorf("testbed: negative PauseWatchdog %v", o.PauseWatchdog)
	}
	if len(o.StormTrunks) > 0 {
		if !o.Lossless {
			return fmt.Errorf("testbed: StormTrunks requires Lossless")
		}
		n := trunkCount(o.Topology)
		if n == 0 {
			return fmt.Errorf("testbed: StormTrunks requires a multi-switch Topology")
		}
		for _, ti := range o.StormTrunks {
			if ti < 0 || ti >= n {
				return fmt.Errorf("testbed: StormTrunks index %d outside [0,%d)", ti, n)
			}
		}
	}
	if o.Shards < 0 || o.Shards > MaxShards {
		return fmt.Errorf("testbed: Shards %d outside [0,%d]", o.Shards, MaxShards)
	}
	if o.Shards > 1 {
		if o.Topology.Switches() < 2 {
			return fmt.Errorf("testbed: Shards %d requires a multi-switch Topology (the star has no trunk boundaries)", o.Shards)
		}
		if o.Telemetry {
			return fmt.Errorf("testbed: Telemetry is a single shared timeline and cannot run sharded")
		}
	}
	if o.Warmup < 0 || o.Measure < 0 {
		return fmt.Errorf("testbed: negative window (warmup %v, measure %v)", o.Warmup, o.Measure)
	}
	if d.Warmup > math.MaxInt64-d.Measure {
		return fmt.Errorf("testbed: warmup %v + measure %v overflows the clock", d.Warmup, d.Measure)
	}
	if o.SampleInterval > math.MaxInt64-d.Warmup-d.Measure {
		return fmt.Errorf("testbed: SampleInterval %v past warmup %v + measure %v overflows the clock", o.SampleInterval, d.Warmup, d.Measure)
	}
	if o.MBAWriteLatency < 0 || o.MBAWriteLatency > math.MaxInt64-d.Warmup-d.Measure {
		return fmt.Errorf("testbed: MBAWriteLatency %v is negative or overflows the clock past warmup %v + measure %v", o.MBAWriteLatency, d.Warmup, d.Measure)
	}
	if o.MinRTO < 0 {
		return fmt.Errorf("testbed: negative MinRTO %v", o.MinRTO)
	}
	if err := d.transportConfig().Validate(); err != nil {
		return err
	}
	if err := d.hostCCConfig().Validate(); err != nil {
		return err
	}
	if o.Mode < core.ModeFull || o.Mode > core.ModeOff {
		return fmt.Errorf("testbed: unknown hostCC mode %d", o.Mode)
	}
	if o.FixedLevel < -1 {
		return fmt.Errorf("testbed: FixedLevel %d below -1 (use -1 for dynamic)", o.FixedLevel)
	}
	levels := cpu.DefaultMBAConfig().Levels
	if o.mba != nil {
		levels = o.mba.Levels
	}
	if o.FixedLevel >= len(levels) {
		return fmt.Errorf("testbed: FixedLevel %d outside the receiver MBA's %d levels", o.FixedLevel, len(levels))
	}
	if o.Faults != nil {
		if err := o.Faults.Validate(); err != nil {
			return err
		}
	}
	if o.Watchdog != nil {
		if err := o.Watchdog.Validate(); err != nil {
			return err
		}
	}
	if o.FluidBackground != nil {
		if err := o.FluidBackground.validate(o.MTU); err != nil {
			return err
		}
	}
	return nil
}

// MaxDegree bounds Config.Degree: 8 MApp cores per unit, so 512 cores at
// each receiver, far past the paper's 3x (24 cores). Each core keeps a
// memory request in flight, so a degree of 1e7 exhausts memory before
// the run starts.
const MaxDegree = 64

// MaxShards bounds Config.Shards, far above any shard count in use (the
// chaos and CI runs use at most 4). New gives every shard an engine and
// its queues before any event runs, about 56 KB each on the default
// leaf–spine, so a shard count of a million would ask for some 50 GB.
const MaxShards = 64

// DefaultConfig returns the baseline single-sender setup.
func DefaultConfig() Config {
	return Config{
		Seed:       42,
		MTU:        4096,
		Flows:      4,
		Senders:    1,
		FixedLevel: -1,
		Warmup:     4 * sim.Millisecond,
		Measure:    16 * sim.Millisecond,
	}
}

func (o Config) withDefaults() Config {
	d := DefaultConfig()
	if o.Seed == 0 {
		o.Seed = d.Seed
	}
	if o.MTU == 0 {
		o.MTU = d.MTU
	}
	if o.Flows == 0 {
		o.Flows = d.Flows
	}
	if o.Senders == 0 {
		o.Senders = d.Senders
	}
	if o.Receivers == 0 {
		o.Receivers = 1
	}
	if o.Warmup == 0 {
		o.Warmup = d.Warmup
	}
	if o.Measure == 0 {
		o.Measure = d.Measure
	}
	return o
}

// Testbed is one constructed experiment.
type Testbed struct {
	// E is the simulation engine — shard 0's engine when sharded. Runner
	// code must advance time through RunUntil/RunFor/Now on the Testbed
	// (they dispatch to the shard group when present); reading E directly
	// is safe only at quiesced points, where every shard clock is equal.
	E *sim.Engine
	// Group is the parallel shard group (nil when Opts.Shards <= 1).
	Group *sim.ShardGroup
	Opts  Config
	// Receiver, Sw and HCC are the primary receiver, first switch and
	// primary hostCC instance — the full sets live in Receivers,
	// Fabric.Switches and HCCs (all length 1 in the default star).
	Receiver  *host.Host
	Receivers []*host.Host
	Senders   []*host.Host
	Sw        *fabric.Switch
	Fabric    *fabric.Fabric
	HCC       *core.HostCC
	HCCs      []*core.HostCC
	NetT      *apps.NetAppT

	// Links holds every host access link (receivers first, then senders;
	// up link before down link) — the default LinkFlap fault seam.
	Links []*fabric.Link
	// Trunks holds the inter-switch links (empty in the star) — the
	// LinkFlap seam under Config.FaultTrunks.
	Trunks []*fabric.Link
	// Injector is shard 0's armed fault injector (nil without
	// Config.Faults). Every shard arms the same plan against the seams it
	// owns, and Injectors holds all of them (one in a serial run).
	Injector  *faults.Injector
	Injectors []*faults.Injector
	// Inv is the invariant checker (nil without Config.Invariants).
	Inv *core.InvariantChecker

	// FluidNet is the fluid background tier (nil without
	// Config.FluidBackground); FluidTwins holds the promotable flows'
	// packet twins (nil when Promotable is 0).
	FluidNet   *fluid.Network
	FluidTwins *apps.FluidTwins

	// Reg indexes every instrument of the testbed (always built — a
	// registered instrument is a name plus a read closure, with no
	// per-event cost). Prefixes: receiver, senderN, switch, fabric/linkN.
	Reg *telemetry.Registry
	// Tr is the event tracer (nil unless Config.Telemetry).
	Tr *telemetry.Tracer

	// engines holds every shard's engine (E alone in a serial run).
	engines []*sim.Engine

	// Window bookkeeping for exact signal averages.
	winStart   sim.Time
	winROCC    uint64
	winRINS    uint64
	winMarked  int64
	winSwDrops int64
}

// receiverID is the primary receiver's host ID; with R receivers, the
// receivers hold IDs 1..R and the senders R+1, R+2, ...
const receiverID packet.HostID = 1

// transportConfig returns the transport configuration every host runs:
// the MTU's defaults with the Config's congestion control and MinRTO.
func (o Config) transportConfig() transport.Config {
	tcfg := transport.DefaultConfig(o.MTU)
	if o.CC != nil {
		tcfg.CC = o.CC
	} else if o.Lossless {
		// DCQCN is the congestion control PFC fabrics deploy (RoCEv2):
		// the switches still ECN-mark, the receiver NIC turns CE arrivals
		// into CNPs, and the sender rate-paces on them.
		tcfg.CC = transport.NewDCQCN()
	}
	if o.MinRTO > 0 {
		tcfg.MinRTO = o.MinRTO
		tcfg.InitialRTO = o.MinRTO
	}
	return tcfg
}

// hostCCConfig returns the hostCC configuration every receiver runs: the
// paper defaults with the Config's overrides, where zero keeps the
// default. When hostCC is disabled the module still runs in ModeOff, so
// every experiment measures I_S and B_S identically.
func (o Config) hostCCConfig() core.Config {
	ccfg := core.DefaultConfig(o.DDIO)
	if o.IT != 0 {
		ccfg.IT = o.IT
	}
	if o.BT != 0 {
		ccfg.BT = o.BT
	}
	if o.SignalWeightIS != 0 {
		ccfg.WeightIS = o.SignalWeightIS
	}
	if o.SampleInterval != 0 {
		ccfg.SampleInterval = o.SampleInterval
	}
	ccfg.Mode = core.ModeOff
	if o.HostCC {
		ccfg.Mode = core.ModeFull
		if o.Mode != core.ModeFull {
			ccfg.Mode = o.Mode
		}
	}
	ccfg.Watchdog = o.Watchdog
	return ccfg
}

// eventHeapHint derives the Reserve pre-size from the experiment shape.
// A sim.Timer keeps one wake event queued, so the pending-event
// population of a loaded run is bounded by what can be in flight at
// once: per flow, one event per connection timer on both ends (RTO, TLP,
// delayed ACK, pacing, and the CC's own); per host, the bounded device
// pipeline (NIC, PCIe, IIO, memory, MApp completions); per directed link
// (a host's two access links, every trunk), its packets in flight, each
// holding one serialization-plus-propagation event — a bandwidth-delay
// product of MTU-sized packets, plus as many ACKs; and a constant floor
// for the harness (hostCC sampler, watchdog, chaos recorders, sentinel).
//
// Each shard sizes its own heap, counting only the hosts it owns
// (hostShard maps a global host index to its shard) and the flows with
// an endpoint there. A flow's events split between its two endpoint
// shards but are counted fully on both, and so is every trunk — a
// bounded over-count that keeps the no-regrowth guarantee without
// modeling where each in-flight packet is. On one shard every host and
// flow counts.
//
// The hint is capped at maxEventHeapHint: it is only a pre-size, the
// heap still grows on demand, and an extreme LinkRate's bandwidth-delay
// product would otherwise ask for terabytes.
func eventHeapHint(opts Config, shard int, hostShard func(int) int) int {
	hosts := 0
	for i := 0; i < opts.Receivers+opts.Senders; i++ {
		if hostShard(i) == shard {
			hosts++
		}
	}
	flows := 0
	for f := 0; f < opts.Flows; f++ {
		rx := f % opts.Receivers
		tx := opts.Receivers + f%opts.Senders
		if hostShard(rx) == shard || hostShard(tx) == shard {
			flows++
		}
	}

	link := fabric.DefaultLinkConfig()
	if opts.LinkRate > 0 {
		link.Rate = opts.LinkRate
	}
	bdpPkts := int(min(float64(link.Rate)*link.Delay.Seconds()/float64(opts.MTU), maxEventHeapHint)) + 1
	links := 2*hosts + trunkCount(opts.Topology)

	return min(64+64*hosts+16*flows+links*2*bdpPkts, maxEventHeapHint)
}

const maxEventHeapHint = 1 << 20

// receiverName is the telemetry prefix of receiver i ("receiver" for the
// primary, matching the single-receiver testbed's historical names).
func receiverName(i int) string {
	if i == 0 {
		return "receiver"
	}
	return fmt.Sprintf("receiver%d", i+1)
}

// rackFor places host i (global index, receivers first) in the topology:
// the star keeps everyone on the one switch; the dumbbell puts receivers
// right of the bottleneck (rack 1) and senders left; leaf–spine strides
// receivers and senders round-robin across leaves in opposite
// directions, so a flow's round-robin endpoints (sender i%S → receiver
// i%R) land in different racks and the traffic matrix crosses the spine
// (same-direction striping would pin every flow intra-rack whenever the
// counts share the rack count's parity).
func rackFor(t fabric.Topology, i, receivers int) int {
	switch t.Kind {
	case fabric.TopoLeafSpine:
		if i < receivers {
			return i % t.Racks()
		}
		return t.Racks() - 1 - (i-receivers)%t.Racks()
	case fabric.TopoDumbbell:
		if i < receivers {
			return 1
		}
		return 0
	}
	return 0
}

// newPlacement builds the engine and packet pool of each shard. One
// shard is a plain engine with no shard group, so a serial run keeps the
// classic single-engine event order. More shards partition the run
// across a sim.ShardGroup synchronized by conservative trunk-delay
// lookahead, one pool per shard (a pool is only ever touched by its own
// shard). Either way a sender transport Gets the packets a receiver's rx
// path Puts, so hosts share their shard's pool. Switch i (leaves first,
// then spines) runs on shard i%N: leaves spread across shards exactly as
// rackFor spreads hosts across racks, and spines fill in behind them.
func newPlacement(opts Config) fabric.Placement {
	n := max(opts.Shards, 1)
	p := fabric.Placement{SwitchShard: func(i int) int { return i % n }}
	if n == 1 {
		p.Engines = []*sim.Engine{sim.NewEngine(opts.Seed)}
	} else {
		p.Group = sim.NewShardGroup(opts.Seed, n)
		for i := 0; i < n; i++ {
			p.Engines = append(p.Engines, p.Group.Shard(i))
		}
	}
	for range p.Engines {
		p.Pools = append(p.Pools, packet.NewPool(1024))
	}
	return p
}

// New builds the testbed: hosts, bidirectional links through the
// compiled fabric topology, hostCC on every receiver (in ModeOff when
// disabled, so signals are still measured), and the receiver-side MApps
// at the requested degree. Every component lands on the shard of its
// rack (see newPlacement), so access links never cross shards and only
// inter-switch trunks become shard boundaries. It panics on a config
// Validate rejects.
func New(opts Config) *Testbed {
	opts = opts.withDefaults()
	if err := opts.Validate(); err != nil {
		panic(err)
	}
	pl := newPlacement(opts)
	hostShard := func(i int) int { return pl.SwitchShard(rackFor(opts.Topology, i, opts.Receivers)) }
	tb := &Testbed{E: pl.Engines[0], Group: pl.Group, engines: pl.Engines, Opts: opts, Reg: telemetry.NewRegistry()}
	if opts.Telemetry {
		tb.Tr = telemetry.NewTracer()
	}

	tcfg := opts.transportConfig()
	// Pre-size each event heap so warm-up never pays a regrowth copy.
	for s, e := range pl.Engines {
		e.Reserve(eventHeapHint(opts, s, hostShard))
	}

	mkHost := func(idx int, id packet.HostID) *host.Host {
		sh := hostShard(idx)
		hcfg := host.DefaultConfig(id, opts.MTU, opts.DDIO)
		hcfg.Transport = tcfg
		hcfg.Pool = pl.Pools[sh]
		if opts.LinkRate > 0 {
			hcfg.NIC.LineRate = opts.LinkRate
		}
		if opts.MBAWriteLatency != 0 {
			hcfg.MBA.WriteLatency = opts.MBAWriteLatency
		}
		if opts.Lossless {
			hcfg.NIC.PFC = nic.DefaultPFCConfig(hcfg.NIC.RxBufferBytes)
			hcfg.NIC.PFC.ResumeTimeout = opts.PauseWatchdog
		}
		if id == receiverID && opts.iommu != nil {
			hcfg.IOMMU = *opts.iommu
		}
		if id == receiverID && opts.mba != nil {
			hcfg.MBA = *opts.mba
		}
		return host.New(pl.Engines[sh], hcfg)
	}

	for i := 0; i < opts.Receivers; i++ {
		tb.Receivers = append(tb.Receivers, mkHost(i, receiverID+packet.HostID(i)))
	}
	tb.Receiver = tb.Receivers[0]
	senderBase := receiverID + packet.HostID(opts.Receivers)
	for i := 0; i < opts.Senders; i++ {
		tb.Senders = append(tb.Senders, mkHost(opts.Receivers+i, senderBase+packet.HostID(i)))
	}

	// Fabric: compile the topology. For the star this reproduces the
	// exact pre-topology construction order (switch, then per host: up
	// link, down link, switch port), keeping digests bit-identical.
	lcfg := fabric.DefaultLinkConfig()
	lcfg.LossProb = opts.WireLossProb
	if opts.LinkRate > 0 {
		lcfg.Rate = opts.LinkRate
	}
	hosts := make([]*host.Host, 0, len(tb.Receivers)+len(tb.Senders))
	hosts = append(hosts, tb.Receivers...)
	hosts = append(hosts, tb.Senders...)
	ports := make([]fabric.HostPort, len(hosts))
	for i, h := range hosts {
		ports[i] = fabric.HostPort{
			ID:      h.ID(),
			Rack:    rackFor(opts.Topology, i, opts.Receivers),
			Deliver: h.ReceiveFromWire,
		}
		if opts.Lossless {
			// Leaf XOFF toward this host gates the NIC's transmit path.
			ports[i].Pause = h.NIC.SetTxPaused
		}
	}
	topo := opts.Topology
	if opts.Lossless {
		swcfg := topo.Switch
		if swcfg == (fabric.SwitchConfig{}) {
			swcfg = fabric.DefaultSwitchConfig()
		}
		swcfg.PFC = fabric.DefaultPFCConfig(swcfg.PortBufferBytes)
		swcfg.PFC.ResumeTimeout = opts.PauseWatchdog
		topo.Switch = swcfg
	}
	fb, err := fabric.Build(pl, topo, lcfg, ports, tb.Tr)
	if err != nil {
		panic(err) // Config.Validate rejects invalid topology/shard pairs up front
	}
	tb.Fabric = fb
	tb.Sw = fb.Switches[0]
	tb.Links = fb.Access
	tb.Trunks = fb.Trunks
	for i, h := range hosts {
		h.SetOutput(fb.HostSend(i))
	}
	if opts.Lossless {
		// NIC rx XOFF emits a pause frame toward the leaf's host port.
		for i, h := range hosts {
			h.NIC.SetPauseUpstream(fb.HostPauser(i))
		}
	}

	// hostCC on every receiver.
	ccfg := opts.hostCCConfig()
	for i, r := range tb.Receivers {
		hcc := core.New(pl.Engines[hostShard(i)], r.MSR, r.MBA, ccfg)
		if tb.Tr != nil {
			r.AttachTracer(tb.Tr, receiverName(i))
			hcc.SetTracer(tb.Tr, receiverName(i))
		}
		r.AddReceiveHook(hcc.ReceiveHook())
		hcc.Start()
		tb.HCCs = append(tb.HCCs, hcc)
	}
	tb.HCC = tb.HCCs[0]

	// Host-local traffic at the receivers.
	if opts.Degree > 0 {
		for _, r := range tb.Receivers {
			r.StartMApp(opts.Degree)
		}
	}

	// Hard-coded response level (Figure 9).
	if opts.FixedLevel >= 0 {
		for _, r := range tb.Receivers {
			r.MBA.RequestLevel(opts.FixedLevel)
		}
	}

	// Fault injection against the primary receiver's hardware seams,
	// armed after the MApp (if any) exists. Every shard arms the same plan
	// against the seams it owns (an injector ignores absent seams), so
	// windows open and close at identical virtual times everywhere with
	// zero cross-shard traffic, and event-level rolls draw from the owning
	// shard's RNG. FaultTrunks retargets link flaps at the inter-switch
	// trunks.
	if opts.Faults != nil {
		flapLinks, flapShards := tb.Links, fb.AccessShards
		if opts.FaultTrunks {
			flapLinks, flapShards = tb.Trunks, fb.TrunkShards
		}
		for s, e := range pl.Engines {
			var seams faults.Seams
			if s == hostShard(0) {
				seams.MSR = tb.Receiver.MSR
				seams.MBA = tb.Receiver.MBA
				seams.NIC = tb.Receiver.NIC
				seams.PCIe = tb.Receiver.Link
				seams.MApp = tb.Receiver.MApp()
			}
			for i, l := range flapLinks {
				if flapShards[i] == s {
					seams.Links = append(seams.Links, l)
				}
			}
			if opts.Lossless {
				for i, sw := range fb.Switches {
					if fb.SwitchShards[i] == s {
						seams.Switches = append(seams.Switches, sw)
					}
				}
				for _, ti := range opts.StormTrunks {
					tp := fb.TrunkPorts[ti]
					if fb.SwitchShards[tp.From] == s {
						seams.Pause = append(seams.Pause, func(on bool) {
							tp.Sw.SetPortForcedPause(tp.Port, on)
						})
					}
				}
			}
			in := faults.MustNewInjector(e, *opts.Faults, seams)
			in.Arm()
			tb.Injectors = append(tb.Injectors, in)
		}
		tb.Injector = tb.Injectors[0]
	}

	// Invariant checker: audits packet conservation, PCIe credit
	// accounting, and MBA level bounds every ~sample interval.
	if opts.Invariants {
		nic, link, mba := tb.Receiver.NIC, tb.Receiver.Link, tb.Receiver.MBA
		tb.Inv = core.NewInvariantChecker(pl.Engines[hostShard(0)], ccfg.SampleInterval, core.InvariantProbes{
			NICArrivals:   func() int64 { return nic.Arrivals.Total() },
			NICDrops:      func() int64 { return nic.Drops.Total() },
			NICFaultDrops: func() int64 { return nic.FaultDrops.Total() },
			NICQueued:     nic.RxQueuedPackets,
			NICDMAStarted: func() int64 { return nic.DMAStarted.Total() },
			PCIeCredits: func() (int, int, int) {
				return link.Credits(), link.SequesteredCredits(), link.Config().CreditLines
			},
			MBALevel:  mba.Level,
			MBALevels: mba.NumLevels,
		})
		tb.Inv.Start()
	}

	// Instrument registration, last so every component exists. Order is
	// fixed (registry iteration follows registration order).
	for i, r := range tb.Receivers {
		r.RegisterInstruments(tb.Reg, receiverName(i))
		tb.HCCs[i].RegisterInstruments(tb.Reg, receiverName(i))
	}
	for i, s := range tb.Senders {
		s.RegisterInstruments(tb.Reg, fmt.Sprintf("sender%d", i+1))
	}
	for i, sw := range fb.Switches {
		sw.RegisterInstruments(tb.Reg, fb.SwitchName(i))
	}
	for i, l := range tb.Links {
		l.RegisterInstruments(tb.Reg, fmt.Sprintf("fabric/link%d", i))
	}
	for i, l := range tb.Trunks {
		l.RegisterInstruments(tb.Reg, fmt.Sprintf("fabric/trunk%d", i))
	}
	if opts.Lossless {
		for _, tp := range tb.Fabric.TrunkPorts {
			tp := tp
			tb.Reg.Gauge("fabric/pfc/"+tp.Name+"/paused-ns", "ns",
				"cumulative PFC pause time of this trunk transmit port",
				func() float64 { return float64(tp.Sw.PortPausedFor(tp.Port)) })
			tb.Reg.Gauge("fabric/pfc/"+tp.Name+"/queue-bytes", "bytes",
				"instantaneous queue depth behind this trunk port",
				func() float64 { return float64(tp.Sw.PortQueueBytes(tp.Port)) })
		}
	}

	if opts.FluidBackground != nil {
		tb.buildFluid()
	}

	return tb
}

// StartNetAppT launches the throughput flows, fanned in round-robin
// across every receiver (cross-rack in multi-rack topologies).
func (tb *Testbed) StartNetAppT() *apps.NetAppT {
	if tb.NetT != nil {
		panic("testbed: NetApp-T already started")
	}
	tb.NetT = apps.NewNetAppTAcross(tb.E, tb.Senders, tb.Receivers, tb.Opts.Flows)
	return tb.NetT
}

// StartNetAppL launches the latency app from the first sender.
func (tb *Testbed) StartNetAppL(size, maxCount int, onDone func()) *apps.NetAppL {
	l := apps.NewNetAppL(tb.E, tb.Senders[0], tb.Receiver, size, maxCount, onDone)
	l.Start()
	return l
}

// MarkWindow begins the measurement window.
func (tb *Testbed) MarkWindow() {
	for _, r := range tb.Receivers {
		r.MarkWindow()
	}
	for _, s := range tb.Senders {
		s.MarkWindow()
	}
	if tb.NetT != nil {
		tb.NetT.MarkWindow()
	}
	tb.winStart = tb.E.Now()
	tb.winROCC = tb.Receiver.IIO.ROCC()
	tb.winRINS = tb.Receiver.IIO.RINS()
	tb.winMarked = tb.markedPackets()
	tb.winSwDrops = tb.Fabric.Drops()
}

// markedPackets sums hostCC CE marks across receivers.
func (tb *Testbed) markedPackets() int64 {
	var n int64
	for _, h := range tb.HCCs {
		n += h.MarkedPackets.Total()
	}
	return n
}

// Metrics summarizes one measurement window.
type Metrics struct {
	ThroughputGbps float64 // NetApp-T goodput
	DropRatePct    float64 // receiver NIC drops / arrivals
	SwitchDropPct  float64 // switch drops / NIC arrivals (incast runs)

	MemUtilNet   float64 // network-side memory bandwidth / theoretical
	MemUtilMApp  float64 // MApp memory bandwidth / theoretical
	MemUtilTotal float64

	MAppGBps     float64 // MApp memory bandwidth
	MAppTputGbps float64 // MApp application throughput (1.33 B/B, §4.2)

	AvgIS     float64 // window-average IIO occupancy (lines)
	AvgBSGbps float64 // window-average PCIe bandwidth

	MarkedPct    float64 // packets CE-marked by hostCC / NIC arrivals
	ResponseLvl  int     // MBA level at window end
	NetTimeouts  int64   // RTOs across NetApp-T flows
	NetRetx      int64   // retransmissions across NetApp-T flows
	WindowMicros float64
}

// Collect computes metrics for the window opened by MarkWindow.
func (tb *Testbed) Collect() Metrics {
	now := tb.E.Now()
	dt := now - tb.winStart
	m := Metrics{WindowMicros: dt.Micros()}
	if tb.NetT != nil {
		m.ThroughputGbps = tb.NetT.Throughput().Gbps()
		m.NetRetx = tb.NetT.Retransmits()
		for _, c := range tb.NetT.Conns() {
			m.NetTimeouts += c.Timeouts.Total()
		}
	}
	m.DropRatePct = tb.Receiver.NIC.WindowDropRate() * 100

	arrivals := tb.Receiver.NIC.Arrivals.SinceMark()
	if arrivals > 0 {
		m.SwitchDropPct = float64(tb.Fabric.Drops()-tb.winSwDrops) / float64(arrivals) * 100
		m.MarkedPct = float64(tb.markedPackets()-tb.winMarked) / float64(arrivals) * 100
	}

	mc := tb.Receiver.MC
	m.MemUtilNet = mc.UtilizationOf(memClassIIO) + mc.UtilizationOf(memClassEvict) + mc.UtilizationOf(memClassNetCopy)
	m.MemUtilMApp = mc.UtilizationOf(memClassMApp)
	m.MemUtilTotal = mc.TotalUtilization()
	m.MAppGBps = mc.RateOf(memClassMApp).GBps()
	m.MAppTputGbps = m.MAppGBps * 8 / 1.33

	if dt > 0 {
		m.AvgIS = float64(tb.Receiver.IIO.ROCC()-tb.winROCC) / (dt.Seconds() * msr.FIIOHz)
		m.AvgBSGbps = float64(tb.Receiver.IIO.RINS()-tb.winRINS) * 64 * 8 / dt.Seconds() / 1e9
	}
	m.ResponseLvl = tb.Receiver.MBA.Level()
	return m
}

// RunWindow performs the standard warmup + measurement cycle.
func (tb *Testbed) RunWindow() Metrics {
	tb.RunUntil(tb.Opts.Warmup)
	tb.MarkWindow()
	tb.RunFor(tb.Opts.Measure)
	return tb.Collect()
}

// RunUntil advances simulation time to deadline — through the shard
// group's conservative windows when sharded, directly otherwise.
func (tb *Testbed) RunUntil(deadline sim.Time) {
	if tb.Group != nil {
		tb.Group.RunUntil(deadline)
		return
	}
	tb.E.RunUntil(deadline)
}

// RunFor advances simulation time by d.
func (tb *Testbed) RunFor(d sim.Time) { tb.RunUntil(tb.Now() + d) }

// Now returns the current simulation time (the barrier time when
// sharded; between runs every shard clock equals it).
func (tb *Testbed) Now() sim.Time {
	if tb.Group != nil {
		return tb.Group.Now()
	}
	return tb.E.Now()
}

// Processed returns executed events, summed across shards.
func (tb *Testbed) Processed() uint64 {
	var n uint64
	for _, e := range tb.engines {
		n += e.Processed
	}
	return n
}

// MaxPendingEvents returns the event-queue high-water mark of the worst
// shard (each shard pre-sizes its own heap).
func (tb *Testbed) MaxPendingEvents() int {
	m := 0
	for _, e := range tb.engines {
		m = max(m, e.MaxPending())
	}
	return m
}

// EventHeapCap returns the event heap capacity of the largest shard.
func (tb *Testbed) EventHeapCap() int {
	m := 0
	for _, e := range tb.engines {
		m = max(m, e.HeapCap())
	}
	return m
}

// Every schedules fn at the given period: a plain Ticker on the engine,
// or — when sharded — a coordinator hook running at barriers with every
// shard quiesced, which is what makes digest recorders and sentinels
// safe to read cross-shard state.
func (tb *Testbed) Every(period sim.Time, fn func()) {
	if tb.Group != nil {
		tb.Group.Every(period, fn)
		return
	}
	sim.NewTicker(tb.E, period, fn)
}

// Close releases the shard workers (no-op for single-engine testbeds).
// Runners that build sharded testbeds must call it.
func (tb *Testbed) Close() {
	if tb.Group != nil {
		tb.Group.Close()
	}
}
