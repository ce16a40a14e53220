// Package fluid is the coarse tier of the hybrid fluid/packet
// simulation: long-lived background flows advance as per-flow rate ODEs
// integrated on coarse ticks, while foreground flows stay packet-level.
// Each fluid resource is one serializing capacity (a host access link,
// a trunk port); each flow is a rate + a DCTCP α traversing a short
// path of resources. Per tick the network integrates each resource's
// shared queue against its demand and the capacity left by the packet
// tier and marks above the ECN threshold; then one pass over the flows
// reads each path's outcome, advances every flow's rate by its
// congestion-control twin once per model RTT, and sums the served rate
// and the changes a flow makes to its hops' kept demand. The
// pass runs over fixed chunks of the flow table on the caller and
// helpers from the shared sweep pool, and Snapshot hashes the flow
// table the same way.
//
// Conservation at the seam runs through fabric.FluidTap (the Seam
// interface here): the integrator reads the packet bytes offered to a
// tapped serializer and folds them into demand, and writes back the
// fluid demand and queue share so packets are serialized at the
// residual capacity and ECN-marked on the combined depth.
//
// Everything is deterministic by construction, whatever the number of
// participants: per-flow and per-resource arithmetic is fixed-order
// float64; every sum across flows is an exact integer count of one
// fixed-point rate unit, so no result depends on the order in which
// chunks are summed; and promote/demote hooks run after the pass in flow
// order. A run is reproducible tick for tick, which the snapshot digests
// verify.
package fluid

import (
	"fmt"
	"math"
	"slices"

	"repro/internal/sim"
	"repro/internal/sweep"
	"repro/internal/transport"
)

// Seam couples one fluid resource to a packet-tier serializer.
// *fabric.FluidTap implements it.
type Seam interface {
	// TakePacketBytes returns (and resets) the packet bytes offered to
	// the serializer since the previous tick.
	TakePacketBytes() int64
	// PacketQueueBytes is the serializer's instantaneous packet queue.
	PacketQueueBytes() int
	// SetBackground installs the fluid demand and queue share.
	SetBackground(rate sim.Rate, qBytes int)
}

// Config parameterizes the fluid network.
type Config struct {
	Tick sim.Time // integration step (default 20 µs)
	RTT  sim.Time // model RTT — the AIMD window clock (default 44 µs)
	MSS  int      // additive-increase unit (default 4096)
	// Scheme names the congestion-control twin: "dctcp" (default) or
	// "reno" (transport.FluidSchemeByName).
	Scheme string
	// InitRate seeds each flow's rate (default 100 Mbps).
	InitRate sim.Rate
	// MinRate floors every flow's rate (default 1 Mbps) so a flow can
	// always probe back up after a deep decrease.
	MinRate sim.Rate

	// Promote/demote hysteresis: a promotable flow promotes to packet
	// level after PromoteTicks consecutive ticks with a hot resource on
	// its path, and demotes after DemoteTicks consecutive calm ticks
	// (every path queue below DemoteFrac × the ECN threshold). A
	// resource is hot when it leaves the fluid model's valid regime —
	// combined queue above PromoteQueueFrac × the buffer, overflow
	// loss, or an injected fault — NOT at ordinary ECN marking, which
	// is DCTCP's steady operating point and would flap every flow.
	// Defaults 3 / 50 / 0.25 / 0.5.
	PromoteTicks     int
	DemoteTicks      int
	DemoteFrac       float64
	PromoteQueueFrac float64
}

func (c Config) withDefaults() Config {
	if c.Tick == 0 {
		c.Tick = 20 * sim.Microsecond
	}
	if c.RTT == 0 {
		c.RTT = 44 * sim.Microsecond
	}
	if c.MSS == 0 {
		c.MSS = 4096
	}
	if c.InitRate == 0 {
		c.InitRate = sim.Gbps(0.1)
	}
	if c.MinRate == 0 {
		c.MinRate = sim.Gbps(0.001)
	}
	if c.PromoteTicks == 0 {
		c.PromoteTicks = 3
	}
	if c.DemoteTicks == 0 {
		c.DemoteTicks = 50
	}
	if c.DemoteFrac == 0 {
		c.DemoteFrac = 0.25
	}
	if c.PromoteQueueFrac == 0 {
		c.PromoteQueueFrac = 0.5
	}
	return c
}

// maxCounter is the ceiling of the per-flow uint16 tick counters: the
// RTT window (RTT/Tick ticks) and the promote/demote hysteresis.
const maxCounter = 1<<16 - 1

// windowTicks is the RTT window in ticks, RTT/Tick rounded up (≥ 1
// for a positive RTT and Tick).
func (c Config) windowTicks() int64 {
	wt := int64(c.RTT / c.Tick)
	if c.RTT%c.Tick != 0 {
		wt++
	}
	return wt
}

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	c0 := c.withDefaults()
	if c0.Tick <= 0 || c0.RTT <= 0 {
		return fmt.Errorf("fluid: Tick %v and RTT %v must be positive", c0.Tick, c0.RTT)
	}
	if wt := c0.windowTicks(); wt > maxCounter {
		return fmt.Errorf("fluid: RTT %v spans %d ticks of %v (at most %d)", c0.RTT, wt, c0.Tick, maxCounter)
	}
	if c0.MSS <= 0 {
		return fmt.Errorf("fluid: MSS %d must be positive", c0.MSS)
	}
	if !finitePositive(float64(c0.InitRate)) || !finitePositive(float64(c0.MinRate)) {
		return fmt.Errorf("fluid: InitRate %v and MinRate %v must be positive and finite", c0.InitRate, c0.MinRate)
	}
	if c0.PromoteTicks < 0 || c0.DemoteTicks < 0 {
		return fmt.Errorf("fluid: negative hysteresis (%d promote / %d demote ticks)", c0.PromoteTicks, c0.DemoteTicks)
	}
	if c0.PromoteTicks > maxCounter || c0.DemoteTicks > maxCounter {
		return fmt.Errorf("fluid: hysteresis (%d promote / %d demote ticks) above %d", c0.PromoteTicks, c0.DemoteTicks, maxCounter)
	}
	if c0.DemoteFrac <= 0 || c0.DemoteFrac > 1 {
		return fmt.Errorf("fluid: DemoteFrac %v outside (0,1]", c0.DemoteFrac)
	}
	if c0.PromoteQueueFrac <= 0 || c0.PromoteQueueFrac > 1 {
		return fmt.Errorf("fluid: PromoteQueueFrac %v outside (0,1]", c0.PromoteQueueFrac)
	}
	if _, err := transport.FluidSchemeByName(c0.Scheme, c0.MSS, c0.RTT); err != nil {
		return err
	}
	return nil
}

// finitePositive reports whether x is positive and finite (NaN is not).
func finitePositive(x float64) bool { return x > 0 && x <= math.MaxFloat64 }

// ResourceID indexes one resource of a Network, in AddResource order.
type ResourceID int32

// maxHops bounds a fluid flow's path: up-access, leaf trunk, spine
// trunk, down-access. Inline storage keeps a million-flow population at
// 48 bytes per flow with no per-flow allocation.
const maxHops = 4

// The flow pass sums rates across flows as int64 counts of a fixed-point
// rate unit: 2^-16 of the largest power of two not above MinRate (1 B/s
// at the default 1 Mbps), so a rate converts by an exact power-of-two
// scaling and one truncation. A flow's rate is capped at unitCap units,
// more than 2^21 × MinRate (2.2 Tbps at the default), and a network
// holds at most MaxFlows flows. A resource's demand sums at most maxHops
// contributions per flow, so no sum exceeds
// maxHops × MaxFlows × unitCap = 2^62; kept demand changes by per-flow
// deltas, so every value on the way is such a sum, or a participant's
// difference of two. The served rate takes each contribution times the
// path's served fraction in fracBits fixed point, which stays below
// 2^62 per flow and sums to no more than demand does.
const (
	MaxFlows = 1 << 22
	unitCap  = 1 << 38
	fracBits = 24
)

// The sum bounds above, checked by the compiler: a negative untyped
// constant does not convert to uint64.
const (
	_ uint64 = math.MaxInt64 - maxHops*MaxFlows*unitCap
	_ uint64 = math.MaxInt64 - unitCap<<fracBits
)

// chunkFlows is the flow pass's unit of work: participants claim the
// flow table this many flows at a time.
const chunkFlows = 4096

// resource is one serializing capacity: its configuration and its
// integrated queue. What flows read of it each tick is in Network.view.
type resource struct {
	cap     float64 // bytes/sec
	buf     float64 // buffer bytes (overflow above it is loss)
	ecn     float64 // mark threshold bytes
	seam    Seam    // nil for virtual-host resources
	faulted bool
	q       float64 // fluid queue depth, bytes
}

// view is one resource's outcome of the current tick, the only part of
// it the flow pass reads: 8 bytes, eight to a cache line.
type view struct {
	// frac is the fraction of demand served this tick, truncated to
	// fracBits fixed point (1<<fracBits when all of it is), so a flow
	// takes its path minimum with branch-free integer compares.
	frac uint32
	bits uint8 // vMarked | vLossy | vHot | vNotCalm
}

// view bits. A flow ORs them over its path.
const (
	vMarked  = 1 << iota // combined queue above the ECN threshold
	vLossy               // offered bytes overflowed the buffer this tick
	vHot                 // out of the fluid regime: deep queue, loss, or fault
	vNotCalm             // combined queue at or above DemoteFrac × threshold, or faulted
)

// Flow state bits.
const (
	stPromotable = 1 << iota // has a packet-level twin connection
	stPromoted               // currently running at packet level
)

// Pass events, recorded per chunk as index<<1 | kind: the flow's promote
// or demote hysteresis fired, and its hook runs after the pass.
const evDemote = 1

type flow struct {
	path  [maxHops]ResourceID // hops past npath repeat the last hop
	npath uint8
	state uint8

	winLeft     uint16 // ticks until the current RTT window ends
	markedTicks uint16
	lossTicks   uint16
	congTicks   uint16 // consecutive ticks with a hot path resource
	calmTicks   uint16 // consecutive ticks with an all-calm path

	rate  float64 // bytes/sec
	alpha float64 // DCTCP congestion estimate
}

// Network is one fluid-flow population over a set of resources.
type Network struct {
	cfg         Config
	cc          transport.FluidCC
	res         []resource
	view        []view
	flows       []flow
	windowTicks uint16

	// unit is the fixed-point rate unit in bytes/sec and scale its
	// inverse, both powers of two; maxRate is unitCap units.
	unit, scale, maxRate float64

	// demand[r] is Σ units(rate) over the demoted flows crossing
	// resource r, one term per hop. It is kept, not rebuilt: AddFlow and
	// a demotion add a flow's units, and the flow pass adds the change a
	// window's response makes and takes a promoting flow's units out.
	demand []int64

	ticks      uint64
	promotions uint64
	demotions  uint64
	delivered  float64 // aggregate fluid goodput, bytes

	promote func(i int, rate sim.Rate)
	demote  func(i int) sim.Rate

	// The chunked flow pass and snapshot. workers is the participant
	// count (0 selects one per pool worker) and chunk the flows per chunk
	// of the pass (chunkFlows); no result depends on either, and only
	// tests change them. Snapshot always hashes chunks of chunkFlows.
	workers, chunk int
	batch          sweep.Batch
	pass           func(slot, c int) // passChunk, bound once
	hash           func(slot, c int) // hashChunk, bound once
	parts          []part            // per participant slot
	events         [][]int32         // per chunk, in flow order
	sums           []uint64          // per chunk digest (Snapshot)
}

// part is one participant's scratch. Slot 0 is the caller, which
// changes the network's demand in place; helpers collect theirs here.
type part struct {
	demand  []int64
	served  int64  // Σ rate × served fraction, rate units
	used    bool   // claimed a chunk this tick
	records []byte // one chunk's encoded flow records (Snapshot)
}

// New creates an empty network. Panics on an invalid config (build-time
// misconfiguration, matching fabric's constructors).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	cc, _ := transport.FluidSchemeByName(cfg.Scheme, cfg.MSS, cfg.RTT)
	_, e := math.Frexp(float64(cfg.MinRate)) // 2^(e-1) <= MinRate < 2^e
	n := &Network{cfg: cfg, cc: cc, windowTicks: uint16(cfg.windowTicks()),
		unit: math.Ldexp(1, e-17), scale: math.Ldexp(1, 17-e), maxRate: math.Ldexp(unitCap, e-17),
		chunk: chunkFlows}
	n.pass, n.hash = n.passChunk, n.hashChunk
	return n
}

// units converts a rate in bytes/sec, at most maxRate, to whole rate
// units: an exact power-of-two scaling and one truncation.
func units(rate, scale float64) int64 { return int64(rate * scale) }

// boundRate holds a flow's new rate within [MinRate, maxRate]; NaN reads
// as maxRate.
func (n *Network) boundRate(rate float64) float64 {
	if rate < float64(n.cfg.MinRate) {
		return float64(n.cfg.MinRate)
	}
	if !(rate <= n.maxRate) {
		return n.maxRate
	}
	return rate
}

// Config returns the resolved configuration.
func (n *Network) Config() Config { return n.cfg }

// AddResource adds one serializing capacity. bufBytes bounds the fluid
// queue (overflow is loss); ecnBytes is the mark threshold.
func (n *Network) AddResource(capacity sim.Rate, bufBytes, ecnBytes int) ResourceID {
	if capacity <= 0 || bufBytes <= 0 || ecnBytes <= 0 || ecnBytes >= bufBytes {
		panic(fmt.Sprintf("fluid: resource %d needs positive capacity and 0 < ecn < buf (got %v, %d, %d)",
			len(n.res), capacity, bufBytes, ecnBytes))
	}
	n.res = append(n.res, resource{
		cap: float64(capacity),
		buf: float64(bufBytes),
		ecn: float64(ecnBytes),
	})
	n.view = append(n.view, view{})
	n.demand = append(n.demand, 0)
	return ResourceID(len(n.res) - 1)
}

// BindSeam couples resource r to a packet-tier serializer.
func (n *Network) BindSeam(r ResourceID, s Seam) {
	if s == nil {
		panic("fluid: nil seam")
	}
	n.res[r].seam = s
}

// SetFault marks resource r faulted: every flow crossing it sees a hot
// path (the promote trigger) for the duration. Fault windows are wired
// from the testbed's fault schedule, so entering one promotes the
// promotable flows crossing the faulted trunk.
func (n *Network) SetFault(r ResourceID, on bool) { n.res[r].faulted = on }

// Grow makes room for k more flows, so a population of known size
// takes one allocation instead of the growth of repeated AddFlow calls.
// Like AddFlow it panics past MaxFlows.
func (n *Network) Grow(k int) {
	if k < 0 || k > MaxFlows-len(n.flows) {
		panic(fmt.Sprintf("fluid: %d flows plus %d exceed MaxFlows %d", len(n.flows), k, MaxFlows))
	}
	n.flows = slices.Grow(n.flows, k)
}

// AddFlow adds one background flow over the given resource path and
// returns its index. Flows start demoted at InitRate, which joins the
// next tick's demand on every hop. It panics past MaxFlows flows.
func (n *Network) AddFlow(path ...ResourceID) int {
	if len(n.flows) >= MaxFlows {
		panic(fmt.Sprintf("fluid: flow %d exceeds MaxFlows %d", len(n.flows), MaxFlows))
	}
	if len(path) == 0 || len(path) > maxHops {
		panic(fmt.Sprintf("fluid: flow path of %d hops (want 1..%d)", len(path), maxHops))
	}
	for i, r := range path {
		if int(r) < 0 || int(r) >= len(n.res) {
			panic(fmt.Sprintf("fluid: flow hop %d references unknown resource %d", i, r))
		}
	}
	f := flow{npath: uint8(len(path)), winLeft: n.windowTicks, rate: min(float64(n.cfg.InitRate), n.maxRate)}
	for i := range f.path {
		f.path[i] = path[min(i, len(path)-1)]
	}
	u := units(f.rate, n.scale)
	for _, r := range path {
		n.demand[r] += u
	}
	n.flows = append(n.flows, f)
	return len(n.flows) - 1
}

// SetPromotable marks flow i as having a packet-level twin connection;
// only promotable flows ever promote.
func (n *Network) SetPromotable(i int, on bool) {
	if on {
		n.flows[i].state |= stPromotable
	} else {
		n.flows[i].state &^= stPromotable
	}
}

// SetPromoteHooks installs the promote/demote callbacks: promote hands
// flow i to the packet tier seeded with its fluid rate; demote takes it
// back and returns the rate the packet tier measured. The hooks run on
// Tick's caller after the flow pass, in flow order, and must not call
// back into the network.
func (n *Network) SetPromoteHooks(promote func(i int, rate sim.Rate), demote func(i int) sim.Rate) {
	n.promote = promote
	n.demote = demote
}

// Register adds the network's tick to a coarse clock. The clock's
// period must match cfg.Tick — the integration step is part of the
// model, not a sampling choice.
func (n *Network) Register(c *sim.CoarseClock) {
	if c.Period() != n.cfg.Tick {
		panic(fmt.Sprintf("fluid: coarse clock period %v != configured tick %v", c.Period(), n.cfg.Tick))
	}
	c.Register("fluid", n.Tick)
}

// Tick advances the network by one integration step. Exported for
// direct-drive tests; in a testbed the coarse clock calls it.
//
// One pass over the flows per tick. Demand is kept from the previous
// tick, so only a flow whose rate or state changes touches it. The pass
// runs chunk by chunk on several participants, each summing its served
// rate and its changes to demand into its own integer accumulators,
// which Tick then merges; integer addition is associative, so every
// result is the same at any participant count. Promote and demote hooks
// fire after the merge, in flow order.
func (n *Network) Tick(_ sim.Time) {
	n.ticks++
	dt := n.cfg.Tick.Seconds()
	promoteQ, demoteQ := n.cfg.PromoteQueueFrac, n.cfg.DemoteFrac
	views, demand := n.view, n.demand

	// Queue integration per resource: the packet tier's offered load
	// takes capacity first (its bytes are already on the wire); the
	// fluid queue absorbs the excess demand and drains the slack.
	// Promoted flows send real packets, which the seam's packet-byte
	// counters already account for, so they are not in demand.
	for i := range n.res {
		r := &n.res[i]
		d := float64(float64(demand[i]) * n.unit)
		capLeft := r.cap
		if r.seam != nil {
			capLeft -= float64(r.seam.TakePacketBytes()) / dt
			if capLeft < 0 {
				capLeft = 0
			}
		}
		served, lossFrac := 1.0, 0.0
		if d > capLeft {
			r.q += float64((d - capLeft) * dt)
			if r.q > r.buf {
				lost := r.q - r.buf
				r.q = r.buf
				lossFrac = lost / (d * dt)
			}
			if d > 0 {
				served = capLeft / d
			}
		} else {
			r.q -= float64((capLeft - d) * dt)
			if r.q < 0 {
				r.q = 0
			}
		}
		combined := r.q
		if r.seam != nil {
			combined += float64(r.seam.PacketQueueBytes())
		}
		var bits uint8
		if combined > r.ecn {
			bits |= vMarked
		}
		if lossFrac > 0 {
			bits |= vLossy
		}
		if combined > promoteQ*r.buf || lossFrac > 0 || r.faulted {
			bits |= vHot
		}
		if !(combined < demoteQ*r.ecn) || r.faulted {
			bits |= vNotCalm
		}
		views[i] = view{frac: uint32(served * (1 << fracBits)), bits: bits}
		if r.seam != nil {
			r.seam.SetBackground(sim.Rate(d), int(r.q))
		}
	}

	chunks := (len(n.flows) + n.chunk - 1) / n.chunk
	workers := n.participants(chunks)
	n.preparePass(workers, chunks)
	n.batch.Run(chunks, workers, n.pass)

	var served int64
	for w := range n.parts[:workers] {
		p := &n.parts[w]
		if !p.used {
			continue
		}
		served += p.served
		p.served, p.used = 0, false
		if w > 0 {
			for r := range demand {
				demand[r] += p.demand[r]
				p.demand[r] = 0
			}
		}
	}
	n.delivered += float64(float64(served) * n.unit * dt)

	for c := range n.events[:chunks] {
		for _, ev := range n.events[c] {
			if i := int(ev >> 1); ev&evDemote != 0 {
				n.demoteFlow(i)
			} else {
				n.promotions++
				n.promote(i, sim.Rate(n.flows[i].rate))
			}
		}
		n.events[c] = n.events[c][:0]
	}
}

// participants is how many take part in a loop over chunks chunks:
// n.workers, or one per pool worker, and at most one per chunk.
func (n *Network) participants(chunks int) int {
	workers := n.workers
	if workers <= 0 {
		workers = sweep.Workers()
	}
	return max(min(workers, chunks), 1)
}

// growParts makes room for workers participants' scratch.
func (n *Network) growParts(workers int) {
	if len(n.parts) < workers {
		n.parts = append(n.parts, make([]part, workers-len(n.parts))...)
	}
}

// preparePass sizes the per-participant accumulators and the per-chunk
// event lists; it allocates only when the participants, resources or
// flows have grown.
func (n *Network) preparePass(workers, chunks int) {
	n.growParts(workers)
	n.parts[0].demand = n.demand
	for w := 1; w < workers; w++ {
		if p := &n.parts[w]; len(p.demand) < len(n.res) {
			p.demand = append(p.demand, make([]int64, len(n.res)-len(p.demand))...)
		}
	}
	if len(n.events) < chunks {
		n.events = append(n.events, make([][]int32, chunks-len(n.events))...)
	}
}

// passChunk is one participant's pass over chunk c: flow response, and
// the served rate and changes to demand into the participant's own
// accumulators. A path's unused hops repeat its last hop, so reading all
// maxHops views changes neither the OR of the bits nor the minimum
// served fraction. A flow's served rate is its rate before the window's
// response; its demand changes by the difference the response made, or
// loses the flow's units if it promotes.
func (n *Network) passChunk(slot, c int) {
	p := &n.parts[slot]
	lo := c * n.chunk
	flows := n.flows[lo:min(lo+n.chunk, len(n.flows))]
	views, demand, scale := n.view, p.demand, n.scale
	var served int64
	for j := range flows {
		f := &flows[j]
		v0, v1, v2, v3 := &views[f.path[0]], &views[f.path[1]], &views[f.path[2]], &views[f.path[3]]
		bits := v0.bits | v1.bits | v2.bits | v3.bits
		if f.state&stPromoted != 0 {
			if n.calmToDemote(f, bits) {
				n.events[c] = append(n.events[c], int32(lo+j)<<1|evDemote)
			}
			continue
		}
		u := units(f.rate, scale)
		served += (u * int64(min(v0.frac, v1.frac, v2.frac, v3.frac))) >> fracBits
		f.markedTicks += uint16(bits & vMarked)   // bit 0
		f.lossTicks += uint16(bits & vLossy >> 1) // bit 1
		f.winLeft--
		var du int64 // change to each hop's demand
		if f.winLeft == 0 {
			mf := float64(f.markedTicks) / float64(n.windowTicks)
			lf := float64(f.lossTicks) / float64(n.windowTicks)
			f.rate, f.alpha = n.cc.Advance(f.rate, f.alpha, mf, lf)
			f.rate = n.boundRate(f.rate)
			f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
			du = units(f.rate, scale) - u
		}
		if f.state&stPromotable != 0 && n.hotToPromote(f, bits) {
			n.events[c] = append(n.events[c], int32(lo+j)<<1)
			du = -u
		}
		if du != 0 {
			for _, r := range f.path[:f.npath] {
				demand[r] += du
			}
		}
	}
	p.served += served
	p.used = true
}

// hotToPromote ticks a demoted promotable flow's hysteresis counters
// and reports whether the flow promotes to packet level; its hook runs
// after the pass.
func (n *Network) hotToPromote(f *flow, bits uint8) bool {
	if bits&vHot != 0 {
		f.congTicks++
		f.calmTicks = 0
	} else {
		f.congTicks = 0
		if bits&vNotCalm == 0 {
			f.calmTicks++
		} else {
			f.calmTicks = 0
		}
	}
	if int(f.congTicks) < n.cfg.PromoteTicks || n.promote == nil {
		return false
	}
	f.state |= stPromoted
	f.congTicks, f.calmTicks = 0, 0
	return true
}

// calmToDemote ticks a promoted flow's calm counter and reports whether
// the flow demotes back to fluid; demoteFlow completes it after the pass.
func (n *Network) calmToDemote(f *flow, bits uint8) bool {
	if bits&vNotCalm == 0 {
		f.calmTicks++
	} else {
		f.calmTicks = 0
	}
	return int(f.calmTicks) >= n.cfg.DemoteTicks && n.demote != nil
}

// demoteFlow takes flow i back from the packet tier at the rate the
// demote hook reports, which joins the next tick's demand.
func (n *Network) demoteFlow(i int) {
	f := &n.flows[i]
	f.rate = n.boundRate(float64(n.demote(i)))
	f.alpha = 0
	f.state &^= stPromoted
	f.calmTicks, f.congTicks = 0, 0
	f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
	n.demotions++
	u := units(f.rate, n.scale)
	for _, r := range f.path[:f.npath] {
		n.demand[r] += u
	}
}

// Flows returns the flow count.
func (n *Network) Flows() int { return len(n.flows) }

// Ticks returns how many integration steps have run.
func (n *Network) Ticks() uint64 { return n.ticks }

// Promotions and Demotions count tier transitions so far.
func (n *Network) Promotions() uint64 { return n.promotions }

// Demotions counts packet→fluid transitions so far.
func (n *Network) Demotions() uint64 { return n.demotions }

// Promoted reports whether flow i currently runs at packet level.
func (n *Network) Promoted(i int) bool { return n.flows[i].state&stPromoted != 0 }

// FlowRate returns flow i's current fluid rate (its last fluid rate
// while promoted).
func (n *Network) FlowRate(i int) sim.Rate { return sim.Rate(n.flows[i].rate) }

// TotalRate sums the demoted flows' current rates.
func (n *Network) TotalRate() sim.Rate {
	var sum float64
	for i := range n.flows {
		if n.flows[i].state&stPromoted == 0 {
			sum += n.flows[i].rate
		}
	}
	return sim.Rate(sum)
}

// DeliveredBytes returns the aggregate fluid goodput integrated so far
// (bytes actually served, after bottleneck scaling).
func (n *Network) DeliveredBytes() float64 { return n.delivered }

// QueueBytes returns resource r's current fluid queue depth.
func (n *Network) QueueBytes(r ResourceID) float64 { return n.res[r].q }
