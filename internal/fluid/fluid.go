// Package fluid is the coarse tier of the hybrid fluid/packet
// simulation: long-lived background flows advance as per-flow rate ODEs
// integrated on coarse ticks, while foreground flows stay packet-level.
// Each fluid resource is one serializing capacity (a host access link,
// a trunk port); each flow is a rate + a DCTCP α traversing a short
// path of resources. Per tick the network aggregates demand per
// resource, integrates the shared queue against the capacity left by
// the packet tier, marks above the ECN threshold, and advances every
// flow's rate by its congestion-control twin once per model RTT.
//
// Conservation at the seam runs through fabric.FluidTap (the Seam
// interface here): the integrator reads the packet bytes offered to a
// tapped serializer and folds them into demand, and writes back the
// fluid demand and queue share so packets are serialized at the
// residual capacity and ECN-marked on the combined depth.
//
// Everything is deterministic by construction: resources and flows
// advance in index order, all arithmetic is fixed-order float64, and
// promote/demote decisions fire from hysteresis counters compared in
// flow order — a run is reproducible tick for tick, which the snapshot
// digests verify.
package fluid

import (
	"fmt"

	"repro/internal/sim"
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

// Validate reports the first invalid parameter.
func (c Config) Validate() error {
	c0 := c.withDefaults()
	if c0.Tick <= 0 || c0.RTT <= 0 {
		return fmt.Errorf("fluid: Tick %v and RTT %v must be positive", c0.Tick, c0.RTT)
	}
	if c0.MSS <= 0 {
		return fmt.Errorf("fluid: MSS %d must be positive", c0.MSS)
	}
	if c0.InitRate <= 0 || c0.MinRate <= 0 {
		return fmt.Errorf("fluid: InitRate %v and MinRate %v must be positive", c0.InitRate, c0.MinRate)
	}
	if c0.PromoteTicks < 0 || c0.DemoteTicks < 0 {
		return fmt.Errorf("fluid: negative hysteresis (%d promote / %d demote ticks)", c0.PromoteTicks, c0.DemoteTicks)
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

// ResourceID indexes one resource of a Network, in AddResource order.
type ResourceID int32

// maxHops bounds a fluid flow's path: up-access, leaf trunk, spine
// trunk, down-access. Inline storage keeps a million-flow population at
// ~48 bytes per flow with no per-flow allocation.
const maxHops = 4

type resource struct {
	cap     float64 // bytes/sec
	buf     float64 // buffer bytes (overflow above it is loss)
	ecn     float64 // mark threshold bytes
	seam    Seam    // nil for virtual-host resources
	faulted bool

	// Per-tick integration state.
	q        float64 // fluid queue depth, bytes
	demand   float64 // Σ flow rates this tick, bytes/sec
	served   float64 // fraction of demand served this tick
	lossFrac float64 // fraction of offered bytes overflowed this tick
	marked   bool    // combined queue above the ECN threshold
	hot      bool    // out of the fluid regime: deep queue, loss, or fault
	calm     bool    // combined queue below DemoteFrac × threshold
}

// Flow state bits.
const (
	stPromotable = 1 << iota // has a packet-level twin connection
	stPromoted               // currently running at packet level
)

type flow struct {
	path  [maxHops]ResourceID
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
	flows       []flow
	windowTicks uint16

	ticks      uint64
	promotions uint64
	demotions  uint64
	delivered  float64 // aggregate fluid goodput, bytes

	promote func(i int, rate sim.Rate)
	demote  func(i int) sim.Rate
}

// New creates an empty network. Panics on an invalid config (build-time
// misconfiguration, matching fabric's constructors).
func New(cfg Config) *Network {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	cfg = cfg.withDefaults()
	cc, _ := transport.FluidSchemeByName(cfg.Scheme, cfg.MSS, cfg.RTT)
	wt := (cfg.RTT + cfg.Tick - 1) / cfg.Tick
	if wt < 1 {
		wt = 1
	}
	return &Network{cfg: cfg, cc: cc, windowTicks: uint16(wt)}
}

// Config returns the resolved configuration.
func (n *Network) Config() Config { return n.cfg }

// AddResource adds one serializing capacity. bufBytes bounds the fluid
// queue (overflow is loss); ecnBytes is the mark threshold.
func (n *Network) AddResource(name string, capacity sim.Rate, bufBytes, ecnBytes int) ResourceID {
	if capacity <= 0 || bufBytes <= 0 || ecnBytes <= 0 || ecnBytes >= bufBytes {
		panic(fmt.Sprintf("fluid: resource %q needs positive capacity and 0 < ecn < buf (got %v, %d, %d)",
			name, capacity, bufBytes, ecnBytes))
	}
	n.res = append(n.res, resource{
		cap: float64(capacity),
		buf: float64(bufBytes),
		ecn: float64(ecnBytes),
	})
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

// AddFlow adds one background flow over the given resource path and
// returns its index. Flows start demoted at InitRate.
func (n *Network) AddFlow(path ...ResourceID) int {
	if len(path) == 0 || len(path) > maxHops {
		panic(fmt.Sprintf("fluid: flow path of %d hops (want 1..%d)", len(path), maxHops))
	}
	f := flow{npath: uint8(len(path)), winLeft: n.windowTicks, rate: float64(n.cfg.InitRate)}
	for i, r := range path {
		if int(r) < 0 || int(r) >= len(n.res) {
			panic(fmt.Sprintf("fluid: flow hop %d references unknown resource %d", i, r))
		}
		f.path[i] = r
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
// back and returns the rate the packet tier measured.
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
func (n *Network) Tick(_ sim.Time) {
	n.ticks++
	dt := n.cfg.Tick.Seconds()

	// Demand aggregation: promoted flows send real packets, which the
	// seam's packet-byte counters already account for.
	for i := range n.res {
		n.res[i].demand = 0
	}
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			continue
		}
		for k := uint8(0); k < f.npath; k++ {
			n.res[f.path[k]].demand += f.rate
		}
	}

	// Queue integration per resource: the packet tier's offered load
	// takes capacity first (its bytes are already on the wire); the
	// fluid queue absorbs the excess demand and drains the slack.
	for i := range n.res {
		r := &n.res[i]
		capLeft := r.cap
		if r.seam != nil {
			capLeft -= float64(r.seam.TakePacketBytes()) / dt
			if capLeft < 0 {
				capLeft = 0
			}
		}
		r.served = 1
		r.lossFrac = 0
		if r.demand > capLeft {
			r.q += (r.demand - capLeft) * dt
			if r.q > r.buf {
				lost := r.q - r.buf
				r.q = r.buf
				r.lossFrac = lost / (r.demand * dt)
				if r.lossFrac > 1 {
					r.lossFrac = 1
				}
			}
			if r.demand > 0 {
				r.served = capLeft / r.demand
			}
		} else {
			r.q -= (capLeft - r.demand) * dt
			if r.q < 0 {
				r.q = 0
			}
		}
		combined := r.q
		if r.seam != nil {
			combined += float64(r.seam.PacketQueueBytes())
		}
		r.marked = combined > r.ecn
		r.hot = combined > n.cfg.PromoteQueueFrac*r.buf || r.lossFrac > 0 || r.faulted
		r.calm = combined < n.cfg.DemoteFrac*r.ecn && !r.faulted
		if r.seam != nil {
			r.seam.SetBackground(sim.Rate(r.demand), int(r.q))
		}
	}

	// Flow response, in flow-index order (the determinism contract for
	// promote/demote: hysteresis counters tick and fire in this order).
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			calm := true
			for k := uint8(0); k < f.npath; k++ {
				if !n.res[f.path[k]].calm {
					calm = false
					break
				}
			}
			if calm {
				f.calmTicks++
			} else {
				f.calmTicks = 0
			}
			if int(f.calmTicks) >= n.cfg.DemoteTicks && n.demote != nil {
				got := float64(n.demote(i))
				if got < float64(n.cfg.MinRate) {
					got = float64(n.cfg.MinRate)
				}
				f.rate = got
				f.alpha = 0
				f.state &^= stPromoted
				f.calmTicks, f.congTicks = 0, 0
				f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
				n.demotions++
			}
			continue
		}

		marked, lossy, hot, calm := false, false, false, true
		frac := 1.0
		for k := uint8(0); k < f.npath; k++ {
			r := &n.res[f.path[k]]
			if r.marked {
				marked = true
			}
			if r.hot {
				hot = true
			}
			if r.lossFrac > 0 {
				lossy = true
			}
			if !r.calm {
				calm = false
			}
			if r.served < frac {
				frac = r.served
			}
		}
		n.delivered += f.rate * frac * dt

		if marked {
			f.markedTicks++
		}
		if lossy {
			f.lossTicks++
		}
		f.winLeft--
		if f.winLeft == 0 {
			mf := float64(f.markedTicks) / float64(n.windowTicks)
			lf := float64(f.lossTicks) / float64(n.windowTicks)
			f.rate, f.alpha = n.cc.Advance(f.rate, f.alpha, mf, lf)
			if f.rate < float64(n.cfg.MinRate) {
				f.rate = float64(n.cfg.MinRate)
			}
			f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
		}

		if f.state&stPromotable != 0 {
			if hot {
				f.congTicks++
				f.calmTicks = 0
			} else {
				f.congTicks = 0
				if calm {
					f.calmTicks++
				} else {
					f.calmTicks = 0
				}
			}
			if int(f.congTicks) >= n.cfg.PromoteTicks && n.promote != nil {
				f.state |= stPromoted
				f.congTicks, f.calmTicks = 0, 0
				n.promotions++
				n.promote(i, sim.Rate(f.rate))
			}
		}
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
