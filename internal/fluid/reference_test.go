package fluid

import (
	"bytes"
	"cmp"
	"encoding/binary"
	"math"
	"slices"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// refNetwork is a plain serial two-pass integrator over its own
// resource and flow records, the equivalence oracle for
// TestFluidTickMatchesReference: per tick it zeroes and re-sums every
// resource's demand over all flows, integrates the queues, then walks
// the flows in order reading each hop's full resource record and firing
// promote/demote hooks as it goes. Demand and the served rate are summed
// in the same fixed-point rate unit as the production tick, which it
// derives on its own. Any difference in per-flow arithmetic, in what the
// chunked pass sums, or in the order of hook calls shows up as a byte
// difference against it.
type refNetwork struct {
	cfg         Config
	cc          transport.FluidCC
	res         []refResource
	flows       []refFlow
	windowTicks uint16
	unit, scale float64
	maxRate     float64 // unitCap units

	ticks      uint64
	promotions uint64
	demotions  uint64
	delivered  float64

	promote func(i int, rate sim.Rate)
	demote  func(i int) sim.Rate
}

type refResource struct {
	cap     float64
	buf     float64
	ecn     float64
	seam    Seam
	faulted bool

	q        float64
	demand   int64 // rate units
	served   float64
	frac     uint32 // served, fracBits fixed point
	lossFrac float64
	marked   bool
	hot      bool
	calm     bool
}

type refFlow struct {
	path  [maxHops]ResourceID
	npath uint8
	state uint8

	winLeft     uint16
	markedTicks uint16
	lossTicks   uint16
	congTicks   uint16
	calmTicks   uint16

	rate  float64
	alpha float64
}

func newRefNetwork(cfg Config) *refNetwork {
	cfg = cfg.withDefaults()
	cc, err := transport.FluidSchemeByName(cfg.Scheme, cfg.MSS, cfg.RTT)
	if err != nil {
		panic(err)
	}
	wt := (cfg.RTT + cfg.Tick - 1) / cfg.Tick
	if wt < 1 {
		wt = 1
	}
	// The unit is 2^-16 of the largest power of two not above MinRate.
	unit := 1.0
	for unit*2 <= float64(cfg.MinRate) {
		unit *= 2
	}
	for unit > float64(cfg.MinRate) {
		unit /= 2
	}
	unit /= 1 << 16
	return &refNetwork{cfg: cfg, cc: cc, windowTicks: uint16(wt), unit: unit, scale: 1 / unit, maxRate: unit * unitCap}
}

// units converts a rate to whole rate units.
func (n *refNetwork) units(rate float64) int64 { return int64(rate * n.scale) }

// capRate holds a rate at or below maxRate (NaN included).
func (n *refNetwork) capRate(rate float64) float64 {
	if rate > n.maxRate || rate != rate {
		return n.maxRate
	}
	return rate
}

func (n *refNetwork) addResource(capacity sim.Rate, bufBytes, ecnBytes int) {
	n.res = append(n.res, refResource{cap: float64(capacity), buf: float64(bufBytes), ecn: float64(ecnBytes)})
}

func (n *refNetwork) addFlow(path ...ResourceID) {
	f := refFlow{npath: uint8(len(path)), winLeft: n.windowTicks, rate: min(float64(n.cfg.InitRate), n.maxRate)}
	copy(f.path[:], path)
	n.flows = append(n.flows, f)
}

func (n *refNetwork) tick() {
	n.ticks++
	dt := n.cfg.Tick.Seconds()

	for i := range n.res {
		n.res[i].demand = 0
	}
	for i := range n.flows {
		f := &n.flows[i]
		if f.state&stPromoted != 0 {
			continue
		}
		for k := uint8(0); k < f.npath; k++ {
			n.res[f.path[k]].demand += n.units(f.rate)
		}
	}

	for i := range n.res {
		r := &n.res[i]
		capLeft := r.cap
		if r.seam != nil {
			capLeft -= float64(r.seam.TakePacketBytes()) / dt
			if capLeft < 0 {
				capLeft = 0
			}
		}
		demand := float64(r.demand) * n.unit
		r.served = 1
		r.lossFrac = 0
		if demand > capLeft {
			r.q += float64((demand - capLeft) * dt)
			if r.q > r.buf {
				lost := r.q - r.buf
				r.q = r.buf
				r.lossFrac = lost / (demand * dt)
				if r.lossFrac > 1 {
					r.lossFrac = 1
				}
			}
			if demand > 0 {
				r.served = capLeft / demand
			}
		} else {
			r.q -= float64((capLeft - demand) * dt)
			if r.q < 0 {
				r.q = 0
			}
		}
		combined := r.q
		if r.seam != nil {
			combined += float64(r.seam.PacketQueueBytes())
		}
		r.frac = uint32(r.served * (1 << fracBits))
		r.marked = combined > r.ecn
		r.hot = combined > n.cfg.PromoteQueueFrac*r.buf || r.lossFrac > 0 || r.faulted
		r.calm = combined < n.cfg.DemoteFrac*r.ecn && !r.faulted
		if r.seam != nil {
			r.seam.SetBackground(sim.Rate(demand), int(r.q))
		}
	}

	var served int64
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
				f.rate = n.capRate(got)
				f.alpha = 0
				f.state &^= stPromoted
				f.calmTicks, f.congTicks = 0, 0
				f.winLeft, f.markedTicks, f.lossTicks = n.windowTicks, 0, 0
				n.demotions++
			}
			continue
		}

		marked, lossy, hot, calm := false, false, false, true
		frac := uint32(1 << fracBits)
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
			if r.frac < frac {
				frac = r.frac
			}
		}
		served += n.units(f.rate) * int64(frac) >> fracBits

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
			f.rate = n.capRate(f.rate)
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
	n.delivered += float64(float64(served) * n.unit * dt)
}

// snapshot encodes the reference in the fluid tier's version-2 layout
// (Network.Snapshot) by itself, so the two integrators compare byte for
// byte: the counters, every resource's queue and fault bit, the flow
// count, then per chunk of 4,096 flows the FNV-1a hash
// (snapshot.HashBytes) of the chunk's 27-byte flow records.
func (n *refNetwork) snapshot(enc *snapshot.Encoder) {
	enc.U32(2)
	enc.U64(n.ticks)
	enc.U64(n.promotions)
	enc.U64(n.demotions)
	enc.F64(n.delivered)
	enc.Int(len(n.res))
	for i := range n.res {
		enc.F64(n.res[i].q)
		enc.Bool(n.res[i].faulted)
	}
	enc.Int(len(n.flows))
	const chunk = 4096
	var rec []byte
	for lo := 0; lo < len(n.flows); lo += chunk {
		rec = rec[:0]
		for _, f := range n.flows[lo:min(lo+chunk, len(n.flows))] {
			rec = append(rec, f.state)
			for _, c := range [...]uint16{f.winLeft, f.markedTicks, f.lossTicks, f.congTicks, f.calmTicks} {
				rec = binary.LittleEndian.AppendUint16(rec, c)
			}
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(f.rate))
			rec = binary.LittleEndian.AppendUint64(rec, math.Float64bits(f.alpha))
		}
		enc.U64(snapshot.HashBytes(rec))
	}
}

// scriptSeam is a deterministic packet tier: the packet bytes it offers
// and the packet queue it reports follow a fixed per-seam sequence, and
// every SetBackground call is logged.
type scriptSeam struct {
	state uint64 // LCG state, advanced once per tick by TakePacketBytes
	pktQ  int
	log   *[]hookCall
	id    int
}

func (s *scriptSeam) TakePacketBytes() int64 {
	s.state = s.state*6364136223846793005 + 1442695040888963407
	x := s.state >> 33
	// Up to ~1.2x of a 10 Gbps serializer's 25,000 bytes per 20 µs tick,
	// and now and then a packet queue past the ECN threshold or half the
	// buffer.
	s.pktQ = 0
	switch x % 16 {
	case 0:
		s.pktQ = 100 * 1024
	case 1:
		s.pktQ = 600 * 1024
	}
	return int64(x % 30_000)
}

func (s *scriptSeam) PacketQueueBytes() int { return s.pktQ }

func (s *scriptSeam) SetBackground(rate sim.Rate, q int) {
	*s.log = append(*s.log, hookCall{kind: "background", id: s.id, rate: rate, q: q})
}

// hookCall is one call out of an integrator: a promote or demote hook,
// or a seam's SetBackground.
type hookCall struct {
	kind string
	id   int
	rate sim.Rate
	q    int
}

// tickPair drives the production network and the reference through the
// same construction and per-tick script, each with its own seams and
// hook log.
type tickPair struct {
	net            *Network
	ref            *refNetwork
	netLog, refLog []hookCall
}

func newTickPair(cfg Config) *tickPair {
	return &tickPair{net: New(cfg), ref: newRefNetwork(cfg)}
}

func (p *tickPair) addResource(capacity sim.Rate, bufBytes, ecnBytes int) ResourceID {
	p.ref.addResource(capacity, bufBytes, ecnBytes)
	return p.net.AddResource(capacity, bufBytes, ecnBytes)
}

func (p *tickPair) bindSeam(r ResourceID, seed uint64) {
	p.net.BindSeam(r, &scriptSeam{state: seed, log: &p.netLog, id: int(r)})
	p.ref.res[r].seam = &scriptSeam{state: seed, log: &p.refLog, id: int(r)}
}

func (p *tickPair) addFlow(path ...ResourceID) int {
	p.ref.addFlow(path...)
	return p.net.AddFlow(path...)
}

func (p *tickPair) setFault(r ResourceID, on bool) {
	p.net.SetFault(r, on)
	p.ref.res[r].faulted = on
}

func (p *tickPair) setPromotable(i int) {
	p.net.SetPromotable(i, true)
	p.ref.flows[i].state |= stPromotable
}

// setHooks installs promote/demote hooks on both sides; demote reports
// a rate that depends on the flow and on how many demotions came first.
func (p *tickPair) setHooks() {
	hooks := func(log *[]hookCall) (func(int, sim.Rate), func(int) sim.Rate) {
		return func(i int, rate sim.Rate) {
				*log = append(*log, hookCall{kind: "promote", id: i, rate: rate})
			}, func(i int) sim.Rate {
				rate := sim.Gbps(0.5 + float64(i%7) + float64(len(*log)%3))
				*log = append(*log, hookCall{kind: "demote", id: i, rate: rate})
				return rate
			}
	}
	p.net.SetPromoteHooks(hooks(&p.netLog))
	promote, demote := hooks(&p.refLog)
	p.ref.promote, p.ref.demote = promote, demote
}

// mixedFlows adds count flows over 1–4 hops drawn from rs; with six
// resources some paths cross one resource twice.
func (p *tickPair) mixedFlows(rs []ResourceID, count int) {
	for i := 0; i < count; i++ {
		hops := 1 + i%maxHops
		path := make([]ResourceID, 0, hops)
		for k := 0; k < hops; k++ {
			path = append(path, rs[(i*5+k*3)%len(rs)])
		}
		p.addFlow(path...)
	}
}

// TestFluidTickMatchesReference: the one-pass chunked Tick is
// bit-identical to the serial two-pass reference. After every tick the
// two encode the same snapshot bytes, integrate the same goodput, and
// have made the same promote/demote and SetBackground calls in the same
// order.
func TestFluidTickMatchesReference(t *testing.T) {
	type row struct {
		name   string
		cfg    Config
		ticks  int // default 3000
		build  func(p *tickPair) []ResourceID
		script func(p *tickPair, rs []ResourceID, tick int) // before each tick
		// check asserts the row did what it names; seen ORs every view
		// bit of every tick.
		check func(t *testing.T, n *Network, seen uint8)
	}
	links := func(p *tickPair, count int, buf int) []ResourceID {
		rs := make([]ResourceID, count)
		for i := range rs {
			rs[i] = p.addResource(sim.Gbps(10+float64(5*(i%3))), buf, 80*1024)
		}
		return rs
	}
	reno := testConfig()
	reno.Scheme = "reno"
	hysteresis := testConfig()
	hysteresis.PromoteTicks, hysteresis.DemoteTicks = 3, 20
	capped := hysteresis
	capped.InitRate = sim.Gbps(1e6) // above the rate cap
	// windowEndPromotions counts, before each tick of the "rates held"
	// row, the flows that promote in the tick their window ends.
	var windowEndPromotions int
	rows := []row{
		{name: "dctcp", cfg: testConfig(),
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 7, 1<<20)
				p.mixedFlows(rs, 300)
				return rs
			},
			check: func(t *testing.T, n *Network, seen uint8) {
				if n.DeliveredBytes() <= 0 || seen&vMarked == 0 {
					t.Fatalf("goodput %v, view bits %04b: want goodput and ECN marks", n.DeliveredBytes(), seen)
				}
			}},
		{name: "reno", cfg: reno,
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 5, 160*1024)
				p.mixedFlows(rs, 200)
				return rs
			},
			check: func(t *testing.T, n *Network, seen uint8) {
				if seen&vLossy == 0 {
					t.Fatal("reno never overflowed a buffer")
				}
			}},
		{name: "seams with packet bytes and queues", cfg: testConfig(),
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 6, 1<<20)
				for i, r := range rs[:4] {
					p.bindSeam(r, uint64(17+i))
				}
				p.mixedFlows(rs, 150)
				return rs
			},
			check: func(t *testing.T, n *Network, seen uint8) {
				if seen&vHot == 0 {
					t.Fatal("no packet queue made a resource hot")
				}
			}},
		{name: "fault window", cfg: testConfig(),
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 6, 1<<20)
				p.mixedFlows(rs, 150)
				for i := 0; i < 150; i += 9 {
					p.setPromotable(i) // counts hysteresis, no hooks to fire
				}
				return rs
			},
			script: func(p *tickPair, rs []ResourceID, tick int) {
				switch tick {
				case 400:
					p.setFault(rs[2], true)
				case 900:
					p.setFault(rs[2], false)
				}
			},
			check: func(t *testing.T, n *Network, seen uint8) {
				if seen&vHot == 0 {
					t.Fatal("the fault never made a resource hot")
				}
			}},
		{name: "promote then demote through hooks", cfg: hysteresis,
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 6, 1<<20)
				p.bindSeam(rs[5], 99)
				// Every fifth flow is promotable and crosses only rs[1]
				// and rs[3]: once the fault promotes them all, those
				// resources carry no fluid demand and calm down.
				busy := []ResourceID{rs[0], rs[2], rs[4], rs[5]}
				twins := [][]ResourceID{{rs[1]}, {rs[1], rs[3]}, {rs[3]}}
				for i := 0; i < 150; i++ {
					if i%5 == 0 {
						p.setPromotable(p.addFlow(twins[i%3]...))
					} else {
						p.addFlow(busy[i%4], busy[(i+1)%4])
					}
				}
				p.setHooks()
				return rs
			},
			script: func(p *tickPair, rs []ResourceID, tick int) {
				switch tick {
				case 200, 1500:
					p.setFault(rs[1], true)
					p.setFault(rs[3], true)
				case 600, 1900:
					p.setFault(rs[1], false)
					p.setFault(rs[3], false)
				}
			},
			check: func(t *testing.T, n *Network, _ uint8) {
				if n.Promotions() == 0 || n.Demotions() == 0 {
					t.Fatalf("%d promotions / %d demotions, want both", n.Promotions(), n.Demotions())
				}
			}},
		{name: "AddFlow after ticking", cfg: hysteresis,
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 5, 1<<20)
				p.mixedFlows(rs, 40)
				p.setPromotable(0)
				p.setHooks()
				return rs
			},
			script: func(p *tickPair, rs []ResourceID, tick int) {
				switch tick {
				case 1, 250, 1700:
					p.mixedFlows(rs, 60)
				case 300:
					p.setPromotable(len(p.net.flows) - 1)
					p.setFault(rs[0], true)
				case 700:
					p.setFault(rs[0], false)
				}
			},
			check: func(t *testing.T, n *Network, _ uint8) {
				if n.Flows() != 220 {
					t.Fatalf("%d flows, want 220", n.Flows())
				}
			}},
		// Flows whose rates stop moving: 40 flows on a 10 Mbps link fall
		// from the cap to MinRate and stay there, and 30 flows on a
		// 1e12 Gbps link hold the cap; every tenth of the latter is
		// promotable, and fault windows starting at ticks of each phase
		// modulo the 3-tick RTT window promote some of them in the tick
		// their window ends.
		{name: "rates held at MinRate and the cap", cfg: capped,
			build: func(p *tickPair) []ResourceID {
				rs := []ResourceID{
					p.addResource(sim.Gbps(0.01), 160*1024, 80*1024),
					p.addResource(sim.Gbps(1e12), 1<<20, 80*1024),
				}
				for i := 0; i < 40; i++ {
					p.addFlow(rs[0])
				}
				for i := 0; i < 30; i++ {
					if f := p.addFlow(rs[1]); i%10 == 0 {
						p.setPromotable(f)
					}
				}
				p.setHooks()
				return rs
			},
			script: func(p *tickPair, rs []ResourceID, tick int) {
				switch tick {
				case 300, 1001, 1702:
					p.setFault(rs[1], true)
				case 400, 1100, 1800:
					p.setFault(rs[1], false)
				}
				for i := range p.net.flows {
					f := &p.net.flows[i]
					if p.net.res[rs[1]].faulted && f.state == stPromotable && f.winLeft == 1 &&
						int(f.congTicks) == p.net.cfg.PromoteTicks-1 {
						windowEndPromotions++
					}
				}
			},
			check: func(t *testing.T, n *Network, _ uint8) {
				var atMin, atCap int
				for i := range n.flows {
					switch n.flows[i].rate {
					case float64(n.cfg.MinRate):
						atMin++
					case n.maxRate:
						atCap++
					}
				}
				if atMin != 40 || atCap < 27 || windowEndPromotions == 0 {
					t.Fatalf("%d flows at MinRate, %d at the cap, %d promoted as their window ended: want 40, at least 27, some",
						atMin, atCap, windowEndPromotions)
				}
			}},
		// Two full snapshot chunks and a partial third, with promotable
		// flows in each, so the chunk digests are compared across a
		// chunk boundary and over a partial last chunk after every tick.
		{name: "two chunks and a partial one", cfg: hysteresis, ticks: 400,
			build: func(p *tickPair) []ResourceID {
				rs := links(p, 7, 1<<20)
				p.bindSeam(rs[0], 5)
				p.mixedFlows(rs, 2*4096+17)
				for i := 0; i < 2*4096+17; i += 97 {
					p.setPromotable(i)
				}
				p.setPromotable(2*4096 + 16)
				p.setHooks()
				return rs
			},
			script: func(p *tickPair, rs []ResourceID, tick int) {
				switch tick {
				case 100:
					p.setFault(rs[3], true)
				case 150:
					p.setFault(rs[3], false)
				}
			},
			check: func(t *testing.T, n *Network, seen uint8) {
				if n.Flows() != 2*4096+17 || n.Promotions() == 0 || seen&vLossy == 0 {
					t.Fatalf("%d flows, %d promotions, view bits %04b: want 8209 flows, promotions and loss",
						n.Flows(), n.Promotions(), seen)
				}
			}},
	}
	for _, tc := range rows {
		t.Run(tc.name, func(t *testing.T) {
			p := newTickPair(tc.cfg)
			rs := tc.build(p)
			var got, want snapshot.Encoder
			var seen uint8
			ticks := cmp.Or(tc.ticks, 3000)
			for tick := 0; tick < ticks; tick++ {
				if tc.script != nil {
					tc.script(p, rs, tick)
				}
				p.net.Tick(0)
				p.ref.tick()
				for _, v := range p.net.view {
					seen |= v.bits
				}

				got, want = snapshot.Encoder{}, snapshot.Encoder{}
				p.net.Snapshot(&got)
				p.ref.snapshot(&want)
				if !bytes.Equal(got.Bytes(), want.Bytes()) {
					t.Fatalf("tick %d: snapshot differs from the reference", tick)
				}
				if g, w := p.net.DeliveredBytes(), p.ref.delivered; math.Float64bits(g) != math.Float64bits(w) {
					t.Fatalf("tick %d: delivered %v, reference %v", tick, g, w)
				}
				if !slices.Equal(p.netLog, p.refLog) {
					t.Fatalf("tick %d: calls out differ:\n got  %v\n want %v", tick, p.netLog, p.refLog)
				}
			}
			tc.check(t, p.net, seen)
		})
	}
}
