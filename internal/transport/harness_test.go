package transport

import (
	"math/rand"

	"repro/internal/packet"
	"repro/internal/sim"
)

// pipe is a test network: a bidirectional path between two endpoints with
// configurable delay, bandwidth, loss and an ECN-marking queue. It lets
// transport behaviour be tested without the full host datapath.
type pipe struct {
	e *sim.Engine

	delay     sim.Time
	rate      sim.Rate // 0 = infinite
	lossProb  float64
	markAt    int // queue bytes above which ECT packets are CE-marked; 0 = off
	bufBytes  int // drop-tail queue cap; 0 = unbounded
	rng       *rand.Rand
	filter    func(*packet.Packet) bool // drop packet when true
	tap       func(*packet.Packet)      // observe every transmitted packet
	tapMutate func(*packet.Packet)      // mutate packets in flight (e.g. CE-mark)

	eps map[packet.HostID]*Endpoint

	busyUntil sim.Time
	qBytes    int

	// arriveH delivers the in-flight packet parked at slot arg0.
	arriveH  sim.HandlerID
	inflight sim.Slots[*packet.Packet]

	dropped int
	marked  int
}

func newPipe(e *sim.Engine, delay sim.Time) *pipe {
	pp := &pipe{
		e:     e,
		delay: delay,
		rng:   rand.New(rand.NewSource(99)),
		eps:   make(map[packet.HostID]*Endpoint),
	}
	pp.arriveH = e.Handler(pp.arrive)
	return pp
}

func (pp *pipe) attach(id packet.HostID, cfg Config) *Endpoint {
	ep := NewEndpoint(pp.e, id, pp, cfg)
	pp.eps[id] = ep
	return ep
}

func (pp *pipe) Transmit(p *packet.Packet) {
	if pp.tap != nil {
		pp.tap(p)
	}
	if pp.tapMutate != nil {
		pp.tapMutate(p)
	}
	if pp.filter != nil && pp.filter(p) {
		pp.dropped++
		return
	}
	if pp.lossProb > 0 && pp.rng.Float64() < pp.lossProb {
		pp.dropped++
		return
	}
	if pp.bufBytes > 0 && pp.qBytes+p.WireLen() > pp.bufBytes {
		pp.dropped++
		return
	}
	if pp.markAt > 0 && pp.qBytes > pp.markAt && p.ECN == packet.ECT0 {
		p.ECN = packet.CE
		pp.marked++
	}
	var txDone sim.Time
	if pp.rate > 0 {
		start := max(pp.e.Now(), pp.busyUntil)
		txDone = start + pp.rate.TimeFor(p.WireLen())
		pp.busyUntil = txDone
		pp.qBytes += p.WireLen()
	} else {
		txDone = pp.e.Now()
	}
	pp.e.Schedule(txDone+pp.delay, pp.arriveH, pp.inflight.Put(p), 1)
}

// arrive delivers the packet parked at slot; queued (arg1) says whether
// it passed through the rate-limited queue.
func (pp *pipe) arrive(slot, queued uint64) {
	p := pp.inflight.Take(slot)
	if queued != 0 && pp.rate > 0 {
		pp.qBytes -= p.WireLen()
	}
	dst, ok := pp.eps[p.Flow.Dst]
	if !ok {
		panic("pipe: unknown destination")
	}
	dst.Receive(p)
}

// testCfg returns a config tuned for fast unit tests: short RTO so loss
// recovery completes within microseconds-scale sims.
func testCfg(cc CCFactory) Config {
	cfg := DefaultConfig(4096)
	cfg.MinRTO = 2 * sim.Millisecond
	cfg.InitialRTO = 2 * sim.Millisecond
	cfg.TLPMin = 200 * sim.Microsecond
	cfg.CC = cc
	return cfg
}
