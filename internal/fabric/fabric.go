// Package fabric models the network between hosts: rate/latency links and
// an output-queued switch with drop-tail buffering and ECN marking. This
// is the "classical" congestion point; hostCC's claim is that congestion
// signals must also come from inside the host, and Figure 13 exercises
// both points at once.
package fabric

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// LinkConfig parameterizes one unidirectional link.
type LinkConfig struct {
	Rate  sim.Rate // serialization rate
	Delay sim.Time // propagation delay
	// LossProb drops each packet independently with this probability
	// (failure injection: corrupted frames / FCS errors). Zero for the
	// lossless datacenter links of the evaluation.
	LossProb float64
}

// DefaultLinkConfig returns a 100 Gbps link with propagation chosen so the
// end-to-end base RTT lands near the paper's ~44 µs (the MBA write of
// 22 µs is "2x smaller than our network RTT", §4.2).
func DefaultLinkConfig() LinkConfig {
	return LinkConfig{Rate: sim.Gbps(100), Delay: 9 * sim.Microsecond}
}

// Link is a serializing link (lossless unless LossProb is set).
type Link struct {
	e         *sim.Engine
	cfg       LinkConfig
	busyUntil sim.Time
	deliver   func(*packet.Packet)
	down      bool // fault injection: link flapped down

	// deliverH + inflight carry packets through propagation-delay events
	// without per-packet closures; pool (optional) receives packets the
	// link loses to injected faults.
	deliverH sim.HandlerID
	inflight sim.Slots[*packet.Packet]
	pool     *packet.Pool

	// bnd, when set (BindBoundary), carries delivered packets across a
	// shard boundary instead of scheduling on the local engine: the link
	// is then a trunk between shards and its propagation delay is the
	// boundary's lookahead contribution. Serialization, loss rolls and
	// counters stay on the owning (transmitting) shard.
	bnd *sim.Boundary

	// fluid, when set (FluidTap), couples the link to the fluid-flow
	// tier: the background rate is debited from the serializer and the
	// packet bytes offered are counted for the fluid integrator. Nil —
	// the common case — leaves Send's arithmetic untouched.
	fluid *FluidTap

	Bytes stats.Meter
	// Corrupted counts packets dropped by injected wire loss.
	Corrupted stats.Counter
	// FlapDrops counts packets lost while the link was flapped down.
	FlapDrops stats.Counter
}

// NewLink creates a link delivering packets via deliver.
func NewLink(e *sim.Engine, cfg LinkConfig, deliver func(*packet.Packet)) *Link {
	if cfg.Rate <= 0 {
		panic("fabric: non-positive link rate")
	}
	if deliver == nil {
		panic("fabric: nil deliver")
	}
	l := &Link{e: e, cfg: cfg, deliver: deliver}
	l.deliverH = e.Handler(l.deliverEvent)
	return l
}

// SetPool directs packets lost by the link back to pool (nil disables
// recycling).
func (l *Link) SetPool(pool *packet.Pool) { l.pool = pool }

// BindBoundary makes the link a shard boundary from src to dst in g:
// delivery crosses the boundary at the packet's normal arrival time and
// the link's propagation delay is exported as the boundary's lookahead.
// The link's deliver function then runs on the destination shard.
func (l *Link) BindBoundary(g *sim.ShardGroup, src, dst int) {
	if l.bnd != nil {
		panic("fabric: link already bound to a boundary")
	}
	l.bnd = g.Connect(src, dst, l.cfg.Delay, func(_, _ uint64, payload any) {
		l.deliver(payload.(*packet.Packet))
	})
}

// deliverEvent fires when a packet finishes propagating; arg0 is its slot.
func (l *Link) deliverEvent(slot, _ uint64) {
	l.deliver(l.inflight.Take(slot))
}

// Send serializes and propagates one packet. Queueing happens in the
// switch (output queues) or the NIC; the link itself drops only under
// injected wire loss.
func (l *Link) Send(p *packet.Packet) {
	start := max(l.e.Now(), l.busyUntil)
	var done sim.Time
	if l.fluid != nil {
		l.fluid.pktBytes += int64(p.WireLen())
		done = start + l.fluid.effRate().TimeFor(p.WireLen())
	} else {
		done = start + l.cfg.Rate.TimeFor(p.WireLen())
	}
	l.busyUntil = done
	l.Bytes.Add(int64(p.WireLen()))
	if l.lost() {
		l.pool.Put(p)
		return // serialized, then discarded by the receiver's FCS check
	}
	if l.bnd != nil {
		l.bnd.Send(done+l.cfg.Delay, 0, 0, p)
		return
	}
	l.e.Schedule(done+l.cfg.Delay, l.deliverH, l.inflight.Put(p), 0)
}

func (l *Link) lost() bool {
	if l.down {
		l.FlapDrops.Inc()
		return true
	}
	if l.cfg.LossProb > 0 && l.e.Rand().Float64() < l.cfg.LossProb {
		l.Corrupted.Inc()
		return true
	}
	return false
}

// SetDown flaps the link (fault injection): while down, every packet
// handed to the link is lost — the signal is gone, so frames in flight at
// flap time are lost by the receiver's loss-of-signal squelch too, which
// this model folds into the send-time check. Flapping affects only loss,
// not serialization state.
func (l *Link) SetDown(down bool) { l.down = down }

// IsDown reports whether the link is flapped down.
func (l *Link) IsDown() bool { return l.down }

// RegisterInstruments registers the link's metrics under prefix.
func (l *Link) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/bytes", "bytes", "bytes serialized onto the link",
		func() float64 { return float64(l.Bytes.Total()) })
	reg.Counter(prefix+"/corrupted", "pkts", "packets dropped by injected wire loss",
		func() float64 { return float64(l.Corrupted.Total()) })
	reg.Counter(prefix+"/flap-drops", "pkts", "packets lost while the link was flapped down",
		func() float64 { return float64(l.FlapDrops.Total()) })
}

// QueuedTime reports how long a packet sent now would wait to serialize.
func (l *Link) QueuedTime() sim.Time {
	d := l.busyUntil - l.e.Now()
	if d < 0 {
		return 0
	}
	return d
}

// SwitchConfig parameterizes the switch.
type SwitchConfig struct {
	// PortBufferBytes is the per-output-port buffer (drop-tail).
	PortBufferBytes int
	// ECNThresholdBytes is the instantaneous queue depth above which
	// ECN-capable packets are marked CE (DCTCP-style marking, K).
	ECNThresholdBytes int
	// PFC enables priority flow control (lossless mode): per-ingress
	// occupancy accounting with XOFF/XON pause thresholds instead of
	// drop-tail for PFC-tracked ingresses. See PFCConfig.
	PFC PFCConfig
	// INTBaseRTT normalizes the queue term of the INT utilization stamp:
	// a port reports u = busy + qBytes/(rate × INTBaseRTT), the HPCC
	// per-hop signal. Zero selects the fabric's base RTT default (44 µs);
	// stamping itself is always on — it is stateless and free when no
	// scheme consumes it.
	INTBaseRTT sim.Time
}

// intDefaultBaseRTT is the default INT normalization window, matching the
// fabric's ~44 µs base RTT (DefaultLinkConfig).
const intDefaultBaseRTT = 44 * sim.Microsecond

// DefaultSwitchConfig returns DCTCP-appropriate marking for 100 Gbps.
func DefaultSwitchConfig() SwitchConfig {
	return SwitchConfig{
		PortBufferBytes:   1 << 20,
		ECNThresholdBytes: 80 * 1024,
	}
}

// PortID indexes one output port of a Switch, in attach order.
type PortID int32

// noRoute marks an unrouted destination in the forwarding table.
const noRoute PortID = -1

// trunkKeyBase offsets the snapshot keys of trunk ports so they can never
// collide with host IDs.
const trunkKeyBase uint64 = 1 << 32

// Switch is an output-queued switch: one queue + serializer per attached
// output port. Host-facing ports are attached with AttachPort, trunk
// ports toward other switches with AttachTrunk; the static forwarding
// table (SetRoute) maps destination hosts onto ports. Both tables are
// slices — the hot path and the snapshot encoder never iterate a map.
type Switch struct {
	e      *sim.Engine
	cfg    SwitchConfig
	ports  []*outPort // attach order
	routes []PortID   // dense, indexed by destination HostID
	trunks int        // trunk ports attached so far

	// Drops and Marks count switch-level drops and CE marks.
	Drops stats.Counter
	Marks stats.Counter

	// PFC state (populated only when cfg.PFC.Enabled). HeadroomDrops
	// counts packets lost despite PFC — headroom provisioned too small
	// for the in-flight data (also counted in Drops). PauseFrames and
	// PauseLost count pause frames emitted and lost to injected faults;
	// PauseAsserts counts output-port pause transitions into the paused
	// state; WatchdogReleases counts forced releases by the PFC watchdog.
	HeadroomDrops    stats.Counter
	PauseFrames      stats.Counter
	PauseLost        stats.Counter
	PauseAsserts     stats.Counter
	WatchdogReleases stats.Counter
	ingresses        []*Ingress
	pauseFault       func() bool
	portPauseH       sim.HandlerID // lands a pause frame on port arg0

	// tr, when set before AttachPort, gives every port a queue-depth
	// counter track plus a switch-wide CE-mark track.
	tr      *telemetry.Tracer
	trMarks *telemetry.Track
	prefix  string
}

// qent is one queued packet plus the PFC ingress it arrived on (nil when
// the ingress is not PFC-tracked).
type qent struct {
	p  *packet.Packet
	ig *Ingress
}

type outPort struct {
	sw     *Switch
	link   *Link
	queue  ring.Queue[qent]
	qBytes int
	busy   bool

	// key identifies the port in snapshots: the host ID for host-facing
	// ports, trunkKeyBase+n for the n-th trunk port.
	key uint64

	// PFC pause state: paused is protocol pause (XOFF from downstream),
	// forced is injected pause (storm fault); the union gates the pump.
	// pauseGen invalidates stale watchdog timers across transitions.
	paused      bool
	forced      bool
	pauseGen    uint64
	pausedAt    sim.Time
	pausedTotal sim.Time
	trPauseID   uint64

	// trQueue records the port's queue depth over time (nil when disabled).
	trQueue *telemetry.Track

	// intRefBytes normalizes the INT queue term: rate × INTBaseRTT.
	intRefBytes float64

	// fluid, when set (Switch.FluidTap), couples the port to the
	// fluid-flow tier: background rate debits the serializer, the fluid
	// queue share joins the ECN/INT queue view, and offered packet
	// bytes are counted for the integrator. Nil leaves every hot-path
	// computation bit-identical.
	fluid *FluidTap

	// doneH fires when the port serializer finishes serFlight (the port
	// serializes one packet at a time, so no slot table is needed);
	// watchdogH fires the PFC watchdog.
	doneH     sim.HandlerID
	watchdogH sim.HandlerID
	serFlight *packet.Packet
}

// NewSwitch creates an empty switch.
func NewSwitch(e *sim.Engine, cfg SwitchConfig) *Switch {
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	s := &Switch{e: e, cfg: cfg}
	s.portPauseH = e.Handler(func(p, on uint64) { s.PortPause(PortID(p), on != 0) })
	return s
}

// SetTracer attaches counter tracks for per-port queue depth and CE
// marks, named under prefix. Must be called before AttachPort so the
// port tracks exist from the start.
func (s *Switch) SetTracer(t *telemetry.Tracer, prefix string) {
	s.tr = t
	s.prefix = prefix
	s.trMarks = t.NewTrack(prefix+"/marks", "pkts")
}

// RegisterInstruments registers the switch's metrics under prefix. PFC
// instruments appear only when PFC is enabled, keeping the non-lossless
// metric namespace unchanged.
func (s *Switch) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/drops", "pkts", "packets dropped at full output queues",
		func() float64 { return float64(s.Drops.Total()) })
	reg.Counter(prefix+"/marks", "pkts", "packets CE-marked at the ECN threshold",
		func() float64 { return float64(s.Marks.Total()) })
	reg.Gauge(prefix+"/int/max-util", "util", "max per-port INT utilization (busy + queue/(rate×baseRTT))",
		func() float64 { return s.MaxINTUtil() })
	if s.cfg.PFC.Enabled {
		reg.Counter(prefix+"/pfc/pause-frames", "frames", "PFC pause frames emitted (XOFF and XON)",
			func() float64 { return float64(s.PauseFrames.Total()) })
		reg.Counter(prefix+"/pfc/pause-lost", "frames", "pause frames lost to injected faults",
			func() float64 { return float64(s.PauseLost.Total()) })
		reg.Counter(prefix+"/pfc/pause-asserts", "events", "output-port transitions into the paused state",
			func() float64 { return float64(s.PauseAsserts.Total()) })
		reg.Counter(prefix+"/pfc/watchdog-releases", "events", "pauses force-released by the PFC watchdog",
			func() float64 { return float64(s.WatchdogReleases.Total()) })
		reg.Counter(prefix+"/pfc/headroom-drops", "pkts", "packets lost despite PFC (headroom exhausted)",
			func() float64 { return float64(s.HeadroomDrops.Total()) })
		reg.Gauge(prefix+"/pfc/xoff-occupancy", "bytes", "buffered bytes across PFC ingresses",
			func() float64 { return float64(s.IngressOccupancy()) })
	}
}

// AttachPort connects the output port toward host id over the given link
// and routes the host's packets to it.
func (s *Switch) AttachPort(id packet.HostID, link *Link) PortID {
	if s.routeFor(id) != noRoute {
		panic(fmt.Sprintf("fabric: duplicate port for host %d", id))
	}
	p := s.attach(link, uint64(id), fmt.Sprintf("port%d", id))
	s.SetRoute(id, p)
	return p
}

// AttachTrunk connects an output port toward another switch over the
// given link (whose deliver function is typically the peer's Inject).
// Trunk ports get the same drop-tail buffering and ECN marking as host
// ports; route destinations onto the returned PortID with SetRoute.
func (s *Switch) AttachTrunk(link *Link) PortID {
	p := s.attach(link, trunkKeyBase+uint64(s.trunks), fmt.Sprintf("trunk%d", s.trunks))
	s.trunks++
	return p
}

func (s *Switch) attach(link *Link, key uint64, name string) PortID {
	o := &outPort{sw: s, link: link, key: key}
	o.doneH = s.e.Handler(o.serDone)
	o.watchdogH = s.e.Handler(o.watchdog)
	baseRTT := s.cfg.INTBaseRTT
	if baseRTT == 0 {
		baseRTT = intDefaultBaseRTT
	}
	o.intRefBytes = float64(link.cfg.Rate) * baseRTT.Seconds()
	if s.tr != nil {
		o.trQueue = s.tr.NewTrack(fmt.Sprintf("%s/%s/queue", s.prefix, name), "bytes")
		o.trQueue.Set(s.e.Now(), 0)
		o.trPauseID = pauseRangeID(s.prefix, name)
	}
	s.ports = append(s.ports, o)
	return PortID(len(s.ports) - 1)
}

// SetRoute directs packets for destination host id onto port (static
// forwarding table entry).
func (s *Switch) SetRoute(id packet.HostID, port PortID) {
	if int(port) < 0 || int(port) >= len(s.ports) {
		panic(fmt.Sprintf("fabric: route to unattached port %d", port))
	}
	for int(id) >= len(s.routes) {
		s.routes = append(s.routes, noRoute)
	}
	s.routes[id] = port
}

func (s *Switch) routeFor(id packet.HostID) PortID {
	if int(id) >= len(s.routes) {
		return noRoute
	}
	return s.routes[id]
}

// Inject delivers a packet into the switch (from an ingress link).
func (s *Switch) Inject(p *packet.Packet) {
	port := s.routeFor(p.Flow.Dst)
	if port == noRoute {
		panic(fmt.Sprintf("fabric: no route to host %d", p.Flow.Dst))
	}
	s.ports[port].enqueue(p)
}

func (o *outPort) enqueue(p *packet.Packet) { o.enqueueFrom(nil, p) }

func (o *outPort) enqueueFrom(ig *Ingress, p *packet.Packet) {
	if o.fluid != nil {
		// Offered load, counted before admission: drops are demand too,
		// and the fluid integrator must see the pressure that caused them.
		o.fluid.pktBytes += int64(p.WireLen())
	}
	if ig != nil {
		// Lossless admission: the ingress quota (XOFF + headroom), not
		// the output queue, bounds buffering. A failed admit means the
		// headroom was provisioned too small for the in-flight data.
		if !ig.admit(p.WireLen()) {
			o.sw.Drops.Inc()
			o.sw.HeadroomDrops.Inc()
			o.link.pool.Put(p)
			return
		}
	} else if o.qBytes+p.WireLen() > o.sw.cfg.PortBufferBytes {
		o.sw.Drops.Inc()
		o.link.pool.Put(p)
		return
	}
	// DCTCP marking: mark on instantaneous queue depth at enqueue.
	// PFC does not replace ECN — DCQCN's CNPs are generated from exactly
	// these marks; pause frames are the backstop, not the signal. The
	// fluid tier's queue share joins the depth the marker sees, so
	// packet flows react to congestion the background causes.
	ecnQ := o.qBytes
	if o.fluid != nil {
		ecnQ += o.fluid.qBytes
	}
	if ecnQ > o.sw.cfg.ECNThresholdBytes && p.ECN == packet.ECT0 {
		p.ECN = packet.CE
		o.sw.Marks.Inc()
		o.sw.trMarks.Set(o.sw.e.Now(), float64(o.sw.Marks.Total()))
	}
	// INT stamp (HPCC feedback): fold this hop's utilization into the
	// packet's running max. Stateless — derived from the same qBytes/busy
	// the snapshot already encodes — so it cannot perturb digests. Only
	// data packets are stamped (receivers echo on ACKs; stamping the
	// reverse path would be dead weight).
	if p.IsData() {
		if u := o.intUtil(); u > p.INTUtil {
			p.INTUtil = u
		}
		if p.INTHops < 255 {
			p.INTHops++
		}
	}
	o.queue.Push(qent{p: p, ig: ig})
	o.qBytes += p.WireLen()
	o.trQueue.Set(o.sw.e.Now(), float64(o.qBytes))
	o.pump()
}

// intUtil is this port's instantaneous INT utilization: 1 while the
// serializer is busy plus the queue depth in units of rate × baseRTT
// (the stateless reduction of HPCC's txRate/B + qlen/(B·T) signal).
func (o *outPort) intUtil() float64 {
	q := o.qBytes
	if o.fluid != nil {
		q += o.fluid.qBytes
	}
	util := float64(q) / o.intRefBytes
	if o.busy {
		util++
	}
	return util
}

func (o *outPort) pump() {
	if o.busy || o.paused || o.forced || o.queue.Len() == 0 {
		return
	}
	o.busy = true
	ent := o.queue.Pop()
	p := ent.p
	o.qBytes -= p.WireLen()
	o.trQueue.Set(o.sw.e.Now(), float64(o.qBytes))
	if ent.ig != nil {
		ent.ig.release(p.WireLen())
	}
	// Hold the serializer for the packet's own transmission time, then
	// hand it to the link (which adds propagation). A fluid background
	// debits the serializer: packets see the residual capacity.
	o.serFlight = p
	rate := o.link.cfg.Rate
	if o.fluid != nil {
		rate = o.fluid.effRate()
	}
	o.sw.e.ScheduleAfter(rate.TimeFor(p.WireLen()), o.doneH, 0, 0)
}

// serDone fires when the port serializer finishes its packet.
func (o *outPort) serDone(_, _ uint64) {
	p := o.serFlight
	o.serFlight = nil
	o.link.deliver2(p)
	o.busy = false
	o.pump()
}

// deliver2 propagates a packet that has already been serialized by the
// switch port (avoids double serialization).
func (l *Link) deliver2(p *packet.Packet) {
	l.Bytes.Add(int64(p.WireLen()))
	if l.lost() {
		l.pool.Put(p)
		return
	}
	if l.bnd != nil {
		l.bnd.Send(l.e.Now()+l.cfg.Delay, 0, 0, p)
		return
	}
	l.e.ScheduleAfter(l.cfg.Delay, l.deliverH, l.inflight.Put(p), 0)
}

// QueueBytes returns the current queue depth toward host id.
func (s *Switch) QueueBytes(id packet.HostID) int {
	if p := s.routeFor(id); p != noRoute {
		return s.ports[p].qBytes
	}
	return 0
}

// PortQueueBytes returns the queue depth of one output port (trunk
// instrumentation).
func (s *Switch) PortQueueBytes(p PortID) int { return s.ports[p].qBytes }

// MaxINTUtil returns the highest instantaneous INT utilization across
// the switch's output ports — the per-hop congestion signal HPCC-style
// senders receive, exported as a telemetry gauge.
func (s *Switch) MaxINTUtil() float64 {
	var m float64
	for _, o := range s.ports {
		if u := o.intUtil(); u > m {
			m = u
		}
	}
	return m
}

// Validate reports the first invalid link parameter.
func (c LinkConfig) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("fabric: link Rate %v must be positive", c.Rate)
	}
	if c.Delay < 0 {
		return fmt.Errorf("fabric: negative link Delay %v", c.Delay)
	}
	if c.LossProb < 0 || c.LossProb > 1 {
		return fmt.Errorf("fabric: LossProb %v outside [0,1]", c.LossProb)
	}
	return nil
}

// Validate reports the first invalid switch parameter.
func (c SwitchConfig) Validate() error {
	if c.PortBufferBytes <= 0 {
		return fmt.Errorf("fabric: PortBufferBytes %d must be positive", c.PortBufferBytes)
	}
	// A zero or negative mark threshold would CE-mark every ECT packet
	// (DCTCP collapses to one-segment windows); a threshold at or above
	// the buffer can never mark before drop-tail loss. Both are
	// misconfigurations, not policies.
	if c.ECNThresholdBytes <= 0 {
		return fmt.Errorf("fabric: ECNThresholdBytes %d must be positive", c.ECNThresholdBytes)
	}
	if c.ECNThresholdBytes >= c.PortBufferBytes {
		return fmt.Errorf("fabric: ECNThresholdBytes %d must be below PortBufferBytes %d",
			c.ECNThresholdBytes, c.PortBufferBytes)
	}
	if c.INTBaseRTT < 0 {
		return fmt.Errorf("fabric: negative INTBaseRTT %v", c.INTBaseRTT)
	}
	return c.PFC.Validate(c.PortBufferBytes)
}
