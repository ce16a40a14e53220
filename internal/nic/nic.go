// Package nic models the network interface card.
//
// Receive side: arriving packets enter a small on-NIC SRAM buffer. A DMA
// engine takes the head packet, fetches a receive descriptor, and issues
// the packet's TLPs over the PCIe link as credits allow; the packet leaves
// the buffer as soon as its DMA is initiated (PCIe is lossless, §2.1).
// When credits or descriptors run out the buffer fills and arriving
// packets are dropped — this is where host congestion becomes packet loss.
//
// Transmit side: a line-rate serializer feeding the fabric, optionally
// charging the host's memory controller for the DMA reads.
package nic

import (
	"fmt"

	"repro/internal/mem"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/ring"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config parameterizes the NIC.
type Config struct {
	// RxBufferBytes is the on-NIC packet buffer (small SRAM). The paper
	// observes worst-case NIC queueing delay of 60-100 µs at ~100 Gbps,
	// implying roughly a megabyte.
	RxBufferBytes int
	// RxDescriptors is the receive descriptor pool; a descriptor is
	// consumed when a packet's DMA starts and recycled when the CPU has
	// processed the packet. Exhaustion (CPU bottleneck) stalls DMA.
	RxDescriptors int
	// LineRate is the Ethernet rate (100 Gbps).
	LineRate sim.Rate
	// TxBlockingReads makes the transmit path wait for the host memory
	// read of each packet before serializing it, exposing sender-side
	// host congestion to the transmit path (used by sender-side hostCC
	// experiments). Off by default: reads are posted.
	TxBlockingReads bool
	// PFC makes the rx buffer lossless (pause instead of drop) and
	// enables CNP generation; see PFCConfig. Disabled by default.
	PFC PFCConfig
}

// DefaultConfig returns the paper-calibrated NIC.
func DefaultConfig() Config {
	return Config{
		RxBufferBytes: 1 << 20,
		RxDescriptors: 1024,
		LineRate:      sim.Gbps(100),
	}
}

// NIC is one network interface.
type NIC struct {
	e    *sim.Engine
	cfg  Config
	link *pcie.Link
	mc   *mem.Controller // transmit DMA reads; may be nil

	// Receive state.
	rxQ      ring.Queue[rxEntry]
	rxBytes  int
	descFree int
	cur      []*pcie.TLP // TLPs of the packet being DMA'd (reused array)
	curIdx   int         // next TLP of cur to issue
	waiting  bool        // a credit wakeup is registered

	// creditResume is the one-shot credit wakeup handed to the PCIe link;
	// created once so a stall does not allocate.
	creditResume func()

	// pool, when set, receives packets the NIC drops (rx overflow, rx
	// fault); nil keeps drops GC-managed.
	pool *packet.Pool

	// Transmit state.
	txQ     ring.Queue[*packet.Packet]
	txBusy  bool
	txBytes int
	out     func(*packet.Packet)

	// Handler-table plumbing for the transmit path: txSlots parks the
	// packet being serialized (or awaiting its blocking DMA read).
	txDoneH     sim.HandlerID
	txReadDoneH sim.HandlerID
	txSlots     sim.Slots[*packet.Packet]

	// rxFault, when set, is consulted per arriving packet; returning
	// true drops it before buffer admission (fault injection: PHY-level
	// burst loss, a resetting MAC).
	rxFault func(*packet.Packet) bool

	// PFC state (lossless mode; see PFCConfig). pauseUpstream carries
	// XOFF/XON toward the fabric; txPaused gates the serializer when the
	// switch pauses us; cnpLast rate-limits CNP generation per flow
	// (lookup/insert only — never iterated, so map order cannot leak
	// into the simulation).
	pauseUpstream func(bool)
	rxXoff        bool
	txPaused      bool
	txPauseGen    uint64
	txWatchdogH   sim.HandlerID
	txPausedAt    sim.Time
	txPausedTotal sim.Time
	cnpLast       map[packet.FlowID]sim.Time

	// tr records rx-buffer residence spans and drop events (nil when
	// telemetry is disabled); stallCause remembers what most recently
	// blocked the DMA pump, attributing queueing to credits/descriptors.
	tr         *telemetry.Tracer
	stallCause string

	// Metrics.
	Arrivals   stats.Counter
	Drops      stats.Counter
	FaultDrops stats.Counter // drops forced by the rx fault hook
	DMAStarted stats.Counter // packets whose DMA has been initiated
	TxSent     stats.Counter
	rxOcc      stats.TimeWeighted
	QueueDelay *stats.Histogram // ns spent in the rx buffer before DMA

	// PFC metrics (counted only in lossless mode). HeadroomDrops are
	// packets lost despite PFC — the headroom above XOFF was exhausted —
	// also counted in Drops so conservation invariants keep holding.
	PauseAsserts     stats.Counter
	WatchdogReleases stats.Counter
	CNPsSent         stats.Counter
	HeadroomDrops    stats.Counter
}

// New creates a NIC. link is the PCIe path to the IIO; mc (optional)
// is charged for transmit DMA reads; out forwards transmitted packets to
// the attached fabric link.
func New(e *sim.Engine, cfg Config, link *pcie.Link, mc *mem.Controller) *NIC {
	if cfg.RxBufferBytes <= 0 || cfg.RxDescriptors <= 0 || cfg.LineRate <= 0 {
		panic("nic: invalid config")
	}
	if link == nil {
		panic("nic: nil PCIe link")
	}
	n := &NIC{
		e:          e,
		cfg:        cfg,
		link:       link,
		mc:         mc,
		descFree:   cfg.RxDescriptors,
		QueueDelay: stats.NewHistogram(30),
	}
	n.creditResume = func() {
		n.waiting = false
		n.pump()
	}
	n.txDoneH = e.Handler(n.txDone)
	n.txReadDoneH = e.Handler(n.txReadDone)
	n.txWatchdogH = e.Handler(n.txWatchdog)
	return n
}

// rxEntry is one buffered rx packet plus its arrival time.
type rxEntry struct {
	p  *packet.Packet
	at sim.Time
}

// SetPool directs dropped packets back to pool (nil disables recycling).
func (n *NIC) SetPool(pool *packet.Pool) { n.pool = pool }

// SetTracer attaches the packet-lifecycle tracer (nil disables).
func (n *NIC) SetTracer(t *telemetry.Tracer) { n.tr = t }

// RegisterInstruments registers the NIC's metrics under prefix.
func (n *NIC) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/nic/arrivals", "pkts", "packets arriving from the wire",
		func() float64 { return float64(n.Arrivals.Total()) })
	reg.Counter(prefix+"/nic/drops", "pkts", "rx-buffer overflow drops",
		func() float64 { return float64(n.Drops.Total()) })
	reg.Counter(prefix+"/nic/fault-drops", "pkts", "drops forced by fault injection",
		func() float64 { return float64(n.FaultDrops.Total()) })
	reg.Counter(prefix+"/nic/dma-started", "pkts", "packets whose DMA has been initiated",
		func() float64 { return float64(n.DMAStarted.Total()) })
	reg.Counter(prefix+"/nic/tx-sent", "pkts", "packets serialized onto the wire",
		func() float64 { return float64(n.TxSent.Total()) })
	reg.Gauge(prefix+"/nic/rx-bytes", "bytes", "rx buffer occupancy",
		func() float64 { return float64(n.rxBytes) })
	reg.Gauge(prefix+"/nic/free-descriptors", "descriptors", "available rx descriptors",
		func() float64 { return float64(n.descFree) })
	reg.Histogram(prefix+"/nic/queue-delay", "ns", "rx-buffer residence before DMA",
		n.QueueDelay)
	if n.cfg.PFC.Enabled {
		reg.Counter(prefix+"/nic/pfc/pause-asserts", "events", "rx-buffer XOFF assertions toward the fabric",
			func() float64 { return float64(n.PauseAsserts.Total()) })
		reg.Counter(prefix+"/nic/pfc/watchdog-releases", "events", "tx pauses force-released by the watchdog",
			func() float64 { return float64(n.WatchdogReleases.Total()) })
		reg.Counter(prefix+"/nic/pfc/cnps-sent", "pkts", "congestion notification packets generated from CE marks",
			func() float64 { return float64(n.CNPsSent.Total()) })
		reg.Counter(prefix+"/nic/pfc/headroom-drops", "pkts", "packets lost despite PFC (headroom exhausted)",
			func() float64 { return float64(n.HeadroomDrops.Total()) })
		reg.Gauge(prefix+"/nic/pfc/tx-paused", "bool", "transmit path pause-gated by the switch",
			func() float64 {
				if n.txPaused {
					return 1
				}
				return 0
			})
	}
}

// SetOutput attaches the transmit side to the fabric.
func (n *NIC) SetOutput(out func(*packet.Packet)) { n.out = out }

// Receive accepts a packet from the wire; it is dropped if the rx buffer
// is full (the only loss point in the host network).
func (n *NIC) Receive(p *packet.Packet) {
	n.Arrivals.Inc()
	if n.rxFault != nil && n.rxFault(p) {
		n.FaultDrops.Inc()
		if n.tr != nil {
			n.tr.Instant(telemetry.HopNICQueue, "nic-fault-drop", n.e.Now(),
				telemetry.KV{Key: "seq", Val: float64(p.Seq)})
		}
		n.pool.Put(p)
		return
	}
	if n.rxBytes+p.WireLen() > n.cfg.RxBufferBytes {
		// In lossless mode this is a headroom overrun: pause was asserted
		// at XOFF and the in-flight data still overran the buffer — an
		// accounted provisioning failure, not normal operation.
		n.Drops.Inc()
		if n.cfg.PFC.Enabled {
			n.HeadroomDrops.Inc()
		}
		if n.tr != nil {
			n.tr.Instant(telemetry.HopNICQueue, "nic-drop", n.e.Now(),
				telemetry.KV{Key: "seq", Val: float64(p.Seq)},
				telemetry.KV{Key: "bytes", Val: float64(p.WireLen())})
		}
		n.pool.Put(p)
		return
	}
	if n.cfg.PFC.Enabled && p.ECN == packet.CE && p.IsData() {
		n.maybeSendCNP(p)
	}
	n.tr.PacketSpanBegin(telemetry.HopNICQueue, p, n.e.Now())
	n.rxQ.Push(rxEntry{p: p, at: n.e.Now()})
	n.rxBytes += p.WireLen()
	n.rxOcc.Set(n.e.Now(), float64(n.rxBytes))
	if n.cfg.PFC.Enabled && !n.rxXoff && n.rxBytes > n.cfg.PFC.XoffBytes {
		n.setRxXoff(true)
	}
	n.pump()
}

// pump advances the DMA engine: it issues TLPs of the head packet while
// credits allow, consuming a descriptor per packet.
func (n *NIC) pump() {
	for {
		if n.curIdx >= len(n.cur) {
			if n.rxQ.Len() == 0 {
				return
			}
			if n.descFree == 0 {
				n.stallCause = "rx-descriptors"
				return
			}
			p := n.rxQ.Peek().p
			n.cur = n.link.SegmentInto(p, n.cur[:0])
			n.curIdx = 0
		}
		t := n.cur[n.curIdx]
		if !n.link.TrySend(t) {
			n.stallCause = "pcie-credits"
			if !n.waiting {
				n.waiting = true
				n.link.NotifyCredits(n.creditResume)
			}
			return
		}
		if t.First {
			// DMA initiated: the packet leaves the NIC buffer and a
			// descriptor is consumed.
			n.DMAStarted.Inc()
			ent := n.rxQ.Pop()
			if n.tr != nil {
				cause := ""
				if n.e.Now() > ent.at {
					cause = n.stallCause
				}
				n.tr.PacketSpanEnd(telemetry.HopNICQueue, t.Pkt, n.e.Now(), cause)
			}
			n.QueueDelay.Add(float64(n.e.Now() - ent.at))
			n.rxBytes -= t.Pkt.WireLen()
			n.rxOcc.Set(n.e.Now(), float64(n.rxBytes))
			if n.rxXoff && n.rxBytes <= n.cfg.PFC.XonBytes {
				n.setRxXoff(false)
			}
			n.descFree--
		}
		n.cur[n.curIdx] = nil // ownership moved to the PCIe link
		n.curIdx++
	}
}

// ReleaseDescriptor recycles one rx descriptor once the CPU has processed
// a packet (driver replenishment, §2.1 step 2).
func (n *NIC) ReleaseDescriptor() {
	if n.descFree >= n.cfg.RxDescriptors {
		panic("nic: descriptor released without matching consume")
	}
	n.descFree++
	n.pump()
}

// Transmit queues a packet for sending.
func (n *NIC) Transmit(p *packet.Packet) {
	n.txQ.Push(p)
	n.txBytes += p.WireLen()
	n.txPump()
}

func (n *NIC) txPump() {
	if n.txBusy || n.txPaused || n.txQ.Len() == 0 {
		return
	}
	n.txBusy = true
	p := n.txQ.Pop()
	n.txBytes -= p.WireLen()

	if n.mc == nil {
		n.serialize(p)
		return
	}
	req := mem.Request{Size: p.WireLen(), Class: mem.ClassNetCopy}
	if n.cfg.TxBlockingReads {
		req.CompleteCB = sim.Callback{ID: n.txReadDoneH, Arg0: n.txSlots.Put(p)}
		n.mc.Submit(req)
		return
	}
	n.mc.Submit(req) // posted read
	n.serialize(p)
}

// serialize occupies the line for the packet's wire time, then txDone.
func (n *NIC) serialize(p *packet.Packet) {
	n.e.ScheduleAfter(n.cfg.LineRate.TimeFor(p.WireLen()), n.txDoneH, n.txSlots.Put(p), 0)
}

// txReadDone fires when a blocking transmit DMA read completes; arg0 is
// the packet's slot.
func (n *NIC) txReadDone(slot, _ uint64) {
	n.serialize(n.txSlots.Take(slot))
}

// txDone fires when the serializer finishes a packet; arg0 is its slot.
func (n *NIC) txDone(slot, _ uint64) {
	p := n.txSlots.Take(slot)
	n.TxSent.Inc()
	if n.out != nil {
		n.out(p)
	}
	n.txBusy = false
	n.txPump()
}

// SetRxFault installs the receive fault hook (nil removes it).
func (n *NIC) SetRxFault(fn func(*packet.Packet) bool) { n.rxFault = fn }

// RxQueuedBytes returns the current rx buffer occupancy.
func (n *NIC) RxQueuedBytes() int { return n.rxBytes }

// RxQueuedPackets returns the number of packets buffered awaiting DMA,
// including the one whose DMA is in progress (invariant accounting).
func (n *NIC) RxQueuedPackets() int { return n.rxQ.Len() }

// WaitingForCredits reports whether the DMA engine is parked on a PCIe
// credit wakeup (the free pool cannot cover the head TLP).
func (n *NIC) WaitingForCredits() bool { return n.waiting }

// TxQueuedBytes returns bytes waiting in the transmit queue.
func (n *NIC) TxQueuedBytes() int { return n.txBytes }

// FreeDescriptors returns the available descriptor count.
func (n *NIC) FreeDescriptors() int { return n.descFree }

// DropRate returns lifetime drops/arrivals (use counters' Mark/SinceMark
// for windowed rates).
func (n *NIC) DropRate() float64 {
	if n.Arrivals.Total() == 0 {
		return 0
	}
	return float64(n.Drops.Total()) / float64(n.Arrivals.Total())
}

// WindowDropRate returns drops/arrivals since the counters were marked.
func (n *NIC) WindowDropRate() float64 {
	a := n.Arrivals.SinceMark()
	if a == 0 {
		return 0
	}
	return float64(n.Drops.SinceMark()) / float64(a)
}

// MarkWindow begins a measurement window on the NIC counters.
func (n *NIC) MarkWindow() {
	n.Arrivals.Mark()
	n.Drops.Mark()
	n.TxSent.Mark()
}

// Validate reports the first invalid parameter (New panics on the same
// conditions; Validate lets callers check first).
func (c Config) Validate() error {
	if c.RxBufferBytes <= 0 {
		return fmt.Errorf("nic: RxBufferBytes %d must be positive", c.RxBufferBytes)
	}
	if c.RxDescriptors <= 0 {
		return fmt.Errorf("nic: RxDescriptors %d must be positive", c.RxDescriptors)
	}
	if c.LineRate <= 0 {
		return fmt.Errorf("nic: LineRate %v must be positive", c.LineRate)
	}
	return c.PFC.Validate(c.RxBufferBytes)
}
