// Package pcie models the peripheral interconnect between the NIC and the
// IIO: a lossless link with credit-based flow control (§2.1).
//
// DMA is executed as Transaction Layer Packets (TLPs). The NIC may issue a
// TLP only while enough credits are available; the IIO replenishes a TLP's
// credits only once it has issued the corresponding write to the memory
// system. When memory is congested, replenishment slows, credits run out,
// the PCIe link goes idle, and the NIC buffer backs up — the middle of the
// paper's domino effect.
//
// Credits are accounted in 64-byte-line units so that IIO occupancy (the
// hostCC congestion signal) and the credit cap live on the same scale: the
// paper's servers show occupancy ≈65 uncongested and ≈93 (the credit
// limit) at saturation.
package pcie

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Config parameterizes the link. Defaults model PCIe 3.0 x16: 128 Gbps
// raw, with 26 B of TLP header per 486 B payload (so a full TLP occupies
// exactly eight 64 B lines, and ≈105 Gbps of PCIe bandwidth carries a
// 100 Gbps packet stream — the ~103 Gbps "including PCIe overheads"
// measured in Figure 8).
type Config struct {
	Rate        sim.Rate // raw link bandwidth
	Latency     sim.Time // NIC-to-IIO propagation (ℓp)
	TLPBytes    int      // max payload per TLP
	TLPOverhead int      // header bytes per TLP
	CreditLines int      // credit pool, in 64 B lines (P in §3.1)
}

// DefaultConfig returns the paper-calibrated link.
func DefaultConfig() Config {
	return Config{
		Rate:        sim.Gbps(128),
		Latency:     60 * sim.Nanosecond,
		TLPBytes:    486,
		TLPOverhead: 26,
		CreditLines: 93,
	}
}

// TLP is one transaction in flight from NIC to IIO. TLPs are recycled
// through a per-link free list: the NIC acquires them via SegmentInto and
// the IIO returns them with ReleaseTLP once the DMA write has been issued.
type TLP struct {
	Pkt       *packet.Packet
	DataBytes int  // packet bytes carried
	WireBytes int  // DataBytes + header overhead
	Lines     int  // credit lines consumed (ceil(WireBytes/64))
	First     bool // first TLP of its packet
	Last      bool // last TLP of its packet
}

// Link is the credit-flow-controlled NIC→IIO path.
type Link struct {
	e   *sim.Engine
	cfg Config

	credits   int
	busyUntil sim.Time
	deliver   func(*TLP)

	// waiters/waiterScratch double-buffer the credit waiter list: waking
	// waiters swaps the buffers instead of nil-ing the slice, so the NIC's
	// stall/resume cycle (one NotifyCredits per stall) never reallocates.
	waiters       []func()
	waiterScratch []func()

	// deliverH + inflight carry TLPs through propagation-delay events
	// without a closure per TLP; tlpFree recycles TLP structs.
	deliverH sim.HandlerID
	inflight sim.Slots[*TLP]
	tlpFree  []*TLP

	// Credit-stall fault injection: while engaged, credits released by
	// the IIO are sequestered instead of returning to the pool.
	stalled        bool
	stalledCredits int

	// canaryExtraCredit is a deliberately planted off-by-one: when armed,
	// clearing a credit stall returns one credit line more than was
	// sequestered. It exists so the crucible chaos search has a known bug
	// to find (the pool overflows the moment the leaked line meets a full
	// pool) and must never be set outside that self-test.
	canaryExtraCredit bool

	// Telemetry tracks (nil when disabled — Set is then a nil check).
	trCredits *telemetry.Track
	trStalls  *telemetry.Track

	// Stalls counts TLP issue attempts deferred for lack of credits.
	Stalls stats.Counter
	// Sent counts TLPs delivered to the IIO.
	Sent stats.Counter
	// Releases counts credit lines actually returned to the pool
	// (sequestered releases do NOT count — the liveness sentinel uses this
	// as its credit-motion probe, and a wedged release path must read flat).
	Releases stats.Counter
}

// NewLink creates a link delivering TLPs to the IIO via deliver.
func NewLink(e *sim.Engine, cfg Config, deliver func(*TLP)) *Link {
	if cfg.Rate <= 0 || cfg.TLPBytes <= 0 || cfg.CreditLines <= 0 {
		panic("pcie: invalid config")
	}
	if deliver == nil {
		panic("pcie: nil deliver")
	}
	l := &Link{e: e, cfg: cfg, credits: cfg.CreditLines, deliver: deliver}
	l.deliverH = e.Handler(l.deliverTLP)
	return l
}

// deliverTLP is the propagation-delay event handler; arg0 is the slot of
// the in-flight TLP.
func (l *Link) deliverTLP(slot, _ uint64) {
	t := l.inflight.Take(slot)
	l.Sent.Inc()
	l.deliver(t)
}

// Config returns the link configuration.
func (l *Link) Config() Config { return l.cfg }

// SetTracer attaches counter tracks for the credit pool and credit-stall
// count, named under prefix.
func (l *Link) SetTracer(t *telemetry.Tracer, prefix string) {
	l.trCredits = t.NewTrack(prefix+"/pcie/credits", "lines")
	l.trStalls = t.NewTrack(prefix+"/pcie/credit-stalls", "stalls")
	l.trCredits.Set(l.e.Now(), float64(l.credits))
}

// RegisterInstruments registers the link's metrics under prefix.
func (l *Link) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Counter(prefix+"/pcie/sent", "tlps", "TLPs delivered to the IIO",
		func() float64 { return float64(l.Sent.Total()) })
	reg.Counter(prefix+"/pcie/credit-stalls", "stalls", "TLP issues deferred for lack of credits",
		func() float64 { return float64(l.Stalls.Total()) })
	reg.Counter(prefix+"/pcie/credit-releases", "lines", "credit lines returned to the pool",
		func() float64 { return float64(l.Releases.Total()) })
	reg.Gauge(prefix+"/pcie/credits", "lines", "available credit lines",
		func() float64 { return float64(l.credits) })
}

// Credits returns the currently available credit lines.
func (l *Link) Credits() int { return l.credits }

// Segment splits a packet into TLPs.
func (l *Link) Segment(p *packet.Packet) []*TLP {
	return l.SegmentInto(p, nil)
}

// SegmentInto splits a packet into TLPs, appending to buf (reusing its
// backing array) and drawing TLP structs from the link's free list. The
// caller must hand every TLP onward to the IIO, which returns it with
// ReleaseTLP; in steady state segmentation allocates nothing.
func (l *Link) SegmentInto(p *packet.Packet, buf []*TLP) []*TLP {
	total := p.WireLen()
	tlps := buf[:0]
	for off := 0; off < total; off += l.cfg.TLPBytes {
		data := min(l.cfg.TLPBytes, total-off)
		wire := data + l.cfg.TLPOverhead
		t := l.getTLP()
		*t = TLP{
			Pkt:       p,
			DataBytes: data,
			WireBytes: wire,
			Lines:     (wire + 63) / 64,
			First:     off == 0,
			Last:      off+data >= total,
		}
		tlps = append(tlps, t)
	}
	return tlps
}

func (l *Link) getTLP() *TLP {
	if n := len(l.tlpFree); n > 0 {
		t := l.tlpFree[n-1]
		l.tlpFree[n-1] = nil
		l.tlpFree = l.tlpFree[:n-1]
		return t
	}
	return &TLP{}
}

// ReleaseTLP returns a TLP to the link's free list. The IIO calls this
// once it is done with the transaction; the TLP must not be referenced
// afterwards.
func (l *Link) ReleaseTLP(t *TLP) {
	t.Pkt = nil
	l.tlpFree = append(l.tlpFree, t)
}

// TrySend issues one TLP if credits allow, consuming its credits and
// occupying the link for its serialization time. It reports whether the
// TLP was accepted. On refusal the caller should wait for NotifyCredits.
func (l *Link) TrySend(t *TLP) bool {
	if t.Lines > l.cfg.CreditLines {
		panic("pcie: TLP larger than the entire credit pool")
	}
	if l.credits < t.Lines {
		l.Stalls.Inc()
		l.trStalls.Set(l.e.Now(), float64(l.Stalls.Total()))
		return false
	}
	l.credits -= t.Lines
	l.trCredits.Set(l.e.Now(), float64(l.credits))
	start := max(l.e.Now(), l.busyUntil)
	txDone := start + l.cfg.Rate.TimeFor(t.WireBytes)
	l.busyUntil = txDone
	l.e.Schedule(txDone+l.cfg.Latency, l.deliverH, l.inflight.Put(t), 0)
	return true
}

// ReleaseCredits returns lines to the pool (called by the IIO when a write
// has been issued to memory) and wakes any waiters. While a credit stall
// is engaged (fault injection) the lines are sequestered instead; they
// return to the pool when the stall clears.
func (l *Link) ReleaseCredits(lines int) {
	if lines <= 0 {
		panic("pcie: releasing non-positive credits")
	}
	if l.stalled {
		l.stalledCredits += lines
		if l.credits+l.stalledCredits > l.cfg.CreditLines {
			panic("pcie: credit pool overflow — release without matching consume")
		}
		return
	}
	l.credits += lines
	if l.credits > l.cfg.CreditLines {
		panic("pcie: credit pool overflow — release without matching consume")
	}
	l.Releases.Add(int64(lines))
	l.trCredits.Set(l.e.Now(), float64(l.credits))
	l.wakeWaiters()
}

// wakeWaiters runs and clears the registered credit waiters. Waiters
// registered during the wake (a resumed pump stalling again) land in the
// scratch buffer, which becomes the active list for the next release.
func (l *Link) wakeWaiters() {
	if len(l.waiters) == 0 {
		return
	}
	ws := l.waiters
	l.waiters = l.waiterScratch[:0]
	for i, w := range ws {
		ws[i] = nil
		w()
	}
	l.waiterScratch = ws[:0]
}

// ForceReclaim returns sequestered credits to the pool without clearing the
// stall — the sentinel's credit-timeout escape hatch, analogous to a PFC
// watchdog freeing a wedged priority. It returns the number of lines
// reclaimed. Releases issued while the stall remains engaged continue to be
// sequestered, so a persistent fault re-wedges until it clears.
func (l *Link) ForceReclaim() int {
	if l.stalledCredits == 0 {
		return 0
	}
	n := l.stalledCredits
	l.stalledCredits = 0
	l.credits += n
	if l.credits > l.cfg.CreditLines {
		panic("pcie: credit pool overflow — reclaim without matching consume")
	}
	l.Releases.Add(int64(n))
	l.trCredits.Set(l.e.Now(), float64(l.credits))
	l.wakeWaiters()
	return n
}

// NotifyCredits registers a one-shot callback invoked on the next credit
// release (the NIC's DMA engine uses this to resume a stalled pump).
func (l *Link) NotifyCredits(fn func()) {
	l.waiters = append(l.waiters, fn)
}

// SetStall engages or clears a replenishment stall (fault injection: a
// wedged IIO credit return path). While engaged, released credits are
// sequestered, the pool drains as the NIC keeps issuing, and DMA stops
// when it hits zero — the domino effect of §2.1 forced from the middle.
// Clearing the stall returns the sequestered credits and wakes waiters.
func (l *Link) SetStall(on bool) {
	if l.stalled == on {
		return
	}
	l.stalled = on
	if !on && l.stalledCredits > 0 {
		n := l.stalledCredits
		l.stalledCredits = 0
		if l.canaryExtraCredit {
			n++ // planted off-by-one: see ArmCanaryExtraCredit
		}
		l.ReleaseCredits(n)
	}
}

// ArmCanaryExtraCredit plants the canary bug: every credit-stall clear
// returns one extra line. FOR THE CRUCIBLE SELF-TEST ONLY — an armed
// canary breaks credit conservation by design.
func (l *Link) ArmCanaryExtraCredit() { l.canaryExtraCredit = true }

// CreditStalled reports whether a replenishment stall is engaged.
func (l *Link) CreditStalled() bool { return l.stalled }

// SequesteredCredits returns credits withheld by an engaged stall.
func (l *Link) SequesteredCredits() int { return l.stalledCredits }

// Validate reports the first invalid parameter (NewLink panics on the
// same conditions; Validate lets callers check first).
func (c Config) Validate() error {
	if c.Rate <= 0 {
		return fmt.Errorf("pcie: Rate %v must be positive", c.Rate)
	}
	if c.TLPBytes <= 0 {
		return fmt.Errorf("pcie: TLPBytes %d must be positive", c.TLPBytes)
	}
	if c.TLPOverhead < 0 {
		return fmt.Errorf("pcie: negative TLPOverhead %d", c.TLPOverhead)
	}
	if c.CreditLines <= 0 {
		return fmt.Errorf("pcie: CreditLines %d must be positive", c.CreditLines)
	}
	return nil
}
