package fabric

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// PFCConfig parameterizes priority flow control on a switch. With PFC
// enabled the switch accounts buffer occupancy per *ingress* (the link a
// packet arrived on) and, instead of drop-tail, asserts a pause frame
// toward an ingress whose occupancy crosses XoffBytes; the headroom
// absorbs the data already in flight while the pause frame propagates.
// The ingress resumes (XON) once its occupancy drains to XonBytes.
//
// This is the standard 802.1Qbb buffer model (one priority class): the
// thresholds are derived from the port buffer, and Validate rejects
// headroom/threshold combinations that cannot be lossless.
type PFCConfig struct {
	Enabled bool
	// XoffBytes: per-ingress occupancy above which pause is asserted.
	XoffBytes int
	// XonBytes: occupancy at or below which pause is released. Must not
	// exceed XoffBytes (hysteresis prevents pause-frame flapping).
	XonBytes int
	// HeadroomBytes absorbs in-flight data after XOFF: at least
	// 2×(link rate × propagation delay) plus a frame allowance, or the
	// "lossless" fabric silently loses packets. Build enforces this
	// against the actual trunk configuration.
	HeadroomBytes int
	// ResumeTimeout, when positive, is the PFC watchdog: a port held
	// paused this long is force-released (and counted), bounding the
	// damage of a lost XON or a malfunctioning peer.
	ResumeTimeout sim.Time
}

// DefaultPFCConfig derives lossless thresholds from a port buffer size:
// XOFF at a quarter of the buffer, XON at an eighth, and a quarter
// reserved as headroom. For the default 1 MiB buffer and 100 Gbps / 9 µs
// links this leaves 256 KiB of headroom against a ~225 KiB 2×BDP
// requirement. The watchdog is off by default — storm containment is a
// policy the testbed opts into.
func DefaultPFCConfig(portBufferBytes int) PFCConfig {
	return PFCConfig{
		Enabled:       true,
		XoffBytes:     portBufferBytes / 4,
		XonBytes:      portBufferBytes / 8,
		HeadroomBytes: portBufferBytes / 4,
	}
}

// Validate reports the first inconsistent PFC parameter (in the context
// of the given port buffer size).
func (c PFCConfig) Validate(portBufferBytes int) error {
	if !c.Enabled {
		return nil
	}
	if c.XoffBytes <= 0 {
		return fmt.Errorf("fabric: PFC XoffBytes %d must be positive", c.XoffBytes)
	}
	if c.XonBytes <= 0 || c.XonBytes > c.XoffBytes {
		return fmt.Errorf("fabric: PFC XonBytes %d must be in (0, XoffBytes %d]", c.XonBytes, c.XoffBytes)
	}
	if c.HeadroomBytes <= 0 {
		return fmt.Errorf("fabric: PFC HeadroomBytes %d must be positive", c.HeadroomBytes)
	}
	if c.XoffBytes+c.HeadroomBytes > portBufferBytes {
		return fmt.Errorf("fabric: PFC XoffBytes %d + HeadroomBytes %d exceed PortBufferBytes %d",
			c.XoffBytes, c.HeadroomBytes, portBufferBytes)
	}
	if c.ResumeTimeout < 0 {
		return fmt.Errorf("fabric: negative PFC ResumeTimeout %v", c.ResumeTimeout)
	}
	return nil
}

// headroomFor is the minimum lossless headroom for a link: two
// bandwidth-delay products (the pause frame travels upstream while data
// keeps arriving downstream) plus two maximum-size frames for the packet
// in serialization at each end.
func headroomFor(cfg LinkConfig, maxFrame int) int {
	return int(cfg.Rate.BytesIn(2*cfg.Delay)) + 2*maxFrame
}

// Ingress tracks the buffer occupancy attributable to one input link of a
// PFC switch, and owns that ingress's XOFF/XON state. Created with
// NewIngress; packets arriving on the ingress enter via InjectFrom.
type Ingress struct {
	sw     *Switch
	name   string
	delay  sim.Time      // pause-frame flight time back to the sender
	pauseH sim.HandlerID // lands a pause frame upstream; arg1 is on
	occ    int
	xoff   bool

	// Xoffs counts XOFF assertions on this ingress.
	Xoffs stats.Counter
}

// NewIngress registers an ingress on a PFC-enabled switch. pause is
// invoked (after delay, modeling the pause frame's flight) with true on
// XOFF and false on XON.
func (s *Switch) NewIngress(name string, delay sim.Time, pause func(bool)) *Ingress {
	if !s.cfg.PFC.Enabled {
		panic("fabric: NewIngress on a switch without PFC enabled")
	}
	if pause == nil {
		panic("fabric: nil ingress pause target")
	}
	ig := &Ingress{sw: s, name: name, delay: delay}
	ig.pauseH = s.e.Handler(func(_, on uint64) { pause(on != 0) })
	s.ingresses = append(s.ingresses, ig)
	return ig
}

// Occupancy returns the bytes currently buffered from this ingress.
func (ig *Ingress) Occupancy() int { return ig.occ }

// Xoff reports whether the ingress currently holds its sender paused.
func (ig *Ingress) Xoff() bool { return ig.xoff }

// admit charges an arriving packet against the ingress quota, asserting
// XOFF at the threshold. It reports false when even the headroom is
// exhausted — a provisioning failure, accounted by the caller as a drop.
func (ig *Ingress) admit(wire int) bool {
	pfc := &ig.sw.cfg.PFC
	if ig.occ+wire > pfc.XoffBytes+pfc.HeadroomBytes {
		return false
	}
	ig.occ += wire
	if !ig.xoff && ig.occ > pfc.XoffBytes {
		ig.setXoff(true)
	}
	return true
}

// release returns buffer bytes to the ingress quota when its packet
// leaves the switch, deasserting pause at the XON threshold.
func (ig *Ingress) release(wire int) {
	ig.occ -= wire
	if ig.xoff && ig.occ <= ig.sw.cfg.PFC.XonBytes {
		ig.setXoff(false)
	}
}

func (ig *Ingress) setXoff(on bool) {
	ig.xoff = on
	if on {
		ig.Xoffs.Inc()
	}
	ig.sw.sendPause(ig.delay, ig.pauseH, 0, on)
}

// sendPause models one pause frame leaving this switch: counted, subject
// to the injected pause-frame-loss fault (a lost XON is how real PFC
// storms begin), and landed after its flight time as an event of handler
// h with arguments (arg0, on).
func (s *Switch) sendPause(delay sim.Time, h sim.HandlerID, arg0 uint64, on bool) {
	s.PauseFrames.Inc()
	if s.pauseFault != nil && s.pauseFault() {
		s.PauseLost.Inc()
		return
	}
	var b uint64
	if on {
		b = 1
	}
	s.e.ScheduleAfter(delay, h, arg0, b)
}

// SetPauseFault installs a per-pause-frame loss predicate (fault
// injection). A true return discards the frame after counting it.
func (s *Switch) SetPauseFault(fn func() bool) { s.pauseFault = fn }

// PausePortFrom models a pause frame emitted by the device attached to
// port p (a host NIC) toward this switch: counted and fault-injectable
// like any pause frame this switch handles, applied after the frame's
// flight time.
func (s *Switch) PausePortFrom(p PortID, delay sim.Time, on bool) {
	s.sendPause(delay, s.portPauseH, uint64(p), on)
}

// PortPause asserts (on=true) or releases (on=false) PFC pause on an
// output port — the downstream receiver telling this switch to stop
// transmitting. The in-flight packet finishes serializing; only new
// transmissions are gated.
func (s *Switch) PortPause(p PortID, on bool) {
	s.ports[p].setPause(on, false)
}

// SetPortForcedPause holds a port paused regardless of protocol XON
// frames (fault injection: a pause storm). Only the injector releases it
// — or the watchdog, if configured.
func (s *Switch) SetPortForcedPause(p PortID, on bool) {
	s.ports[p].setPause(on, true)
}

// PortPaused reports whether the port is currently pause-gated
// (protocol or forced).
func (s *Switch) PortPaused(p PortID) bool {
	o := s.ports[p]
	return o.paused || o.forced
}

// PortPausedFor returns the cumulative time the port has spent paused,
// including the current pause if one is in progress.
func (s *Switch) PortPausedFor(p PortID) sim.Time {
	o := s.ports[p]
	t := o.pausedTotal
	if o.paused || o.forced {
		t += s.e.Now() - o.pausedAt
	}
	return t
}

// IngressOccupancy sums buffered bytes across all PFC ingresses.
func (s *Switch) IngressOccupancy() int {
	var n int
	for _, ig := range s.ingresses {
		n += ig.occ
	}
	return n
}

// setPause tracks the two pause sources (protocol, forced) and reacts to
// transitions of their union: accounting, tracer range, watchdog arm,
// and pump on release.
func (o *outPort) setPause(on, forced bool) {
	was := o.paused || o.forced
	if forced {
		o.forced = on
	} else {
		o.paused = on
	}
	now := o.paused || o.forced
	if now == was {
		return
	}
	e := o.sw.e
	o.pauseGen++
	if now {
		o.pausedAt = e.Now()
		o.sw.PauseAsserts.Inc()
		if o.sw.tr != nil {
			o.sw.tr.RangeBegin(telemetry.HopPause, o.trPauseID, e.Now())
		}
		if to := o.sw.cfg.PFC.ResumeTimeout; to > 0 {
			e.ScheduleAfter(to, o.watchdogH, o.pauseGen, 0)
		}
	} else {
		o.pausedTotal += e.Now() - o.pausedAt
		if o.sw.tr != nil {
			o.sw.tr.RangeEnd(telemetry.HopPause, o.trPauseID, e.Now(), "")
		}
		o.pump()
	}
}

// watchdog is the PFC watchdog's handler; arg0 is the pause generation
// it was armed under, so a pause that has since ended is left alone.
func (o *outPort) watchdog(gen, _ uint64) {
	if o.pauseGen == gen && (o.paused || o.forced) {
		o.sw.WatchdogReleases.Inc()
		o.forceRelease()
	}
}

// forceRelease clears every pause source (watchdog / escape hatch).
func (o *outPort) forceRelease() {
	if o.forced {
		o.setPause(false, true)
	}
	if o.paused {
		o.setPause(false, false)
	}
}

// InjectFrom delivers a packet that arrived on a PFC-tracked ingress.
func (s *Switch) InjectFrom(ig *Ingress, p *packet.Packet) {
	port := s.routeFor(p.Flow.Dst)
	if port == noRoute {
		panic(fmt.Sprintf("fabric: no route to host %d", p.Flow.Dst))
	}
	s.ports[port].enqueueFrom(ig, p)
}

// pauseRangeID derives a stable, process-independent tracer range id for
// a port's pause spans from its switch prefix and port name (FNV-1a).
func pauseRangeID(prefix, name string) uint64 {
	const (
		offset64 = 14695981039346656037
		prime64  = 1099511628211
	)
	h := uint64(offset64)
	for i := 0; i < len(prefix); i++ {
		h = (h ^ uint64(prefix[i])) * prime64
	}
	h = (h ^ uint64('/')) * prime64
	for i := 0; i < len(name); i++ {
		h = (h ^ uint64(name[i])) * prime64
	}
	return h
}
