package nic

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
)

// PFCConfig makes the NIC's rx buffer lossless: instead of dropping at
// the buffer limit, the NIC asserts PFC pause toward the fabric when
// occupancy crosses XoffBytes and releases it at XonBytes; the region
// above XOFF is headroom for data already in flight. The transmit side
// honours pause frames from the switch (SetTxPaused). CE-marked arrivals
// additionally generate CNPs — the NIC-hardware half of DCQCN.
type PFCConfig struct {
	Enabled bool
	// XoffBytes: rx occupancy above which pause is asserted upstream.
	XoffBytes int
	// XonBytes: occupancy at or below which pause is released.
	XonBytes int
	// ResumeTimeout, when positive, force-releases a stuck transmit
	// pause (PFC watchdog against lost XON frames).
	ResumeTimeout sim.Time
	// CNPInterval is the minimum per-flow spacing of congestion
	// notification packets (RoCEv2 NICs rate-limit CNP generation;
	// ~50 µs in hardware).
	CNPInterval sim.Time
}

// DefaultPFCConfig derives lossless NIC thresholds from the rx buffer:
// XOFF at half, XON at a quarter, leaving half the buffer as headroom
// (512 KiB against a ~225 KiB 2×BDP requirement at 100 Gbps / 9 µs).
func DefaultPFCConfig(rxBufferBytes int) PFCConfig {
	return PFCConfig{
		Enabled:     true,
		XoffBytes:   rxBufferBytes / 2,
		XonBytes:    rxBufferBytes / 4,
		CNPInterval: 50 * sim.Microsecond,
	}
}

// Validate reports the first inconsistent PFC parameter against the
// given rx buffer size.
func (c PFCConfig) Validate(rxBufferBytes int) error {
	if !c.Enabled {
		return nil
	}
	if c.XoffBytes <= 0 || c.XoffBytes >= rxBufferBytes {
		return fmt.Errorf("nic: PFC XoffBytes %d must be in (0, RxBufferBytes %d)", c.XoffBytes, rxBufferBytes)
	}
	if c.XonBytes <= 0 || c.XonBytes > c.XoffBytes {
		return fmt.Errorf("nic: PFC XonBytes %d must be in (0, XoffBytes %d]", c.XonBytes, c.XoffBytes)
	}
	if c.ResumeTimeout < 0 {
		return fmt.Errorf("nic: negative PFC ResumeTimeout %v", c.ResumeTimeout)
	}
	if c.CNPInterval <= 0 {
		return fmt.Errorf("nic: PFC CNPInterval %v must be positive", c.CNPInterval)
	}
	return nil
}

// SetPauseUpstream installs the rx buffer's pause target — typically
// fabric.HostPauser, which models the pause frame's flight to the leaf
// switch. Called with true on XOFF, false on XON.
func (n *NIC) SetPauseUpstream(fn func(bool)) { n.pauseUpstream = fn }

// SetTxPaused gates the transmit serializer (a pause frame from the
// switch). The packet being serialized finishes; only new transmissions
// wait. With ResumeTimeout configured, a stuck pause is force-released.
func (n *NIC) SetTxPaused(on bool) {
	if on == n.txPaused {
		return
	}
	n.txPaused = on
	n.txPauseGen++
	if on {
		n.txPausedAt = n.e.Now()
		if to := n.cfg.PFC.ResumeTimeout; to > 0 {
			n.e.ScheduleAfter(to, n.txWatchdogH, n.txPauseGen, 0)
		}
		return
	}
	n.txPausedTotal += n.e.Now() - n.txPausedAt
	n.txPump()
}

// txWatchdog is the PFC watchdog's handler; arg0 is the pause generation
// it was armed under, so a pause that has since ended is left alone.
func (n *NIC) txWatchdog(gen, _ uint64) {
	if n.txPauseGen == gen && n.txPaused {
		n.WatchdogReleases.Inc()
		n.SetTxPaused(false)
	}
}

// setRxXoff transitions the rx-side pause state and notifies upstream.
func (n *NIC) setRxXoff(on bool) {
	n.rxXoff = on
	if on {
		n.PauseAsserts.Inc()
	}
	if n.pauseUpstream != nil {
		n.pauseUpstream(on)
	}
}

// maybeSendCNP generates a congestion notification packet toward the
// sender of a CE-marked arrival, rate-limited per flow — the hardware
// CNP generation of a RoCEv2 NIC. The CNP travels the reverse flow and
// is consumed by the sender's DCQCN rate controller.
func (n *NIC) maybeSendCNP(p *packet.Packet) {
	if last, ok := n.cnpLast[p.Flow]; ok && n.e.Now()-last < n.cfg.PFC.CNPInterval {
		return
	}
	if n.cnpLast == nil {
		n.cnpLast = make(map[packet.FlowID]sim.Time)
	}
	n.cnpLast[p.Flow] = n.e.Now()
	cnp := n.pool.Get()
	cnp.Flow = p.Flow.Reverse()
	cnp.Flags = packet.FlagCNP
	n.CNPsSent.Inc()
	n.Transmit(cnp)
}
