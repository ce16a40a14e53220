// Package faults is a deterministic, seed-driven fault-injection
// subsystem for the hostCC testbed. The paper's kernel module runs on
// real hardware where MSR reads stall or fail outright, MBA writes get
// silently ignored, links flap, and NICs shed packets under pressure;
// this package reproduces those failure modes through the explicit seams
// the hardware models expose (msr.File.SetReadFault, cpu.MBA.SetWriteFault,
// nic.NIC.SetRxFault, fabric.Link.SetDown, pcie.Link.SetStall,
// cpu.MApp.Stall/SetBurst) so that hostCC's control loop can be exercised
// against the conditions it was designed to tolerate.
//
// Faults are scheduled on the simulation engine's clock from a Plan — a
// small scenario DSL of one-shot, periodic, and probabilistic injectors —
// and all randomness is drawn from the engine's seeded RNG, so every
// chaos run is reproducible from (seed, plan).
package faults

import (
	"fmt"
	"math"

	"repro/internal/sim"
)

// Kind identifies one class of injectable fault.
type Kind int

// Fault kinds, one per hardware seam.
const (
	// MSRStale makes MSR reads return the previous successful snapshot
	// (a counter that stopped counting). Magnitude: unused.
	MSRStale Kind = iota
	// MSRFail makes MSR reads complete with msr.ErrReadFailed.
	MSRFail
	// MSRLatency adds Magnitude nanoseconds to every MSR read
	// (interconnect contention spike, SMI storm).
	MSRLatency
	// MBADrop makes MBA MSR writes retire without taking effect.
	MBADrop
	// MBADelay adds Magnitude nanoseconds to every MBA write's retire
	// latency.
	MBADelay
	// NICDrop drops arriving packets at the NIC before buffer admission
	// (burst PHY loss). Probability applies per packet.
	NICDrop
	// LinkFlap takes every fabric link down for the window.
	LinkFlap
	// PCIeStall wedges PCIe credit replenishment for the window.
	PCIeStall
	// MAppStall parks all MApp cores for the window.
	MAppStall
	// MAppBurst scales MApp issue aggressiveness by Magnitude (>1).
	MAppBurst
	// PauseStorm forces PFC pause asserted on the targeted trunk ports
	// for the window (a malfunctioning peer emitting continuous pause
	// frames — the classic storm mechanism). Requires a lossless fabric
	// and a Seams.Pause target list.
	PauseStorm
	// PauseLoss drops PFC pause frames in flight with probability Prob —
	// a lost XON leaves the peer paused until the watchdog (if armed)
	// force-releases it. Applies per frame at every Seams.Switches entry.
	PauseLoss
	numKinds
)

// legacyKinds marks the end of the pre-PFC kind set. Injector snapshots
// encode per-kind state for these kinds unconditionally and for the PFC
// kinds only when the plan uses them, keeping old recordings
// byte-identical.
const legacyKinds = PauseStorm

var kindNames = [numKinds]string{
	"msr-stale", "msr-fail", "msr-latency", "mba-drop", "mba-delay",
	"nic-drop", "link-flap", "pcie-stall", "mapp-stall", "mapp-burst",
	"pause-storm", "pause-loss",
}

func (k Kind) String() string {
	if k < 0 || k >= numKinds {
		return "unknown"
	}
	return kindNames[k]
}

// ParseKind resolves a kind name ("pcie-stall", "nic-drop", ...) back to
// its Kind — the inverse of String, used by serialized scenario formats
// (crucible repro files) so fault plans survive a JSON round trip.
func ParseKind(name string) (Kind, error) {
	for k, n := range kindNames {
		if n == name {
			return Kind(k), nil
		}
	}
	return 0, fmt.Errorf("faults: unknown kind %q", name)
}

// Injection is one scheduled fault: a Kind active over one or more
// windows. The zero Duration means the fault is active for a single
// instant only, which is meaningful solely for level-triggered kinds
// queried per event; window kinds (LinkFlap, PCIeStall, MAppStall,
// MAppBurst) need a positive Duration.
type Injection struct {
	Kind Kind
	// At is the window start, on the simulation clock.
	At sim.Time
	// Duration is the window length.
	Duration sim.Time
	// Period, when positive, repeats the window every Period after At.
	Period sim.Time
	// Count bounds the repetitions of a periodic injection (0 = one
	// window for one-shot; for periodic, 0 means unbounded).
	Count int
	// Prob is the per-event probability for event-triggered kinds (MSR
	// reads, MBA writes, NIC packets) while the window is active;
	// 0 means 1.0 (always).
	Prob float64
	// Magnitude is kind-specific: extra latency in nanoseconds for
	// MSRLatency/MBADelay, the issue-rate factor for MAppBurst.
	Magnitude float64
}

// OneShot returns a single fault window.
func OneShot(kind Kind, at, dur sim.Time) Injection {
	return Injection{Kind: kind, At: at, Duration: dur}
}

// Periodic returns a repeating fault window (count 0 = unbounded).
func Periodic(kind Kind, at, dur, period sim.Time, count int) Injection {
	return Injection{Kind: kind, At: at, Duration: dur, Period: period, Count: count}
}

// Probabilistic returns a window during which each event (read, write, or
// packet, per kind) faults independently with probability p.
func Probabilistic(kind Kind, at, dur sim.Time, p float64) Injection {
	return Injection{Kind: kind, At: at, Duration: dur, Prob: p}
}

// WithMagnitude sets the kind-specific magnitude.
func (i Injection) WithMagnitude(m float64) Injection {
	i.Magnitude = m
	return i
}

// Plan is a named fault scenario: a set of injections armed together.
type Plan struct {
	Name       string
	Injections []Injection
}

// Validate reports the first ill-formed injection in the plan.
func (p Plan) Validate() error {
	for n, inj := range p.Injections {
		if inj.Kind < 0 || inj.Kind >= numKinds {
			return fmt.Errorf("faults: injection %d: unknown kind %d", n, int(inj.Kind))
		}
		if inj.At < 0 || inj.Duration < 0 {
			return fmt.Errorf("faults: injection %d (%v): negative time", n, inj.Kind)
		}
		if inj.Period < 0 || (inj.Period > 0 && inj.Period <= inj.Duration) {
			return fmt.Errorf("faults: injection %d (%v): period must exceed duration", n, inj.Kind)
		}
		if inj.Count < 0 {
			return fmt.Errorf("faults: injection %d (%v): negative count %d", n, inj.Kind, inj.Count)
		}
		if !(inj.Prob >= 0 && inj.Prob <= 1) { // NaN fails both
			return fmt.Errorf("faults: injection %d (%v): probability %v outside [0,1]", n, inj.Kind, inj.Prob)
		}
		if inj.Kind == MAppBurst && !(inj.Magnitude > 1) {
			return fmt.Errorf("faults: injection %d: MAppBurst needs magnitude > 1", n)
		}
		switch inj.Kind {
		case LinkFlap, PCIeStall, MAppStall, MAppBurst, PauseStorm:
			if inj.Duration <= 0 {
				return fmt.Errorf("faults: injection %d (%v): window kind needs a positive duration", n, inj.Kind)
			}
		}
		if _, ok := inj.end(); !ok {
			return fmt.Errorf("faults: injection %d (%v): last window ends past the end of simulated time", n, inj.Kind)
		}
	}
	return nil
}

// end returns the instant the injection's last window clears (the first
// window for an unbounded periodic injection), and false when that
// instant overflows sim.Time. The fields must be non-negative.
func (inj Injection) end() (sim.Time, bool) {
	const maxTime = sim.Time(math.MaxInt64)
	end := inj.At
	if inj.Period > 0 && inj.Count > 1 {
		n := sim.Time(inj.Count - 1)
		if inj.Period > (maxTime-end)/n {
			return 0, false
		}
		end += n * inj.Period
	}
	if inj.Duration > maxTime-end {
		return 0, false
	}
	return end + inj.Duration, true
}

// End returns the instant the last window of the plan clears (periodic
// unbounded injections report the horizon of their first Count=0 window;
// callers running unbounded plans pick their own horizon).
func (p Plan) End() sim.Time {
	var end sim.Time
	for _, inj := range p.Injections {
		if last, _ := inj.end(); last > end {
			end = last
		}
	}
	return end
}
