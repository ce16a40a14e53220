package faults

import (
	"fmt"
	"slices"

	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/msr"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// Seams collects the fault-injection attachment points of one testbed.
// Any field may be nil; injections targeting a missing seam are ignored
// (so one plan can run against differently-shaped testbeds).
type Seams struct {
	MSR   *msr.File
	MBA   *cpu.MBA
	NIC   *nic.NIC
	PCIe  *pcie.Link
	Links []*fabric.Link
	MApp  *cpu.MApp
	// Pause is the PauseStorm target list: each closure forces PFC pause
	// asserted (true) or released (false) on one fabric port, typically
	// built from fabric.TrunkPort entries.
	Pause []func(bool)
	// Switches is the PauseLoss seam: every switch whose pause frames may
	// be dropped in flight.
	Switches []*fabric.Switch
}

// Event records one window transition, for tests and diagnostics.
type Event struct {
	At     sim.Time
	Kind   Kind
	Active bool // true = window opened, false = window cleared
}

// Injector arms a Plan against a set of seams on one engine. Overlapping
// windows of the same kind are reference-counted; event-level faults
// (MSR, MBA, NIC) are drawn per event from the engine's seeded RNG.
type Injector struct {
	e    *sim.Engine
	plan Plan
	s    Seams

	active [numKinds]int     // refcount of open windows per kind
	prob   [numKinds]float64 // per-event probability while active
	mag    [numKinds]float64 // magnitude while active
	armed  bool
	// openH and closeH open and close window arg1 of injection arg0.
	openH, closeH sim.HandlerID
	// ext reports whether the plan uses any post-legacy kind; snapshots
	// append the extended per-kind state only then, so recordings of old
	// plans keep their original byte layout.
	ext bool

	// Events is the ordered log of window transitions.
	Events []Event
	// Injected counts event-level faults actually applied, per kind.
	Injected [numKinds]int64
}

// NewInjector binds a plan to seams. The plan is validated eagerly.
func NewInjector(e *sim.Engine, plan Plan, s Seams) (*Injector, error) {
	if err := plan.Validate(); err != nil {
		return nil, err
	}
	plan.Injections = slices.Clone(plan.Injections)
	in := &Injector{e: e, plan: plan, s: s}
	in.openH = e.Handler(func(i, _ uint64) { in.open(in.plan.Injections[i]) })
	in.closeH = e.Handler(in.closeWindow)
	for _, inj := range plan.Injections {
		if inj.Kind >= legacyKinds {
			in.ext = true
		}
	}
	return in, nil
}

// MustNewInjector is NewInjector, panicking on an invalid plan.
func MustNewInjector(e *sim.Engine, plan Plan, s Seams) *Injector {
	in, err := NewInjector(e, plan, s)
	if err != nil {
		panic(err)
	}
	return in
}

// Plan returns the armed plan.
func (in *Injector) Plan() Plan { return in.plan }

// Active reports whether any window of the given kind is open.
func (in *Injector) Active(k Kind) bool { return in.active[k] > 0 }

// Arm installs the event-level hooks and schedules every window of the
// plan. It must be called at most once.
func (in *Injector) Arm() {
	if in.armed {
		panic("faults: injector armed twice")
	}
	in.armed = true
	in.installHooks()
	for i, inj := range in.plan.Injections {
		reps := 1
		if inj.Period > 0 {
			// Count 0 is unbounded: each window is scheduled as the
			// previous one clears (closeWindow), so the event queue never
			// holds more than one ahead.
			reps = max(inj.Count, 1)
		}
		for n := 0; n < reps; n++ {
			in.window(i, n)
		}
	}
}

// window schedules the opening and closing of window n of injection i.
func (in *Injector) window(i, n int) {
	inj := &in.plan.Injections[i]
	start := inj.At + sim.Time(n)*inj.Period
	in.e.Schedule(start, in.openH, uint64(i), uint64(n))
	in.e.Schedule(start+inj.Duration, in.closeH, uint64(i), uint64(n))
}

// closeWindow is closeH's handler; an unbounded periodic injection
// schedules its next window here.
func (in *Injector) closeWindow(i, n uint64) {
	inj := in.plan.Injections[i]
	in.close(inj)
	if inj.Period > 0 && inj.Count == 0 {
		in.window(int(i), int(n)+1)
	}
}

func (in *Injector) open(inj Injection) {
	k := inj.Kind
	in.active[k]++
	in.prob[k] = inj.Prob
	in.mag[k] = inj.Magnitude
	in.Events = append(in.Events, Event{At: in.e.Now(), Kind: k, Active: true})
	if in.active[k] > 1 {
		return // window already in force
	}
	switch k {
	case LinkFlap:
		for _, l := range in.s.Links {
			l.SetDown(true)
		}
	case PCIeStall:
		if in.s.PCIe != nil {
			in.s.PCIe.SetStall(true)
		}
	case MAppStall:
		if in.s.MApp != nil {
			in.s.MApp.Stall()
		}
	case MAppBurst:
		if in.s.MApp != nil {
			in.s.MApp.SetBurst(inj.Magnitude)
		}
	case PauseStorm:
		for _, f := range in.s.Pause {
			f(true)
		}
	}
}

func (in *Injector) close(inj Injection) {
	k := inj.Kind
	if in.active[k] <= 0 {
		panic(fmt.Sprintf("faults: closing inactive window %v", k))
	}
	in.active[k]--
	in.Events = append(in.Events, Event{At: in.e.Now(), Kind: k, Active: false})
	if in.active[k] > 0 {
		return
	}
	switch k {
	case LinkFlap:
		for _, l := range in.s.Links {
			l.SetDown(false)
		}
	case PCIeStall:
		if in.s.PCIe != nil {
			in.s.PCIe.SetStall(false)
		}
	case MAppStall:
		if in.s.MApp != nil {
			in.s.MApp.Resume()
		}
	case MAppBurst:
		if in.s.MApp != nil {
			in.s.MApp.SetBurst(1)
		}
	case PauseStorm:
		for _, f := range in.s.Pause {
			f(false)
		}
	}
}

// roll decides one event-level fault while a window of kind k is open.
func (in *Injector) roll(k Kind) bool {
	if in.active[k] == 0 {
		return false
	}
	if p := in.prob[k]; p > 0 && p < 1 {
		if in.e.Rand().Float64() >= p {
			return false
		}
	}
	in.Injected[k]++
	return true
}

// installHooks attaches the per-event fault hooks to the seams present.
func (in *Injector) installHooks() {
	if in.s.MSR != nil {
		in.s.MSR.SetReadFault(func(msr.Address) msr.ReadFault {
			var f msr.ReadFault
			if in.roll(MSRLatency) {
				f.ExtraLatency = sim.Time(in.mag[MSRLatency])
			}
			if in.roll(MSRFail) {
				f.Fail = true
			} else if in.roll(MSRStale) {
				f.Stale = true
			}
			return f
		})
	}
	if in.s.MBA != nil {
		in.s.MBA.SetWriteFault(func() cpu.WriteFault {
			var f cpu.WriteFault
			if in.roll(MBADelay) {
				f.ExtraLatency = sim.Time(in.mag[MBADelay])
			}
			if in.roll(MBADrop) {
				f.Drop = true
			}
			return f
		})
	}
	if in.s.NIC != nil {
		in.s.NIC.SetRxFault(func(*packet.Packet) bool {
			return in.roll(NICDrop)
		})
	}
	for _, sw := range in.s.Switches {
		sw.SetPauseFault(func() bool {
			return in.roll(PauseLoss)
		})
	}
}
