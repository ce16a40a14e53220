package cpu

import (
	"repro/internal/mem"
	"repro/internal/sim"
)

// MAppConfig parameterizes the host-local memory-traffic application
// (the paper's MApp, driven by Intel MLC: 1:1 read-write ratio,
// sequential access).
type MAppConfig struct {
	// Cores generating traffic. The paper uses 8 cores per 1x degree of
	// host congestion.
	Cores int
	// LFB is the line-fill-buffer depth: the per-core cap on in-flight
	// memory requests (10-12 on the paper's servers, §2.2 footnote 3).
	LFB int
	// Efficiency derates the memory controller's service rate for this
	// access pattern (saturation bandwidth is workload-dependent and
	// below theoretical, §2.2 footnote 2).
	Efficiency float64
	// IssueOverhead is per-iteration latency outside the memory
	// controller (DRAM row activation spread across the LFB entries,
	// core issue logic). It calibrates the unloaded per-core bandwidth:
	// LFB×64B / (IssueOverhead + controller latency) ≈ 2 GBps, matching
	// the paper's 16 GBps for 8 cores at 1x.
	IssueOverhead sim.Time
}

// DefaultMAppConfig returns the calibrated per-unit configuration; degree
// of host congestion scales Cores (8 → 1x, 16 → 2x, 24 → 3x).
func DefaultMAppConfig(degree float64) MAppConfig {
	return MAppConfig{
		Cores:         int(8*degree + 0.5),
		LFB:           11,
		Efficiency:    0.85,
		IssueOverhead: 190 * sim.Nanosecond,
	}
}

// MApp generates CPU-to-memory traffic from a set of cores. Each core is
// a closed loop holding LFB×64 B outstanding: it issues a request, waits
// for completion plus the MBA-imposed delay, and issues the next. This
// reproduces the two behaviours §2.2 documents: bandwidth proportional to
// core count, and throughput inversely proportional to per-access latency
// under MBA throttling (§4.2).
type MApp struct {
	e   *sim.Engine
	mc  *mem.Controller
	mba *MBA
	cfg MAppConfig

	running bool
	parked  int // cores idled by an MBA pause level or an injected stall

	stalled bool    // fault injection: all cores parked
	burst   float64 // fault injection: issue-overhead divisor (0 or 1 = off)

	// doneH retires a core's memory request; issueH issues its next one
	// after the per-iteration delay. Cores are interchangeable, so
	// neither event carries state.
	doneH, issueH sim.HandlerID
}

// NewMApp creates the traffic generator. mba may be nil (never throttled).
func NewMApp(e *sim.Engine, mc *mem.Controller, mba *MBA, cfg MAppConfig) *MApp {
	if cfg.Cores < 0 {
		panic("cpu: negative MApp cores")
	}
	if cfg.LFB <= 0 {
		cfg.LFB = 11
	}
	if cfg.Efficiency == 0 {
		cfg.Efficiency = 1
	}
	a := &MApp{e: e, mc: mc, mba: mba, cfg: cfg}
	a.doneH = e.Handler(a.requestDone)
	a.issueH = e.Handler(func(uint64, uint64) { a.coreIssue() })
	if mba != nil {
		mba.OnChange(func(_, _ int) { a.resumeParked() })
	}
	return a
}

// Stall parks every core as its in-flight request completes (fault
// injection: the MApp hits a lock, a page fault storm, or is scheduled
// out). Resume restarts the parked cores.
func (a *MApp) Stall() { a.stalled = true }

// Resume clears an injected stall and restarts parked cores.
func (a *MApp) Resume() {
	if !a.stalled {
		return
	}
	a.stalled = false
	a.resumeParked()
}

// SetBurst scales the MApp's issue aggressiveness: factor > 1 divides the
// per-iteration issue overhead, modeling a phase change to a hotter access
// pattern (fault injection). Factor <= 1 restores the calibrated rate.
func (a *MApp) SetBurst(factor float64) {
	if factor <= 1 {
		factor = 0
	}
	a.burst = factor
}

// RequestBytes is the per-iteration request size of one core: a full
// line-fill buffer worth of cachelines.
func (a *MApp) RequestBytes() int { return a.cfg.LFB * mem.CacheLine }

// Start launches the core loops. Calling Start twice panics.
func (a *MApp) Start() {
	if a.running {
		panic("cpu: MApp started twice")
	}
	a.running = true
	for i := 0; i < a.cfg.Cores; i++ {
		a.coreIssue()
	}
}

// Stop parks all cores after their in-flight requests complete.
func (a *MApp) Stop() { a.running = false }

func (a *MApp) coreIssue() {
	if !a.running {
		return
	}
	if a.stalled || (a.mba != nil && a.mba.Paused()) {
		a.parked++
		return
	}
	a.mc.Submit(mem.Request{
		Size:       a.RequestBytes(),
		Class:      mem.ClassMApp,
		Efficiency: a.cfg.Efficiency,
		Weight:     a.cfg.LFB,
		CompleteCB: sim.Callback{ID: a.doneH},
	})
}

// requestDone is a core's completion handler: the next request issues
// after the per-iteration overhead plus the MBA-imposed delay.
func (a *MApp) requestDone(_, _ uint64) {
	delay := a.cfg.IssueOverhead
	if a.burst > 1 {
		delay = sim.Time(float64(delay) / a.burst)
	}
	if a.mba != nil {
		delay += a.mba.Delay()
	}
	if delay > 0 {
		a.e.ScheduleAfter(delay, a.issueH, 0, 0)
	} else {
		a.coreIssue()
	}
}

func (a *MApp) resumeParked() {
	if a.stalled || (a.mba != nil && a.mba.Paused()) || a.parked == 0 {
		return
	}
	n := a.parked
	a.parked = 0
	for i := 0; i < n; i++ {
		a.coreIssue()
	}
}

// Cores returns the configured number of traffic-generating cores.
func (a *MApp) Cores() int { return a.cfg.Cores }

// Parked returns how many cores are currently paused (diagnostics).
func (a *MApp) Parked() int { return a.parked }
