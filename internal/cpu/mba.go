// Package cpu models the compute side of the host: the MApp cores that
// generate host-local CPU-to-memory traffic, the Memory Bandwidth
// Allocation (MBA) mechanism hostCC uses to backpressure them, and the
// network RX cores whose per-packet cost is coupled to memory latency.
package cpu

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Level is an MBA throttle level. Higher levels add more latency to every
// CPU memory access that misses L2, reducing the traffic a core can
// generate: throughput ≈ (LFB × cacheline)/per-access-latency (§4.2).
type Level struct {
	// Delay is added to each MApp memory request.
	Delay sim.Time
	// Pause stops the MApp cores entirely. The paper emulates this
	// "level 4" with SIGSTOP because real MBA's maximum latency is not
	// enough backpressure to reach line rate (§4.2, footnote 5).
	Pause bool
}

// MBAConfig parameterizes the throttling mechanism.
type MBAConfig struct {
	// Levels is the host-local response level table, mildest first.
	// The default 5 levels are calibrated so NetApp-T throughput at 3x
	// congestion steps ≈40/52/70/87/98 Gbps across levels 0-4 with DDIO
	// off — the shape of the paper's Figure 9 (43/55/65/77/~100).
	Levels []Level
	// WriteLatency is the time an MBA MSR write takes to retire; ~22 µs
	// on the paper's hardware — an MBA limitation hostCC must live with
	// (§4.2, §6).
	WriteLatency sim.Time
}

// DefaultMBAConfig returns the paper-calibrated level table.
func DefaultMBAConfig() MBAConfig {
	return MBAConfig{
		Levels: []Level{
			{Delay: 0},
			{Delay: 260 * sim.Nanosecond},
			{Delay: 700 * sim.Nanosecond},
			{Delay: 1250 * sim.Nanosecond},
			{Pause: true},
		},
		WriteLatency: 22 * sim.Microsecond,
	}
}

// WriteFault perturbs one MBA MSR write (fault injection). The zero value
// is a healthy write.
type WriteFault struct {
	// Drop makes the write retire without taking effect — the hardware
	// silently ignores the new level and the control plane is not told
	// (real MBA provides no completion status; a dropped CLOS update is
	// only observable by reading the level back).
	Drop bool
	// ExtraLatency is added to the write's retire latency.
	ExtraLatency sim.Time
}

// MBA is the memory-bandwidth-allocation control plane for one
// class-of-service (the MApp cores; network cores are in a separate COS
// and never throttled, as in §4.2).
type MBA struct {
	e   *sim.Engine
	cfg MBAConfig

	applied  int  // level currently in force
	target   int  // most recently requested level
	writing  bool // MSR write in flight
	onChange []func(old, new int)

	// The one in-flight write: the level it carries, whether fault
	// injection dropped it, and the handler that retires it.
	writeLevel int
	writeDrop  bool
	writeDoneH sim.HandlerID

	// writeFault, when set, is consulted once per MSR write.
	writeFault func() WriteFault

	// Writes counts MSR writes performed (ablation metric).
	Writes int64
	// LostWrites counts writes silently dropped by fault injection.
	LostWrites int64

	// Telemetry (nil when disabled): the applied-level counter track and
	// in-flight write spans (actuation latency, part of the hostCC
	// decision audit).
	tr       *telemetry.Tracer
	trLevel  *telemetry.Track
	writeSeq uint64
}

// NewMBA creates the MBA controller. Level changes are MSR writes that
// retire after the modeled WriteLatency (22 µs by default).
func NewMBA(e *sim.Engine, cfg MBAConfig) *MBA {
	if len(cfg.Levels) == 0 {
		panic("cpu: MBA needs at least one level")
	}
	m := &MBA{e: e, cfg: cfg}
	m.writeDoneH = e.Handler(m.writeDone)
	return m
}

// SetTracer attaches the applied-level counter track (named under
// prefix) and MSR-write spans.
func (m *MBA) SetTracer(t *telemetry.Tracer, prefix string) {
	m.tr = t
	m.trLevel = t.NewTrack(prefix+"/mba/level", "level")
	m.trLevel.Set(m.e.Now(), float64(m.applied))
}

// RegisterInstruments registers the MBA's metrics under prefix.
func (m *MBA) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"/mba/level", "level", "throttle level currently in force",
		func() float64 { return float64(m.applied) })
	reg.Counter(prefix+"/mba/writes", "writes", "MSR writes performed",
		func() float64 { return float64(m.Writes) })
	reg.Counter(prefix+"/mba/lost-writes", "writes", "writes silently dropped by fault injection",
		func() float64 { return float64(m.LostWrites) })
}

// NumLevels returns the number of configured response levels.
func (m *MBA) NumLevels() int { return len(m.cfg.Levels) }

// Level returns the throttle level currently in force.
func (m *MBA) Level() int { return m.applied }

// Target returns the most recently requested level.
func (m *MBA) Target() int { return m.target }

// Delay returns the added per-request latency at the current level.
func (m *MBA) Delay() sim.Time { return m.cfg.Levels[m.applied].Delay }

// Paused reports whether the current level pauses the MApp.
func (m *MBA) Paused() bool { return m.cfg.Levels[m.applied].Pause }

// OnChange registers a callback invoked whenever the applied level
// changes (the MApp uses this to park/resume cores).
func (m *MBA) OnChange(fn func(old, new int)) {
	m.onChange = append(m.onChange, fn)
}

// RequestLevel asks for a level change. The change takes effect after the
// MBA MSR write latency. Requests arriving while a write is in flight are
// coalesced: when the write retires, the latest target is written next.
// This serialization is exactly why the 22 µs write cost bounds hostCC's
// host-local response granularity (§6).
func (m *MBA) RequestLevel(l int) {
	if l < 0 || l >= len(m.cfg.Levels) {
		panic(fmt.Sprintf("cpu: MBA level %d out of range [0,%d)", l, len(m.cfg.Levels)))
	}
	m.target = l
	if m.writing || l == m.applied {
		return
	}
	m.startWrite()
}

// SetWriteFault installs the write-fault hook (nil removes it).
func (m *MBA) SetWriteFault(fn func() WriteFault) { m.writeFault = fn }

func (m *MBA) startWrite() {
	m.writing = true
	m.Writes++
	m.writeLevel = m.target
	var fault WriteFault
	if m.writeFault != nil {
		fault = m.writeFault()
	}
	m.writeDrop = fault.Drop
	m.tr.RangeBegin(telemetry.HopMBAWrite, m.writeSeq, m.e.Now())
	m.writeSeq++
	m.e.ScheduleAfter(m.cfg.WriteLatency+fault.ExtraLatency, m.writeDoneH, 0, 0)
}

// writeDone retires the in-flight write.
func (m *MBA) writeDone(_, _ uint64) {
	m.writing = false
	if m.tr != nil {
		cause := "applied"
		if m.writeDrop {
			cause = "dropped"
		}
		m.tr.RangeEnd(telemetry.HopMBAWrite, m.writeSeq-1, m.e.Now(), cause)
	}
	if m.writeDrop {
		// The hardware ate the write. Retry only if a newer target
		// arrived while it was in flight (the driver's coalescing
		// queue); an unchanged target is lost silently — recovering
		// it is the watchdog's job (core.Watchdog read-back).
		m.LostWrites++
		if m.target != m.writeLevel {
			m.startWrite()
		}
		return
	}
	m.apply(m.writeLevel)
	if m.target != m.applied {
		m.startWrite()
	}
}

func (m *MBA) apply(l int) {
	if l < 0 || l >= len(m.cfg.Levels) {
		panic(fmt.Sprintf("cpu: applying MBA level %d out of range", l))
	}
	if l == m.applied {
		return
	}
	old := m.applied
	m.applied = l
	m.trLevel.Set(m.e.Now(), float64(l))
	for _, fn := range m.onChange {
		fn(old, l)
	}
}

// Validate reports the first invalid parameter.
func (c MBAConfig) Validate() error {
	if len(c.Levels) == 0 {
		return fmt.Errorf("cpu: MBA needs at least one level")
	}
	for i, l := range c.Levels {
		if l.Delay < 0 {
			return fmt.Errorf("cpu: MBA level %d has negative delay %v", i, l.Delay)
		}
	}
	if c.WriteLatency < 0 {
		return fmt.Errorf("cpu: negative MBA WriteLatency %v", c.WriteLatency)
	}
	return nil
}
