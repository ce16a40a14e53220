package sim

import "fmt"

// SentinelPolicy selects what a Sentinel does when it detects a stall.
type SentinelPolicy int

const (
	// SentinelAbort stops the engine after invoking the OnStall callback
	// (which typically writes a diagnostic checkpoint for replay).
	SentinelAbort SentinelPolicy = iota
	// SentinelEscape invokes the configured escape action (e.g. a PCIe
	// credit-timeout reclaim), then keeps monitoring with a fresh window.
	SentinelEscape
)

func (p SentinelPolicy) String() string {
	switch p {
	case SentinelAbort:
		return "abort"
	case SentinelEscape:
		return "escape"
	}
	return fmt.Sprintf("SentinelPolicy(%d)", int(p))
}

// SentinelConfig tunes stall detection.
type SentinelConfig struct {
	// Window is how long every progress probe must be flat — while demand
	// exists and the event queue is non-empty — before a stall is declared.
	Window Time
	// Check is the probe sampling period; defaults to Window/4.
	Check Time
	// Policy selects the recovery action.
	Policy SentinelPolicy
}

// ProbeSample is one probe's value at stall-detection time.
type ProbeSample struct {
	Name  string
	Value uint64
}

// StallReport is the sentinel's diagnostic for one detected stall.
type StallReport struct {
	DetectedAt     Time
	LastProgressAt Time
	Window         Time
	Pending        int // engine events queued at detection
	Class          StallClass
	Cycle          []string // wedged members (cycle for deadlock, wedged set for starvation)
	Diagnostic     string   // rendered wait-for graph
	Probes         []ProbeSample
	Escaped        bool // true when the escape policy ran instead of aborting
}

func (r *StallReport) String() string {
	return fmt.Sprintf("stall (%s) detected at t=%.3fms: no progress for %.3fms with %d events pending\n%s",
		r.Class, r.DetectedAt.Millis(), (r.DetectedAt - r.LastProgressAt).Millis(), r.Pending, r.Diagnostic)
}

type probe struct {
	name string
	fn   func() uint64
}

// Clock is the simulation driver a Sentinel monitors: a single Engine or
// a ShardGroup. Stop aborts the run (the abort policy's action).
type Clock interface {
	Now() Time
	Pending() int
	Stop()
}

// Sentinel watches a set of monotonic progress counters and declares a
// stall when none of them move for a full window while the datapath still
// has demand and the event queue is non-empty. Time-driven checking means a
// stall is detected even when the wedged components have stopped scheduling
// events entirely (some other actor — an app loop, a ticker — keeps virtual
// time advancing; a truly empty queue is plain termination, not a stall).
type Sentinel struct {
	clk     Clock
	tick    *Engine // self-scheduling via Ticker; nil when externally driven
	cfg     SentinelConfig
	probes  []probe
	demand  func() bool
	build   func() *WaitGraph
	onStall func(*StallReport)
	escape  func() bool

	last     []uint64
	lastMove Time
	ticker   *Ticker
	report   *StallReport

	// Checks and Stalls count sentinel activations and stall detections
	// (escape mode can detect repeatedly; Report keeps the first).
	Checks int64
	Stalls int64
}

// NewSentinel creates a sentinel that self-schedules its checks on e's
// clock; call Start to begin monitoring.
func NewSentinel(e *Engine, cfg SentinelConfig) *Sentinel {
	s := NewSentinelOn(e, cfg)
	s.tick = e
	return s
}

// NewSentinelOn creates a sentinel over any Clock (e.g. a ShardGroup)
// without a self-scheduled ticker: after Start, the owner drives it by
// calling Check on its own cadence — for a ShardGroup, from a coordinator
// hook, where every shard is quiesced and the probes are safe to sample.
func NewSentinelOn(clk Clock, cfg SentinelConfig) *Sentinel {
	if cfg.Window <= 0 {
		panic("sim: sentinel window must be positive")
	}
	if cfg.Check <= 0 {
		cfg.Check = cfg.Window / 4
		if cfg.Check <= 0 {
			cfg.Check = 1
		}
	}
	return &Sentinel{clk: clk, cfg: cfg}
}

// AddProbe registers a named monotonic progress counter. Any change in any
// probe between two checks counts as progress.
func (s *Sentinel) AddProbe(name string, fn func() uint64) {
	s.probes = append(s.probes, probe{name: name, fn: fn})
	s.last = append(s.last, 0)
}

// SetDemand registers the demand predicate: a flat window only counts as a
// stall while demand is true (work is queued somewhere). Without one, any
// flat window with pending events trips the sentinel.
func (s *Sentinel) SetDemand(fn func() bool) { s.demand = fn }

// SetGraphBuilder registers the wait-for graph constructor invoked at
// stall-detection time to classify the stall.
func (s *Sentinel) SetGraphBuilder(fn func() *WaitGraph) { s.build = fn }

// OnStall registers a callback invoked with the report on every detection
// (before the engine is stopped under the abort policy).
func (s *Sentinel) OnStall(fn func(*StallReport)) { s.onStall = fn }

// SetEscape registers the escape action for SentinelEscape; it reports
// whether it freed anything.
func (s *Sentinel) SetEscape(fn func() bool) { s.escape = fn }

// Start begins monitoring from the current virtual time. Externally
// driven sentinels (NewSentinelOn) only take their probe baselines here;
// the owner then calls Check periodically.
func (s *Sentinel) Start() {
	if s.ticker != nil {
		return
	}
	s.lastMove = s.clk.Now()
	for i, p := range s.probes {
		s.last[i] = p.fn()
	}
	if s.tick != nil {
		s.ticker = NewTicker(s.tick, s.cfg.Check, s.check)
	}
}

// Stop halts monitoring.
func (s *Sentinel) Stop() {
	if s.ticker != nil {
		s.ticker.Stop()
		s.ticker = nil
	}
}

// Report returns the first stall report, or nil if none was detected.
func (s *Sentinel) Report() *StallReport { return s.report }

// Check runs one stall probe now. Self-scheduled sentinels call it from
// their ticker; externally driven ones (NewSentinelOn) have their owner
// call it at quiesced points.
func (s *Sentinel) Check() { s.check() }

func (s *Sentinel) check() {
	s.Checks++
	now := s.clk.Now()
	moved := false
	for i, p := range s.probes {
		v := p.fn()
		if v != s.last[i] {
			moved = true
			s.last[i] = v
		}
	}
	demand := s.demand == nil || s.demand()
	if moved || !demand || s.clk.Pending() == 0 {
		s.lastMove = now
		return
	}
	if now-s.lastMove < s.cfg.Window {
		return
	}

	rep := &StallReport{
		DetectedAt:     now,
		LastProgressAt: s.lastMove,
		Window:         s.cfg.Window,
		Pending:        s.clk.Pending(),
	}
	for i, p := range s.probes {
		rep.Probes = append(rep.Probes, ProbeSample{Name: p.name, Value: s.last[i]})
	}
	if s.build != nil {
		g := s.build()
		rep.Class, rep.Cycle = g.Classify()
		rep.Diagnostic = g.String()
	} else {
		rep.Class = StallStarvation
	}
	s.Stalls++
	if s.report == nil {
		s.report = rep
	}

	switch s.cfg.Policy {
	case SentinelEscape:
		if s.escape != nil {
			rep.Escaped = s.escape()
		}
		s.lastMove = now // fresh window for the escape to take effect
		if s.onStall != nil {
			s.onStall(rep)
		}
	default: // SentinelAbort
		if s.onStall != nil {
			s.onStall(rep)
		}
		s.Stop()
		s.clk.Stop()
	}
}
