package core

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/stats"
)

// WatchdogState is the failsafe state machine's position.
type WatchdogState int

// Watchdog states.
const (
	// WatchdogArmed: signals are healthy; the response controls the level.
	WatchdogArmed WatchdogState = iota
	// WatchdogFallback: the signal path is untrustworthy (failed or
	// frozen MSR reads); the level is pinned at the conservative
	// fallback until the signal returns.
	WatchdogFallback
)

func (s WatchdogState) String() string {
	switch s {
	case WatchdogArmed:
		return "armed"
	case WatchdogFallback:
		return "fallback"
	}
	return "unknown"
}

// WatchdogConfig parameterizes the signal watchdog.
type WatchdogConfig struct {
	// StaleThreshold trips the watchdog when no healthy sample has
	// landed for this long (a wedged sampling loop, sustained read
	// failures). Default 50 µs — ~25 sample periods, ~1 RTT.
	StaleThreshold sim.Time
	// FailThreshold trips after this many consecutive failed MSR reads.
	// Default 8.
	FailThreshold int
	// FrozenThreshold trips after this many consecutive samples whose
	// raw counters did not move while the host was demonstrably loaded —
	// counters that stopped counting. Default 16.
	FrozenThreshold int
	// LoadFloorBytes gates frozen detection: counters are expected to
	// move only while the filtered PCIe bandwidth exceeds this (bytes/s).
	// Default 1 MB/s.
	LoadFloorBytes float64
	// FallbackLevel is the conservative MBA level pinned while blind;
	// -1 (and the zero value) select the strongest non-pause level
	// (NumLevels-2). Being conservative means over-throttling the MApp:
	// network traffic keeps its resources even though the congestion
	// signal is gone. Level 0 (no throttle) is not a valid fallback — it
	// would hand the blind period to the MApp.
	FallbackLevel int
	// RecoverySamples is the number of consecutive healthy samples
	// required to re-arm out of fallback. Default 8.
	RecoverySamples int
	// RetryBackoff is the initial delay before re-issuing an MBA level
	// write that did not take effect (read-back mismatch); it doubles up
	// to MaxRetryBackoff. Defaults 44 µs / 1 ms. It must exceed the MBA
	// write latency or healthy in-flight writes would be double-issued.
	RetryBackoff    sim.Time
	MaxRetryBackoff sim.Time
	// CheckInterval is the staleness/read-back poll period.
	// Default StaleThreshold/4.
	CheckInterval sim.Time
}

// DefaultWatchdogConfig returns the default failsafe parameters.
func DefaultWatchdogConfig() WatchdogConfig {
	return WatchdogConfig{
		StaleThreshold:  50 * sim.Microsecond,
		FailThreshold:   8,
		FrozenThreshold: 16,
		LoadFloorBytes:  1e6,
		FallbackLevel:   -1,
		RecoverySamples: 8,
		RetryBackoff:    44 * sim.Microsecond,
		MaxRetryBackoff: sim.Millisecond,
	}
}

func (c WatchdogConfig) withDefaults() WatchdogConfig {
	d := DefaultWatchdogConfig()
	if c.StaleThreshold <= 0 {
		c.StaleThreshold = d.StaleThreshold
	}
	if c.FailThreshold <= 0 {
		c.FailThreshold = d.FailThreshold
	}
	if c.FrozenThreshold <= 0 {
		c.FrozenThreshold = d.FrozenThreshold
	}
	if c.LoadFloorBytes <= 0 {
		c.LoadFloorBytes = d.LoadFloorBytes
	}
	if c.FallbackLevel <= 0 {
		c.FallbackLevel = -1
	}
	if c.RecoverySamples <= 0 {
		c.RecoverySamples = d.RecoverySamples
	}
	if c.RetryBackoff <= 0 {
		c.RetryBackoff = d.RetryBackoff
	}
	if c.MaxRetryBackoff < c.RetryBackoff {
		c.MaxRetryBackoff = d.MaxRetryBackoff
	}
	if c.CheckInterval <= 0 {
		c.CheckInterval = c.StaleThreshold / 4
	}
	return c
}

// Watchdog is hostCC's failsafe: it cross-checks the signal path (MSR
// reads can fail, stall, or freeze) and the actuation path (MBA writes
// can be silently dropped), pinning the host-local response at a
// conservative level while blind and re-arming with bounded recovery once
// the signal returns. It exists because a congestion controller that
// trusts its sensors unconditionally turns a sensor fault into a
// congestion-control fault (§4.1's sampling loop and §4.2's MBA writes
// are exactly such sensors/actuators on real hardware).
type Watchdog struct {
	e   *sim.Engine
	cfg WatchdogConfig
	mba LevelController

	state        WatchdogState
	reason       string
	lastGoodAt   sim.Time
	consecFails  int
	consecFrozen int
	consecGood   int

	// Actuation read-back state.
	desired     int
	haveDesired bool
	backoff     sim.Time
	lastRetryAt sim.Time

	ticker *sim.Ticker

	// Trips counts Armed→Fallback transitions; Rearms the way back;
	// Retries counts MBA writes re-issued after read-back mismatch.
	Trips  stats.Counter
	Rearms stats.Counter
	// Retries counts re-issued MBA level writes.
	Retries stats.Counter
}

// newWatchdog creates the watchdog (started by HostCC.Start).
func newWatchdog(e *sim.Engine, mba LevelController, cfg WatchdogConfig) *Watchdog {
	return &Watchdog{
		e:          e,
		cfg:        cfg.withDefaults(),
		mba:        mba,
		lastGoodAt: e.Now(),
	}
}

// State returns the current failsafe state.
func (w *Watchdog) State() WatchdogState { return w.state }

// Reason describes what tripped the watchdog (empty while armed).
func (w *Watchdog) Reason() string { return w.reason }

// Config returns the effective (defaulted) configuration.
func (w *Watchdog) Config() WatchdogConfig { return w.cfg }

// FallbackLevel resolves the configured conservative level against the
// attached controller.
func (w *Watchdog) FallbackLevel() int {
	if w.mba == nil {
		return 0
	}
	n := w.mba.NumLevels()
	l := w.cfg.FallbackLevel
	if l < 0 {
		l = n - 2 // strongest non-pause level
	}
	if l < 0 {
		l = 0
	}
	if l >= n {
		l = n - 1
	}
	return l
}

func (w *Watchdog) start() {
	w.ticker = sim.NewTicker(w.e, w.cfg.CheckInterval, w.check)
}

func (w *Watchdog) stop() {
	if w.ticker != nil {
		w.ticker.Stop()
	}
}

// noteReadFailure records one failed MSR read (a whole sample aborted).
func (w *Watchdog) noteReadFailure() {
	w.consecFails++
	w.consecGood = 0
	if w.consecFails >= w.cfg.FailThreshold {
		w.trip("msr-read-failures")
	}
}

// noteSample records one completed sample. moved reports whether either
// raw counter advanced; loaded whether the host plausibly had traffic
// (so an idle host's flat counters are not mistaken for a fault).
func (w *Watchdog) noteSample(moved, loaded bool) {
	w.consecFails = 0
	if !moved && loaded {
		w.consecFrozen++
		w.consecGood = 0
		if w.consecFrozen >= w.cfg.FrozenThreshold {
			w.trip("counters-frozen")
		}
		return
	}
	w.consecFrozen = 0
	w.lastGoodAt = w.e.Now()
	w.consecGood++
	if w.state == WatchdogFallback && w.consecGood >= w.cfg.RecoverySamples {
		w.rearm()
	}
}

// noteRequest records the level the controller intends to be in force,
// for actuation read-back.
func (w *Watchdog) noteRequest(l int) {
	if !w.haveDesired || w.desired != l {
		w.desired = l
		w.haveDesired = true
		w.lastRetryAt = w.e.Now()
		w.backoff = w.cfg.RetryBackoff
	}
}

func (w *Watchdog) trip(reason string) {
	if w.state == WatchdogFallback {
		return
	}
	w.state = WatchdogFallback
	w.reason = reason
	w.consecGood = 0
	w.Trips.Inc()
	if w.mba != nil {
		fl := w.FallbackLevel()
		w.noteRequest(fl)
		w.mba.RequestLevel(fl)
	}
}

func (w *Watchdog) rearm() {
	w.state = WatchdogArmed
	w.reason = ""
	w.consecFrozen = 0
	w.consecFails = 0
	w.Rearms.Inc()
}

// check runs on the ticker: staleness detection (a wedged sampling loop
// produces no noteSample calls at all, so it must be time-driven) and
// MBA write read-back with exponential backoff.
func (w *Watchdog) check() {
	now := w.e.Now()
	if w.state == WatchdogArmed && now-w.lastGoodAt > w.cfg.StaleThreshold {
		w.trip("signal-stale")
	}
	if w.mba == nil || !w.haveDesired {
		return
	}
	if w.mba.Level() == w.desired {
		w.backoff = w.cfg.RetryBackoff
		w.lastRetryAt = now
		return
	}
	// The hardware is not at the requested level: either a write is
	// legitimately in flight (the backoff exceeds the write latency, so
	// one retry period absorbs that) or the write was silently dropped —
	// re-issue, backing off exponentially so a persistently deaf
	// mechanism is not hammered with 22 µs writes.
	if now-w.lastRetryAt >= w.backoff {
		w.lastRetryAt = now
		w.backoff = min(2*w.backoff, w.cfg.MaxRetryBackoff)
		w.Retries.Inc()
		w.mba.RequestLevel(w.desired)
	}
}

// Validate reports the first invalid parameter. Zero values are not
// errors — the watchdog fills them with defaults — so this catches only
// parameters no default can repair.
func (c WatchdogConfig) Validate() error {
	if c.StaleThreshold < 0 || c.CheckInterval < 0 {
		return fmt.Errorf("core: negative watchdog thresholds (stale %v, check %v)", c.StaleThreshold, c.CheckInterval)
	}
	if c.FailThreshold < 0 || c.FrozenThreshold < 0 || c.RecoverySamples < 0 {
		return fmt.Errorf("core: negative watchdog counts")
	}
	if c.LoadFloorBytes < 0 {
		return fmt.Errorf("core: negative LoadFloorBytes %v", c.LoadFloorBytes)
	}
	if c.FallbackLevel < -1 {
		return fmt.Errorf("core: FallbackLevel %d below -1", c.FallbackLevel)
	}
	if c.RetryBackoff < 0 || c.MaxRetryBackoff < 0 {
		return fmt.Errorf("core: negative watchdog backoff")
	}
	return nil
}
