package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

func TestModeString(t *testing.T) {
	cases := []struct {
		mode Mode
		want string
	}{
		{ModeFull, "full"},
		{ModeEchoOnly, "echo-only"},
		{ModeLocalOnly, "local-only"},
		{ModeOff, "off"},
		{Mode(42), "unknown"},
		{Mode(-1), "unknown"},
	}
	for _, c := range cases {
		if got := c.mode.String(); got != c.want {
			t.Errorf("Mode(%d).String() = %q, want %q", int(c.mode), got, c.want)
		}
	}
}

// TestPolicyExactThresholds pins the paper policy's behavior exactly at
// its thresholds: both comparisons are strict (I_S > I_T, B_S < B_T), so
// sitting exactly on a threshold counts as "not congested" / "not below
// target" respectively.
func TestPolicyExactThresholds(t *testing.T) {
	p := TargetBandwidthPolicy{IT: 100, BTBytes: 1e9}
	cases := []struct {
		name   string
		is, bs float64
		want   Action
	}{
		{"regime 3: congested, below target", 101, 1e9 - 1, Raise},
		{"regime 1: idle, at target", 99, 1e9, Lower},
		{"regime 2: idle, below target", 99, 1e9 - 1, Hold},
		{"regime 4: congested, at target", 101, 1e9, Hold},
		// Exactly at both thresholds: IS == IT is not congested, BS == BT
		// is not below target — regime 1, Lower.
		{"IS == IT and BS == BT", 100, 1e9, Lower},
		{"IS == IT, below target", 100, 1e9 - 1, Hold},
		{"congested, BS == BT", 101, 1e9, Hold},
		{"just over both", 100.0001, 1e9 + 1, Hold},
	}
	for _, c := range cases {
		got := p.Decide(Signals{IS: c.is, BSBytes: c.bs, Level: 2, NumLevels: 8})
		if got != c.want {
			t.Errorf("%s: Decide(IS=%v, BS=%v) = %v, want %v", c.name, c.is, c.bs, got, c.want)
		}
	}
}

func TestWatchdogTripOnReadFailures(t *testing.T) {
	e := sim.NewEngine(1)
	mba := &fakeMBA{nLevels: 8}
	w := newWatchdog(e, mba, WatchdogConfig{FailThreshold: 3})
	for i := 0; i < 2; i++ {
		w.noteReadFailure()
	}
	if w.State() != WatchdogArmed {
		t.Fatal("tripped below FailThreshold")
	}
	w.noteReadFailure()
	if w.State() != WatchdogFallback {
		t.Fatal("did not trip at FailThreshold")
	}
	if w.Reason() != "msr-read-failures" {
		t.Errorf("reason = %q", w.Reason())
	}
	if mba.level != w.FallbackLevel() {
		t.Errorf("fallback level not requested: mba at %d, want %d", mba.level, w.FallbackLevel())
	}
	if w.FallbackLevel() != 6 { // NumLevels-2
		t.Errorf("FallbackLevel = %d, want 6", w.FallbackLevel())
	}
}

// TestWatchdogRearm exercises the full trip → recover → re-arm cycle,
// including the reset of recovery progress by an intervening bad sample.
func TestWatchdogRearm(t *testing.T) {
	e := sim.NewEngine(1)
	mba := &fakeMBA{nLevels: 8}
	w := newWatchdog(e, mba, WatchdogConfig{FailThreshold: 2, RecoverySamples: 3})

	w.noteReadFailure()
	w.noteReadFailure()
	if w.State() != WatchdogFallback {
		t.Fatal("did not trip")
	}

	// Two good samples, then a failure: recovery progress must reset.
	w.noteSample(true, true)
	w.noteSample(true, true)
	w.noteReadFailure()
	w.noteSample(true, true)
	w.noteSample(true, true)
	if w.State() != WatchdogFallback {
		t.Fatal("re-armed early: bad sample should reset recovery progress")
	}
	w.noteSample(true, true)
	if w.State() != WatchdogArmed {
		t.Fatal("did not re-arm after RecoverySamples consecutive good samples")
	}
	if w.Reason() != "" {
		t.Errorf("reason not cleared on re-arm: %q", w.Reason())
	}
	if w.Trips.Total() != 1 || w.Rearms.Total() != 1 {
		t.Errorf("trips=%d rearms=%d, want 1/1", w.Trips.Total(), w.Rearms.Total())
	}

	// A second trip after re-arm requires a fresh run of failures.
	w.noteReadFailure()
	if w.State() != WatchdogArmed {
		t.Fatal("single failure after re-arm tripped")
	}
	w.noteReadFailure()
	if w.State() != WatchdogFallback || w.Trips.Total() != 2 {
		t.Fatal("second trip not recorded")
	}
}

func TestWatchdogFrozenCounters(t *testing.T) {
	e := sim.NewEngine(1)
	mba := &fakeMBA{nLevels: 8}
	w := newWatchdog(e, mba, WatchdogConfig{FrozenThreshold: 4})

	// Flat counters while idle never trip.
	for i := 0; i < 20; i++ {
		w.noteSample(false, false)
	}
	if w.State() != WatchdogArmed {
		t.Fatal("idle flat counters tripped the watchdog")
	}
	// Flat counters under load do.
	for i := 0; i < 4; i++ {
		w.noteSample(false, true)
	}
	if w.State() != WatchdogFallback {
		t.Fatal("frozen counters under load did not trip")
	}
	if w.Reason() != "counters-frozen" {
		t.Errorf("reason = %q", w.Reason())
	}
}

func TestWatchdogStaleTrip(t *testing.T) {
	e := sim.NewEngine(1)
	mba := &fakeMBA{nLevels: 8}
	w := newWatchdog(e, mba, WatchdogConfig{StaleThreshold: 40 * sim.Microsecond})
	w.start()
	defer w.stop()
	// No samples arrive at all: the time-driven check must trip.
	e.RunUntil(200 * sim.Microsecond)
	if w.State() != WatchdogFallback {
		t.Fatal("wedged sampling loop not detected")
	}
	if w.Reason() != "signal-stale" {
		t.Errorf("reason = %q", w.Reason())
	}
}

// deafMBA swallows the first request entirely (a silently dropped MBA
// write) and honors later ones.
type deafMBA struct {
	level    int
	requests int
}

func (m *deafMBA) RequestLevel(l int) {
	m.requests++
	if m.requests == 1 {
		return // dropped on the floor
	}
	m.level = l
}
func (m *deafMBA) Level() int     { return m.level }
func (m *deafMBA) NumLevels() int { return 8 }

func TestWatchdogReadBackRetry(t *testing.T) {
	e := sim.NewEngine(1)
	mba := &deafMBA{}
	w := newWatchdog(e, mba, WatchdogConfig{
		RetryBackoff:   50 * sim.Microsecond,
		CheckInterval:  10 * sim.Microsecond,
		StaleThreshold: sim.Second, // keep staleness out of this test
	})
	w.start()
	defer w.stop()
	sim.NewTimer(e, func() {
		w.noteRequest(5)
		mba.RequestLevel(5) // swallowed
	}).ResetAt(0)
	e.RunUntil(sim.Millisecond)
	if mba.Level() != 5 {
		t.Fatalf("read-back retry did not recover the dropped write: level %d", mba.Level())
	}
	if w.Retries.Total() == 0 {
		t.Fatal("no retries counted")
	}
	if mba.requests > 3 {
		t.Errorf("retry storm: %d requests for one dropped write", mba.requests)
	}
}

func TestInvariantChecker(t *testing.T) {
	e := sim.NewEngine(1)
	arrivals, drops, queued, dma := int64(10), int64(2), 3, int64(5)
	avail, seq, cap := 8, 0, 16
	level := 4
	probes := InvariantProbes{
		NICArrivals:   func() int64 { return arrivals },
		NICDrops:      func() int64 { return drops },
		NICQueued:     func() int { return queued },
		NICDMAStarted: func() int64 { return dma },
		PCIeCredits:   func() (int, int, int) { return avail, seq, cap },
		MBALevel:      func() int { return level },
		MBALevels:     func() int { return 8 },
	}
	c := NewInvariantChecker(e, 10*sim.Microsecond, probes)
	var got []string
	c.OnViolation = func(msg string) { got = append(got, msg) }
	c.Start()
	e.RunUntil(35 * sim.Microsecond)
	if len(got) != 0 {
		t.Fatalf("healthy state violated: %v", got)
	}
	if c.Checks.Total() < 3 {
		t.Fatalf("checks = %d, want >= 3", c.Checks.Total())
	}

	// Break each invariant in turn.
	arrivals = 11 // one packet unaccounted for
	c.Check()
	arrivals = 10
	seq = 20 // credits out of thin air
	c.Check()
	seq = 0
	level = 8 // out of range
	c.Check()
	level = 4
	c.Stop()
	if len(got) != 3 {
		t.Fatalf("violations = %d (%v), want 3", len(got), got)
	}
	for i, want := range []string{"packet conservation", "pcie credit overflow", "mba level"} {
		if !strings.Contains(got[i], want) {
			t.Errorf("violation %d = %q, want mention of %q", i, got[i], want)
		}
	}

	// Default handler panics.
	c2 := NewInvariantChecker(e, sim.Microsecond, probes)
	arrivals = 99
	defer func() {
		if recover() == nil {
			t.Error("default OnViolation did not panic")
		}
	}()
	c2.Check()
}
