package core

import (
	"strings"
	"testing"

	"repro/internal/sim"
)

// probesFor builds a full probe set over mutable counters so each test
// case can violate exactly one law.
type probeState struct {
	arrivals, drops, faultDrops, dma int64
	queued                           int
	avail, seq, cap                  int
	level, levels                    int
}

func (s *probeState) probes() InvariantProbes {
	return InvariantProbes{
		NICArrivals:   func() int64 { return s.arrivals },
		NICDrops:      func() int64 { return s.drops },
		NICFaultDrops: func() int64 { return s.faultDrops },
		NICQueued:     func() int { return s.queued },
		NICDMAStarted: func() int64 { return s.dma },
		PCIeCredits:   func() (int, int, int) { return s.avail, s.seq, s.cap },
		MBALevel:      func() int { return s.level },
		MBALevels:     func() int { return s.levels },
	}
}

// consistent returns a state satisfying every invariant.
func consistent() probeState {
	return probeState{
		arrivals: 100, drops: 10, faultDrops: 5, queued: 25, dma: 60,
		avail: 8, seq: 2, cap: 10,
		level: 3, levels: 5,
	}
}

func TestInvariantCheckerViolationPaths(t *testing.T) {
	cases := map[string]struct {
		mutate func(*probeState)
		want   string // substring of the violation message
	}{
		"packet-conservation": {
			mutate: func(s *probeState) { s.dma-- },
			want:   "packet conservation",
		},
		"negative-credits": {
			mutate: func(s *probeState) { s.avail = -1 },
			want:   "pcie credits negative",
		},
		"credit-overflow": {
			mutate: func(s *probeState) { s.avail = s.cap + 1 },
			want:   "pcie credit overflow",
		},
		"mba-level-high": {
			mutate: func(s *probeState) { s.level = s.levels },
			want:   "mba level",
		},
		"mba-level-negative": {
			mutate: func(s *probeState) { s.level = -1 },
			want:   "mba level",
		},
	}
	for name, tc := range cases {
		e := sim.NewEngine(1)
		s := consistent()
		tc.mutate(&s)
		c := NewInvariantChecker(e, sim.Millisecond, s.probes())
		var got []string
		c.OnViolation = func(msg string) { got = append(got, msg) }
		c.Check()
		if len(got) != 1 {
			t.Errorf("%s: %d violations via OnViolation, want 1: %v", name, len(got), got)
			continue
		}
		if !strings.Contains(got[0], tc.want) {
			t.Errorf("%s: violation %q does not mention %q", name, got[0], tc.want)
		}
		// The violation is also recorded even with the handler overridden.
		if len(c.Violations) != 1 || c.Violations[0] != got[0] {
			t.Errorf("%s: Violations log %v does not match handler", name, c.Violations)
		}
		if c.Checks.Total() != 1 {
			t.Errorf("%s: Checks = %d, want 1", name, c.Checks.Total())
		}
	}
}

func TestInvariantCheckerDefaultPanics(t *testing.T) {
	e := sim.NewEngine(1)
	s := consistent()
	s.queued++ // break conservation
	c := NewInvariantChecker(e, sim.Millisecond, s.probes())
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("violation with no OnViolation handler must panic")
		}
		if !strings.Contains(r.(string), "packet conservation") {
			t.Fatalf("panic %v does not name the broken law", r)
		}
	}()
	c.Check()
}

func TestInvariantCheckerCleanAndPartialProbes(t *testing.T) {
	e := sim.NewEngine(1)
	s := consistent()
	c := NewInvariantChecker(e, sim.Millisecond, s.probes())
	c.OnViolation = func(msg string) { t.Errorf("clean state violated: %s", msg) }
	c.Check()

	// Nil probes disable their invariants — a partially instrumented
	// testbed audits what it can.
	empty := NewInvariantChecker(e, sim.Millisecond, InvariantProbes{})
	empty.Check()
	if empty.Checks.Total() != 1 || len(empty.Violations) != 0 {
		t.Fatalf("probe-less checker: checks=%d violations=%v", empty.Checks.Total(), empty.Violations)
	}
}

func TestInvariantCheckerPeriodicAudit(t *testing.T) {
	e := sim.NewEngine(1)
	s := consistent()
	c := NewInvariantChecker(e, 100*sim.Microsecond, s.probes())
	c.Start()
	e.RunUntil(sim.Millisecond)
	c.Stop()
	if n := c.Checks.Total(); n < 9 {
		t.Fatalf("periodic audit ran %d times over 1ms at 100µs, want >= 9", n)
	}
	// Stop halts auditing.
	before := c.Checks.Total()
	e.RunUntil(2 * sim.Millisecond)
	if c.Checks.Total() != before {
		t.Fatal("checker audited after Stop")
	}
}
