package testbed

import (
	"reflect"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// verifiedChaos runs one chaos config through the verified-run primitive:
// once, or twice with the two recordings compared when verify is set.
func verifiedChaos(verify bool, cfg ChaosConfig) (ChaosResult, *snapshot.Divergence, error) {
	return RunVerified(verify, func() (ChaosResult, snapshot.Recording, error) { return runChaos(cfg) })
}

// TestChaosGracefulDegradation is the acceptance suite: for each core
// fault scenario the system must keep its invariants, avoid deadlock (the
// run completing at all), and return to ≥90% of fault-free goodput within
// 50 RTTs of the fault clearing.
func TestChaosGracefulDegradation(t *testing.T) {
	cases := []struct {
		scenario string
		// wantTrip: the watchdog must trip (signal-path faults) and then
		// re-arm once the signal returns.
		wantTrip bool
		// wantRetries: the read-back loop must re-issue at least one
		// silently dropped MBA write.
		wantRetries bool
		// budget: recovery bar in RTTs (0 = the default 50). trunk-flap
		// gets 150: a spine partition kills every cross-rack in-flight
		// packet at once, so recovery is pure RTO — and whether the first
		// 1 ms retry lands inside or after the 600 µs flap window (one
		// extra backoff doubling) is seed-dependent timing.
		budget int
		// verifyReplay: run twice and require the digest timelines to
		// match frame for frame (the lossless scenarios' acceptance bar).
		verifyReplay bool
	}{
		{"msr-stale", true, false, 0, false},
		{"mba-drop", false, true, 0, false},
		{"link-flap", false, false, 0, false},
		// trunk-flap runs on its natural leaf–spine topology: the fabric
		// partitions at the spine while access links stay up, and recovery
		// is RTO-driven through the re-healed trunks.
		{"trunk-flap", false, false, 150, false},
		{"credit-stall", false, false, 0, false},
		// The lossless scenarios run on a PFC + DCQCN leaf–spine fabric,
		// each replay-verified (two executions, identical digest frames).
		// pfc-storm: forced trunk pauses freeze cross-rack traffic, the
		// fabric must drain when the storm clears. pause-loss gets a wide
		// budget: which pause frames vanish is seed-dependent, and a lost
		// XON wedges a port until the 150 µs PFC watchdog force-releases
		// it, so recovery stacks watchdog timeouts on RTO backoff.
		{"pfc-storm", false, false, 0, true},
		{"pause-loss", false, false, 150, true},
		{"congestion-spread", false, false, 0, true},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			budget := c.budget
			if budget == 0 {
				budget = 50
			}
			cfg := ChaosConfig{Scenario: c.scenario, Seed: 7, RecoveryRTTBudget: budget}
			if c.verifyReplay {
				cfg.DigestEvery = 500 * sim.Microsecond
			}
			r, div, err := verifiedChaos(c.verifyReplay, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) != 0 {
				t.Fatalf("invariant violations: %v", r.Violations)
			}
			if r.BaselineGbps < 30 {
				t.Fatalf("implausible baseline %.1f Gbps", r.BaselineGbps)
			}
			if !r.Recovered {
				t.Fatalf("did not recover to 90%% of %.1f Gbps within %d RTTs (final %.1f): %s",
					r.BaselineGbps, budget, r.FinalGbps, r)
			}
			if r.RecoveryRTTs > float64(budget) {
				t.Fatalf("recovery took %.0f RTTs, budget %d", r.RecoveryRTTs, budget)
			}
			if c.wantTrip {
				if r.WatchdogTrips == 0 {
					t.Error("signal fault did not trip the watchdog")
				}
				if r.WatchdogRearms == 0 || r.WatchdogState != "armed" {
					t.Errorf("watchdog did not re-arm after the signal returned (state %q, rearms %d)",
						r.WatchdogState, r.WatchdogRearms)
				}
			}
			if c.wantRetries && r.MBARetries == 0 {
				t.Error("dropped MBA writes were never re-issued by the read-back loop")
			}
			if r.FaultEvents == 0 {
				t.Error("no fault window transitions recorded — injector not armed?")
			}
			if c.verifyReplay {
				if div != nil {
					t.Errorf("replay verification failed: %s", div)
				}
				if r.Frames == 0 {
					t.Error("replay verified zero digest frames")
				}
			}
		})
	}
}

// TestChaosDeterministic: a chaos run is a pure function of its config —
// same seed, same scenario, bit-identical result. Uses the storm scenario
// because it exercises the most RNG draws (three probabilistic injectors).
func TestChaosDeterministic(t *testing.T) {
	run := func() ChaosResult {
		r, err := RunChaos(ChaosConfig{Scenario: "storm", Seed: 11})
		if err != nil {
			t.Fatal(err)
		}
		return r
	}
	a, b := run(), run()
	if !reflect.DeepEqual(a, b) {
		t.Fatalf("same seed diverged:\n  %+v\n  %+v", a, b)
	}
}

// TestChaosAllScenarios runs every built-in scenario end to end: no
// panics, no invariant violations, and the injector actually fired.
func TestChaosAllScenarios(t *testing.T) {
	if testing.Short() {
		t.Skip("chaos sweep in -short mode")
	}
	for _, sc := range ChaosScenarios() {
		t.Run(sc, func(t *testing.T) {
			r, err := RunChaos(ChaosConfig{Scenario: sc, Seed: 3})
			if err != nil {
				t.Fatal(err)
			}
			if len(r.Violations) != 0 {
				t.Fatalf("invariant violations: %v", r.Violations)
			}
			if r.FaultEvents == 0 {
				t.Fatal("no fault events recorded")
			}
			if r.InvariantChecks == 0 {
				t.Fatal("invariant checker never ran")
			}
		})
	}
}

// TestChaosMSRFailKeepsThroughput: with every MSR read failing, the
// watchdog's conservative fallback must keep network goodput up (it
// over-throttles the MApp; the alternative — a controller acting on a
// decayed-to-zero signal — would hand the host to the MApp and tank
// network throughput). Degradation is graceful by construction.
func TestChaosMSRFailKeepsThroughput(t *testing.T) {
	r, err := RunChaos(ChaosConfig{Scenario: "msr-fail", Seed: 7})
	if err != nil {
		t.Fatal(err)
	}
	if r.FailedSamples == 0 {
		t.Fatal("no failed samples — fault not injected")
	}
	if r.FaultGbps < 0.9*r.BaselineGbps {
		t.Fatalf("goodput during MSR blackout %.1f Gbps fell below 90%% of baseline %.1f",
			r.FaultGbps, r.BaselineGbps)
	}
	if r.WatchdogTrips == 0 {
		t.Fatal("sustained read failures did not trip the watchdog")
	}
}

// TestChaosCustomPlan: RunChaos accepts an explicit plan in place of a
// built-in scenario name.
func TestChaosCustomPlan(t *testing.T) {
	p := faults.Plan{Name: "custom", Injections: []faults.Injection{
		faults.OneShot(faults.MSRStale, 6*sim.Millisecond, 300*sim.Microsecond),
		faults.Probabilistic(faults.NICDrop, 6*sim.Millisecond, 300*sim.Microsecond, 0.05),
	}}
	r, err := RunChaos(ChaosConfig{Plan: &p, Seed: 5, FaultFor: 300 * sim.Microsecond})
	if err != nil {
		t.Fatal(err)
	}
	if r.Scenario != "custom" {
		t.Errorf("scenario = %q, want custom", r.Scenario)
	}
	if len(r.Violations) != 0 {
		t.Fatalf("invariant violations: %v", r.Violations)
	}
}

func TestChaosUnknownScenario(t *testing.T) {
	if _, err := RunChaos(ChaosConfig{Scenario: "no-such-fault"}); err == nil {
		t.Fatal("unknown scenario did not error")
	}
}

// TestChaosBBRLinkFlapRecovers pins the BBR idle-restart fix at system
// level: a link flap silences the path long past the 10 s RTprop filter
// window's worth of samples, and before the fix the pinned stale RTprop
// (measured on an idle, queue-free path) capped the post-fault inflight
// so hard that goodput never returned to baseline. With the filter
// expiring on idle restart, BBR must ride through the flap and recover
// inside the standard budget.
func TestChaosBBRLinkFlapRecovers(t *testing.T) {
	res, err := RunChaos(ChaosConfig{Scenario: "link-flap", Scheme: "bbr"})
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Violations) > 0 {
		t.Fatalf("invariant violations: %v", res.Violations)
	}
	if !res.Recovered {
		t.Fatalf("BBR did not recover from link-flap: %s", res)
	}
}
