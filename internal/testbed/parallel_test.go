package testbed

import (
	"testing"

	"repro/internal/fabric"
	"repro/internal/sim"
)

// TestShardedScaleOutDeterministic: a multi-shard run must be a pure
// function of its config despite the shards running on real goroutines —
// two executions produce identical digest timelines frame for frame
// (VerifyReplay runs the second execution and compares). This is the
// run-twice determinism bar for the parallel engine; byte-identity with
// the serial engine is deliberately not required (the shard boundaries
// legitimately reorder same-timestamp events across shards).
func TestShardedScaleOutDeterministic(t *testing.T) {
	shapes := []struct {
		name    string
		shards  int
		leaves  int
		spines  int
		senders int
		big     bool
	}{
		{"2-shards", 2, 2, 2, 8, false},
		{"4-shards", 4, 4, 2, 32, true},
	}
	for _, c := range shapes {
		t.Run(c.name, func(t *testing.T) {
			if c.big && testing.Short() {
				t.Skip("large shape")
			}
			r, err := RunScaleOut(ScaleOutConfig{
				Topology:     "leafspine",
				Leaves:       c.leaves,
				Spines:       c.spines,
				Senders:      c.senders,
				Shards:       c.shards,
				Warmup:       1 * sim.Millisecond,
				Measure:      3 * sim.Millisecond,
				VerifyReplay: true,
			})
			if err != nil {
				t.Fatal(err)
			}
			if !r.Verified {
				t.Fatal("replay verification did not run")
			}
			if r.Frames == 0 {
				t.Fatal("no digest frames recorded")
			}
			if r.ThroughputGbps <= 0 {
				t.Fatalf("no goodput through the sharded fabric: %s", r)
			}
			if r.Shards != c.shards {
				t.Fatalf("result reports %d shards, configured %d", r.Shards, c.shards)
			}
		})
	}
}

// TestShardedChaosAcceptance reruns the multi-switch rows of the chaos
// acceptance suite on a 4-shard engine: same bars — invariants hold,
// goodput recovers within budget, and the run is replay-deterministic.
// The per-shard injectors must fire the same fault windows the serial
// injector does (FaultEvents counts shard 0's log).
func TestShardedChaosAcceptance(t *testing.T) {
	cases := []struct {
		scenario string
		budget   int
	}{
		{"trunk-flap", 150},
		{"pfc-storm", 50},
		{"pause-loss", 150},
		{"congestion-spread", 50},
	}
	for _, c := range cases {
		t.Run(c.scenario, func(t *testing.T) {
			r, div, err := verifiedChaos(true, ChaosConfig{
				Scenario:          c.scenario,
				Seed:              7,
				Shards:            4,
				RecoveryRTTBudget: c.budget,
				DigestEvery:       500 * sim.Microsecond,
			})
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
					r.BaselineGbps, c.budget, r.FinalGbps, r.Scenario)
			}
			if r.FaultEvents == 0 {
				t.Error("no fault window transitions recorded — injector not armed?")
			}
			if div != nil || r.Frames == 0 {
				t.Errorf("replay verification failed over %d frames: %v", r.Frames, div)
			}
		})
	}
}

// TestShardedSentinelNoFalseStall: the sentinel runs from the coordinator
// in sharded mode, and shards parked at window barriers must read as
// waiting-on-lookahead, not as a wedged cycle — a healthy loaded run is
// never aborted.
func TestShardedSentinelNoFalseStall(t *testing.T) {
	o := DefaultConfig()
	o.Topology = fabric.LeafSpine(2, 2)
	o.Senders = 8
	o.Receivers = 2
	o.Flows = 8
	o.HostCC = true
	o.MinRTO = sim.Millisecond
	o.Shards = 2
	tb := New(o)
	defer tb.Close()
	tb.StartNetAppT()
	s := tb.StartSentinel(sim.SentinelConfig{
		Window: 500 * sim.Microsecond,
		Policy: sim.SentinelAbort,
	})
	tb.RunUntil(4 * sim.Millisecond)
	if s.Checks == 0 {
		t.Fatal("sentinel never checked — coordinator hook not driving it")
	}
	if rep := s.Report(); rep != nil {
		t.Fatalf("healthy sharded run flagged as stalled: %s", rep)
	}
	if tb.Now() != 4*sim.Millisecond {
		t.Fatalf("run aborted early at %v", tb.Now())
	}
}

// TestShardedConfigValidation: sharding requires a topology with trunks
// to cut (star has none) and is incompatible with the shared-tracer
// telemetry path.
func TestShardedConfigValidation(t *testing.T) {
	o := DefaultConfig()
	o.Shards = 2
	if err := o.Validate(); err == nil {
		t.Error("star topology with 2 shards validated; want error")
	}
	o.Topology = fabric.LeafSpine(2, 2)
	o.Telemetry = true
	if err := o.Validate(); err == nil {
		t.Error("telemetry with 2 shards validated; want error")
	}
	o.Telemetry = false
	if err := o.Validate(); err != nil {
		t.Errorf("valid sharded config rejected: %v", err)
	}
	o.Shards = -1
	if err := o.Validate(); err == nil {
		t.Error("negative shard count validated; want error")
	}
}
