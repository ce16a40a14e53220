package testbed

import "testing"

// TestDeterminism: identical options (including the seed) must produce
// bit-identical metrics — the property that makes every figure in
// EXPERIMENTS.md reproducible.
func TestDeterminism(t *testing.T) {
	run := func() Metrics {
		opts := DefaultConfig()
		opts.Degree = 3
		opts.HostCC = true
		opts.MinRTO = 5_000_000
		opts.Warmup = 10_000_000
		opts.Measure = 5_000_000
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}
	a, b := run(), run()
	if a != b {
		t.Fatalf("same seed diverged:\n%+v\n%+v", a, b)
	}
}

// TestSeedChangesOutcome: different seeds should actually perturb the
// run (otherwise the RNG is not wired through).
func TestSeedChangesOutcome(t *testing.T) {
	// DDIO on: cache pollution consumes the seeded RNG on the datapath.
	run := func(seed int64) Metrics {
		opts := DefaultConfig()
		opts.Seed = seed
		opts.Degree = 3
		opts.DDIO = true
		opts.MinRTO = 5_000_000
		opts.Warmup = 10_000_000
		opts.Measure = 5_000_000
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}
	if run(1) == run(2) {
		t.Fatal("different seeds produced identical metrics; RNG not plumbed")
	}
}

// TestFailureInjectionWireLoss: with random wire corruption on every
// link, the system still delivers (transport recovers) and hostCC still
// helps under host congestion.
func TestFailureInjectionWireLoss(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(hostcc bool) Metrics {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = 3
		opts.HostCC = hostcc
		opts.WireLossProb = 1e-4
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}
	base, cc := run(false), run(true)
	if base.ThroughputGbps < 15 {
		t.Fatalf("baseline collapsed under 0.01%% wire loss: %.1f Gbps", base.ThroughputGbps)
	}
	if cc.ThroughputGbps < base.ThroughputGbps {
		t.Fatalf("hostCC (%.1f) should still beat baseline (%.1f) despite wire loss",
			cc.ThroughputGbps, base.ThroughputGbps)
	}
}
