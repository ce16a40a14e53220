package testbed

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestHostBoundZeroAllocSteadyState is the whole-testbed allocation guard
// on the hostbound-3x benchmark configuration (3x MApp, hostCC on, seed
// 42): once warm, simulating a 100 µs slice must not allocate. Every
// recurring event on this path — MApp core loops, the hostCC sampler and
// its MSR reads, MBA writes — runs through pre-registered handlers. The
// pool debug builds (-race, -tags packetdebug) add provenance bookkeeping,
// so the exact-zero assertion applies to production builds only.
func TestHostBoundZeroAllocSteadyState(t *testing.T) {
	if packet.PoolDebugEnabled {
		t.Skip("pool provenance instrumentation allocates by design")
	}
	opts := DefaultConfig()
	opts.Seed = 42
	opts.Degree = 3
	opts.HostCC = true
	opts.MinRTO = 5 * sim.Millisecond
	tb := New(opts)
	tb.StartNetAppT()
	tb.RunFor(4 * sim.Millisecond)
	allocs := testing.AllocsPerRun(20, func() {
		tb.RunFor(100 * sim.Microsecond)
	})
	if allocs != 0 {
		t.Fatalf("steady-state host-bound testbed allocates %.1f per 100µs slice; want 0", allocs)
	}
}
