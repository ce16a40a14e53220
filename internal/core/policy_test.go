package core

import (
	"testing"

	"repro/internal/sim"
)

func TestTargetBandwidthPolicyRegimes(t *testing.T) {
	it, bt := 70.0, float64(sim.Gbps(84))
	cases := []struct {
		name   string
		is, bs float64
		want   Action
	}{
		{"regime 1: idle host, target met", 40, float64(sim.Gbps(100)), Lower},
		{"regime 2: congested, target met", 90, float64(sim.Gbps(100)), Hold},
		{"regime 3: congested, below target", 90, float64(sim.Gbps(40)), Raise},
		{"regime 4: idle host, below target", 40, float64(sim.Gbps(40)), Hold},
	}
	for _, c := range cases {
		got := decide(c.is, it, c.bs, bt)
		if got != c.want {
			t.Errorf("%s: got %v, want %v", c.name, got, c.want)
		}
	}
}

func TestActionString(t *testing.T) {
	for a, s := range map[Action]string{Hold: "hold", Raise: "raise", Lower: "lower", Action(9): "unknown"} {
		if a.String() != s {
			t.Errorf("Action(%d) = %q, want %q", a, a.String(), s)
		}
	}
}
