package main

import (
	"path/filepath"
	"strings"
	"testing"

	hostcc "repro"
	"repro/internal/sim"
)

// TestResumeWithoutFrames: a stall record written with no digest period
// holds no frames, so -resume has nothing to verify. It must say so, not
// report a divergence it never found.
func TestResumeWithoutFrames(t *testing.T) {
	path := filepath.Join(t.TempDir(), "stall.ckpt")
	r, err := hostcc.RunChaos(hostcc.ChaosConfig{
		Scenario: "credit-stall",
		Seed:     7,
		// A 50 ms stall outlasts the run; the sentinel ends it.
		FaultFor:        50 * sim.Millisecond,
		SentinelWindow:  500 * sim.Microsecond,
		SentinelPolicy:  hostcc.SentinelAbort,
		SnapshotOnStall: path,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.StallSnapshot == "" || r.Frames != 0 {
		t.Fatalf("want a frameless stall record, got path %q with %d frames", r.StallSnapshot, r.Frames)
	}
	err = resumeChaos(path)
	if err == nil || !strings.Contains(err.Error(), "holds no digest frames to verify") || strings.Contains(err.Error(), "<nil>") {
		t.Fatalf("resume of a frameless record: err = %v, want the no-frames message", err)
	}
}
