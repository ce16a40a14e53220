package testbed

import (
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/sim"
)

// TestSentinelPFCCycle: a PFC pause storm that never clears wedges the
// trunk pair between leaf 1 and spine 0 into a pause cycle. The sentinel
// must catch it within bounded virtual time and name the failing layer —
// the verdict is "pfc-cycle" listing the paused trunks, NOT the generic
// credit deadlock — and the abort snapshot must resume to the exact same
// verdict.
func TestSentinelPFCCycle(t *testing.T) {
	const faultAt = 6 * sim.Millisecond
	const window = 500 * sim.Microsecond
	snapPath := filepath.Join(t.TempDir(), "storm.ckpt")
	r, err := RunChaos(ChaosConfig{
		Scenario: "pfc-storm",
		Seed:     7,
		FaultAt:  faultAt,
		// 50 ms storm: never clears within the run, so only the sentinel
		// ends it.
		FaultFor:        50 * sim.Millisecond,
		DigestEvery:     500 * sim.Microsecond,
		SentinelWindow:  window,
		SentinelPolicy:  sim.SentinelAbort,
		SnapshotOnStall: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stall == nil {
		t.Fatal("sentinel never detected the pause-wedged fabric")
	}
	latest := faultAt + 3*window
	if r.Stall.DetectedAt > latest {
		t.Fatalf("stall detected at %v, want <= %v", r.Stall.DetectedAt, latest)
	}
	// The verdict must name the layer: a cycle of paused trunks is a
	// pfc-cycle, not the credit deadlock the PCIe wedge produces.
	if r.Stall.Class != sim.StallPFCCycle {
		t.Fatalf("classified %v, want pfc-cycle\n%s", r.Stall.Class, r.Stall.Diagnostic)
	}
	if r.Stall.Class == sim.StallDeadlock || r.Stall.Class.String() != "pfc-cycle" {
		t.Fatalf("pfc-cycle verdict not distinct from credit deadlock: %v", r.Stall.Class)
	}
	want := []string{"trunk/leaf1->spine0", "trunk/spine0->leaf1"}
	if !reflect.DeepEqual(r.Stall.Cycle, want) {
		t.Fatalf("cycle = %v, want the paused trunk pair %v\n%s", r.Stall.Cycle, want, r.Stall.Diagnostic)
	}
	if !strings.Contains(r.Stall.Diagnostic, "WEDGED") {
		t.Fatalf("diagnostic does not render wedged nodes:\n%s", r.Stall.Diagnostic)
	}

	// pfc-storm is a builtin, so the abort snapshot is resumable: the
	// replay must verify against the recorded digest frames and reach the
	// identical verdict.
	rep, err := ResumeChaos(snapPath)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("resumed storm diverged from the recording: %v", rep.Divergence)
	}
	if rep.FramesChecked == 0 {
		t.Fatal("resume verified zero digest frames")
	}
	if rep.Result.Stall == nil {
		t.Fatal("resumed run did not reproduce the stall")
	}
	if rep.Result.Stall.Class != sim.StallPFCCycle || !reflect.DeepEqual(rep.Result.Stall.Cycle, r.Stall.Cycle) {
		t.Fatalf("resumed verdict %v %v != original %v %v",
			rep.Result.Stall.Class, rep.Result.Stall.Cycle, r.Stall.Class, r.Stall.Cycle)
	}
}

// TestReplayFidelityDumbbell: checkpoint/resume of the dumbbell topology.
// The two-switch shape round-trips through the checkpoint record and
// replays to the same digest timeline — the same bar the star and
// leaf–spine shapes already clear in TestReplayFidelity.
func TestReplayFidelityDumbbell(t *testing.T) {
	path := filepath.Join(t.TempDir(), "run.ckpt")
	cfg := ChaosConfig{
		Scenario:        "credit-stall",
		Topology:        "dumbbell",
		Seed:            7,
		DigestEvery:     500 * sim.Microsecond,
		CheckpointEvery: 100_000,
		CheckpointPath:  path,
	}
	orig, err := RunChaos(cfg)
	if err != nil {
		t.Fatal(err)
	}
	if orig.Checkpoints == 0 {
		t.Fatal("no checkpoint written — lower CheckpointEvery")
	}
	if orig.Frames == 0 {
		t.Fatal("no digest frames recorded")
	}
	rep, err := ResumeChaos(path)
	if err != nil {
		t.Fatal(err)
	}
	if !rep.Verified {
		t.Fatalf("dumbbell replay diverged from checkpoint: %v", rep.Divergence)
	}
	if rep.FramesChecked == 0 {
		t.Fatal("replay verified zero frames")
	}
	if rep.Result.Digest != orig.Digest {
		t.Fatalf("replayed final digest %#x != original %#x", rep.Result.Digest, orig.Digest)
	}
}

// TestLosslessStudyHostCCWins pins the paper's claim on the lossless
// fabric: with the identical MApp squeeze, turning hostCC on must reduce
// PFC pause storms (fewer pause asserts, less trunk pause-gating) and
// keep goodput higher than the hostcc-off arm. The victim flow must
// complete its RPCs in both arms — a lossless fabric parks traffic, it
// does not lose it.
func TestLosslessStudyHostCCWins(t *testing.T) {
	if testing.Short() {
		t.Skip("two 10 ms testbed arms in -short mode")
	}
	r, err := RunLosslessStudy(LosslessStudyConfig{})
	if err != nil {
		t.Fatal(err)
	}
	if r.Off.PauseAsserts == 0 {
		t.Fatalf("hostcc-off arm saw no pause storm — the squeeze is not filling the NIC buffer:\n%s", r)
	}
	if r.On.PauseAsserts >= r.Off.PauseAsserts {
		t.Errorf("hostCC did not reduce pause storms: asserts on=%d off=%d\n%s",
			r.On.PauseAsserts, r.Off.PauseAsserts, r)
	}
	if r.On.TrunkPausedUs >= r.Off.TrunkPausedUs {
		t.Errorf("hostCC did not contain congestion spreading: trunk-paused on=%.1fus off=%.1fus\n%s",
			r.On.TrunkPausedUs, r.Off.TrunkPausedUs, r)
	}
	if r.On.ThroughputGbps <= r.Off.ThroughputGbps {
		t.Errorf("hostCC did not recover goodput: on=%.1f off=%.1f Gbps\n%s",
			r.On.ThroughputGbps, r.Off.ThroughputGbps, r)
	}
	for _, arm := range []LosslessArm{r.Off, r.On} {
		if arm.VictimCompleted == 0 {
			t.Errorf("victim flow completed zero RPCs (hostcc=%v)\n%s", arm.HostCC, r)
		}
		if arm.NICHeadroomDrops != 0 {
			t.Errorf("lossless guarantee failed: %d headroom drops (hostcc=%v)", arm.NICHeadroomDrops, arm.HostCC)
		}
	}
}
