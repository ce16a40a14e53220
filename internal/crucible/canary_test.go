package crucible

import (
	"path/filepath"
	"reflect"
	"testing"
)

// The crucible's self-test: with the planted PCIe credit-return
// off-by-one armed, a 64-seed search must find the bug, shrink it to a
// minimal repro (≤ 2 injections), and the emitted repro must replay to
// the identical oracle verdict twice. This is the end-to-end proof that
// the harness detects real datapath bugs rather than vacuously passing.
func TestCanaryHuntFindsPlantedBug(t *testing.T) {
	if testing.Short() {
		t.Skip("search is slow under -short")
	}
	res := Search(SearchConfig{
		Seeds:       64,
		Gen:         GenConfig{Canary: CanaryPCIeExtraCredit},
		StopAtFirst: true,
		Log:         t.Logf,
	})
	if len(res.Findings) != 1 {
		t.Fatalf("expected the canary to be found, got %d findings", len(res.Findings))
	}
	f := res.Findings[0]
	if got := f.Verdict.Signature(); got != OraclePanic {
		t.Fatalf("canary surfaced as %q, want %q", got, OraclePanic)
	}
	if !f.Scenario.hasKind("pcie-stall") {
		t.Fatal("canary fired without a pcie-stall injection — wrong trigger path")
	}

	// The shrinker must reduce the draw to at most 2 injections while
	// preserving the exact failure signature.
	if n := len(f.Minimized.Faults); n > 2 {
		t.Fatalf("minimized repro still has %d injections, want <= 2", n)
	}
	if got, want := f.MinVerdict.Signature(), f.Verdict.Signature(); got != want {
		t.Fatalf("shrink changed the signature: %q -> %q", want, got)
	}
	if !f.Minimized.hasKind("pcie-stall") {
		t.Fatal("shrink removed the pcie-stall injection the canary needs")
	}

	// The emitted repro is self-contained: write it, read it back, and
	// replay it twice — both replays must reach the identical verdict.
	path := filepath.Join(t.TempDir(), "canary.json")
	if err := WriteRepro(path, f.Repro("canary self-test")); err != nil {
		t.Fatal(err)
	}
	r, err := ReadRepro(path)
	if err != nil {
		t.Fatal(err)
	}
	v1, err := Replay(r)
	if err != nil {
		t.Fatalf("first replay: %v", err)
	}
	v2, err := Replay(r)
	if err != nil {
		t.Fatalf("second replay: %v", err)
	}
	if !reflect.DeepEqual(v1, v2) {
		t.Fatalf("replays diverge:\n%+v\n%+v", v1, v2)
	}

	// The search's stats accounted for the hunt.
	if res.Stats.Failures != 1 || res.Stats.ByOracle[OraclePanic] != 1 {
		t.Errorf("stats miscounted: %+v", res.Stats)
	}
	if res.Stats.ShrinkRuns == 0 || res.Stats.Runs <= res.Stats.Scenarios {
		t.Errorf("shrink accounting missing: %+v", res.Stats)
	}
}

// Without the canary, the same seeds pass — the finding above is the
// planted bug, not harness noise. Kept cheap: only the seeds up to and
// including the first canary hit are swept.
func TestCanarySeedsPassWithoutCanary(t *testing.T) {
	if testing.Short() {
		t.Skip("search is slow under -short")
	}
	res := Search(SearchConfig{Seeds: 3, Gen: GenConfig{}})
	if len(res.Findings) != 0 {
		t.Fatalf("canary-free search found %d findings: %s",
			len(res.Findings), res.Findings[0].Verdict)
	}
}
