package testbed

import (
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"

	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestGoldenDigestDeterminism: two same-seed chaos runs must end in
// bit-identical component state — RunVerified compares every
// per-component digest of the final state and names the first that
// differs. This is the strongest determinism check the repo has: it
// covers engine, RNG, every device model, transport, hostCC and the fault
// injector, not just the reported metrics.
func TestGoldenDigestDeterminism(t *testing.T) {
	scenarios := ChaosScenarios()
	if testing.Short() {
		scenarios = scenarios[:2]
	}
	for _, sc := range scenarios {
		t.Run(sc, func(t *testing.T) {
			r, div, err := verifiedChaos(true, ChaosConfig{Scenario: sc, Seed: 13})
			if err != nil {
				t.Fatal(err)
			}
			if r.Digest == 0 {
				t.Fatal("final digest was never computed")
			}
			if div != nil {
				t.Fatalf("same-seed runs diverged: %s", div)
			}
		})
	}
}

// resumeWritesNothing resumes the checkpoint record at path from a
// fresh directory and fails unless the replay wrote no file: the record
// carries no file setting, the directory it was written in stays empty,
// and the one it was moved to holds only the record.
func resumeWritesNothing(t *testing.T, path string) ReplayReport {
	t.Helper()
	moved := filepath.Join(t.TempDir(), filepath.Base(path))
	if err := os.Rename(path, moved); err != nil {
		t.Fatal(err)
	}
	b, err := os.ReadFile(moved)
	if err != nil {
		t.Fatal(err)
	}
	ck, _, err := decodeCheckpoint(b)
	if err != nil {
		t.Fatal(err)
	}
	if c := ck.Config; c.CheckpointPath != "" || c.CheckpointEvery != 0 || c.SnapshotOnStall != "" {
		t.Fatalf("record carries file settings: path %q every %d stall %q", c.CheckpointPath, c.CheckpointEvery, c.SnapshotOnStall)
	}
	rep, err := ResumeChaos(moved)
	if err != nil {
		t.Fatal(err)
	}
	for dir, want := range map[string]int{filepath.Dir(path): 0, filepath.Dir(moved): 1} {
		if ents, err := os.ReadDir(dir); err != nil || len(ents) != want {
			t.Fatalf("after the resume %s holds %d files (err %v), want %d", dir, len(ents), err, want)
		}
	}
	return rep
}

// TestReplayFidelity: a run that wrote a checkpoint must replay to the
// same digest timeline and the same final state, and the replay writes
// no file. Covers 3 seeds × 3 fault scenarios (1 × 1 in -short mode),
// plus a 2-shard run and a lossless one.
func TestReplayFidelity(t *testing.T) {
	seeds := []int64{7, 19, 101}
	// trunk-flap exercises checkpoint/resume of a multi-switch (leaf–
	// spine) testbed: the topology round-trips through the record.
	scenarios := []string{"credit-stall", "link-flap", "trunk-flap"}
	if testing.Short() {
		seeds, scenarios = seeds[:1], scenarios[:1]
	}
	type fidelityCase struct {
		name string
		cfg  ChaosConfig
	}
	var cases []fidelityCase
	for _, sc := range scenarios {
		for _, seed := range seeds {
			cases = append(cases, fidelityCase{sc + "/" + string(rune('0'+seed%10)), ChaosConfig{Scenario: sc, Seed: seed}})
		}
	}
	cases = append(cases,
		// The shard count is recorded: a serial replay of a 2-shard run
		// registers different components and diverges at frame 0.
		fidelityCase{"trunk-flap/2-shards", ChaosConfig{Scenario: "trunk-flap", Seed: 7, Shards: 2}},
		// A lossless run replays on the PFC fabric with DCQCN.
		fidelityCase{"pause-loss", ChaosConfig{Scenario: "pause-loss", Seed: 7}},
	)
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			path := filepath.Join(t.TempDir(), "run.ckpt")
			cfg := c.cfg
			cfg.DigestEvery = 500 * sim.Microsecond
			cfg.CheckpointEvery = 100_000
			cfg.CheckpointPath = path
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
			rep := resumeWritesNothing(t, path)
			if !rep.Verified {
				t.Fatalf("replay diverged from checkpoint: %v", rep.Divergence)
			}
			if rep.FramesChecked == 0 {
				t.Fatal("replay verified zero frames")
			}
			if rep.Result.Digest != orig.Digest {
				t.Fatalf("replayed final digest %#x != original %#x", rep.Result.Digest, orig.Digest)
			}
			if rep.Result.FinalGbps != orig.FinalGbps || rep.Result.Recovered != orig.Recovered {
				t.Fatalf("replayed metrics differ: %+v vs %+v", rep.Result, orig)
			}
		})
	}
}

// TestSentinelCreditStallDeadlock: a PCIe credit-stall that never clears
// must be caught by the sentinel within bounded virtual time, classified
// as a deadlock with the credit loop named, and leave a diagnostic
// record behind that resumes to the same stall.
func TestSentinelCreditStallDeadlock(t *testing.T) {
	const faultAt = 6 * sim.Millisecond
	const window = 500 * sim.Microsecond
	p := faults.Plan{Name: "wedge", Injections: []faults.Injection{
		// 50 ms stall: never clears within the run, so without the
		// sentinel the fault phase would grind through 50 ms of wedged
		// virtual time and "recover" only because the window ends.
		faults.OneShot(faults.PCIeStall, faultAt, 50*sim.Millisecond),
	}}
	snapPath := filepath.Join(t.TempDir(), "stall.ckpt")
	r, err := RunChaos(ChaosConfig{
		Plan:            &p,
		Seed:            7,
		FaultAt:         faultAt,
		FaultFor:        50 * sim.Millisecond,
		SentinelWindow:  window,
		SentinelPolicy:  sim.SentinelAbort,
		SnapshotOnStall: snapPath,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stall == nil {
		t.Fatal("sentinel never detected the wedged datapath")
	}
	// Bounded detection: the stall forms shortly after the fault opens and
	// must be declared within the window plus a few check periods.
	latest := faultAt + 3*window
	if r.Stall.DetectedAt > latest {
		t.Fatalf("stall detected at %v, want <= %v", r.Stall.DetectedAt, latest)
	}
	if r.Stall.Class != sim.StallDeadlock {
		t.Fatalf("classified %v, want deadlock\n%s", r.Stall.Class, r.Stall.Diagnostic)
	}
	want := []string{"pcie-credits", "iio-release"}
	if !reflect.DeepEqual(r.Stall.Cycle, want) {
		t.Fatalf("cycle = %v, want %v\n%s", r.Stall.Cycle, want, r.Stall.Diagnostic)
	}
	if !strings.Contains(r.Stall.Diagnostic, "WEDGED") {
		t.Fatalf("diagnostic does not render wedged nodes:\n%s", r.Stall.Diagnostic)
	}

	// The record carries the custom plan, so it resumes to the same run:
	// the same stall at the same instant and the same final state.
	if r.StallSnapshot != snapPath {
		t.Fatalf("stall record path %q, want %q", r.StallSnapshot, snapPath)
	}
	rep := resumeWritesNothing(t, snapPath)
	if rep.Result.Stall == nil || rep.Result.Stall.DetectedAt != r.Stall.DetectedAt {
		t.Fatalf("resumed stall %+v, want one detected at %v", rep.Result.Stall, r.Stall.DetectedAt)
	}
	if rep.Result.Digest != r.Digest {
		t.Fatalf("resumed final digest %#x != original %#x", rep.Result.Digest, r.Digest)
	}
}

// TestSentinelEscapeReclaimsCredits: under the escape policy, the same
// wedge is broken by force-reclaiming sequestered credits and the run
// keeps going (PFC-watchdog-style credit-timeout escape).
func TestSentinelEscapeReclaimsCredits(t *testing.T) {
	const faultAt = 6 * sim.Millisecond
	p := faults.Plan{Name: "wedge", Injections: []faults.Injection{
		faults.OneShot(faults.PCIeStall, faultAt, 2*sim.Millisecond),
	}}
	r, err := RunChaos(ChaosConfig{
		Plan:           &p,
		Seed:           7,
		FaultAt:        faultAt,
		FaultFor:       2 * sim.Millisecond,
		SentinelWindow: 500 * sim.Microsecond,
		SentinelPolicy: sim.SentinelEscape,
		// A 2 ms wedge costs more than the default 50-RTT budget to climb
		// back from; the point here is that the run survives and recovers
		// at all, not how fast.
		RecoveryRTTBudget: 200,
	})
	if err != nil {
		t.Fatal(err)
	}
	if r.Stall == nil {
		t.Fatal("sentinel never detected the wedge")
	}
	if !r.Stall.Escaped {
		t.Fatal("escape policy did not reclaim anything")
	}
	if len(r.Violations) != 0 {
		t.Fatalf("forced reclaim broke credit accounting: %v", r.Violations)
	}
	if !r.Recovered {
		t.Fatalf("did not recover after escape: %s", r)
	}
}

// TestDivergenceDetectorPinpointsComponent: two different-seed runs must
// diverge, and FirstDivergence must name the first component (in datapath
// order) whose state digest differs — the "which counter went wrong
// first" answer the tentpole promises.
func TestDivergenceDetectorPinpointsComponent(t *testing.T) {
	run := func(seed int64) *snapshot.Timeline {
		_, rec, err := runChaos(ChaosConfig{
			Scenario:    "credit-stall",
			Seed:        seed,
			DigestEvery: 500 * sim.Microsecond,
		})
		if err != nil {
			t.Fatal(err)
		}
		return &rec.Timeline
	}
	a, b := run(1), run(2)
	div, found := snapshot.FirstDivergence(a, b)
	if !found {
		t.Fatal("different seeds produced identical digest timelines")
	}
	if div.Component == "" || div.Component == "(frame shape)" {
		t.Fatalf("divergence did not name a component: %+v", div)
	}
	if div.AHash == div.BHash {
		t.Fatalf("divergence reports equal hashes: %+v", div)
	}
	if !strings.Contains(div.String(), "diverged at t=") {
		t.Fatalf("unexpected rendering: %s", div)
	}
	// Same seed, same recording config: no divergence.
	if d, found := snapshot.FirstDivergence(run(1), run(1)); found {
		t.Fatalf("same-seed timelines diverged: %s", d)
	}
}

// TestCheckpointResumeErrors: a file that is missing, is not a record,
// or records a run RunChaos would refuse fails with an error.
func TestCheckpointResumeErrors(t *testing.T) {
	dir := t.TempDir()
	if _, err := ResumeChaos(filepath.Join(dir, "absent.ckpt")); err == nil {
		t.Fatal("resume of missing file did not error")
	}
	for name, body := range map[string]string{
		"corrupt": "not a checkpoint",
		// The binary format checkpoints had before the JSON record.
		"binary-HCCCKPT1": "HCCCKPT1\x01\x00\x00\x00\x00\x00\x00\x00",
		"no-scenario":     `{"Config":{"Seed":7}}`,
		"unknown-scheme":  `{"Config":{"Scenario":"link-flap","Scheme":"vegas"}}`,
		// Periods below MinPeriod: ~7M digest frames, or a sentinel
		// checking every nanosecond.
		"digest-every-1ns":    `{"Config":{"Scenario":"credit-stall","DigestEvery":1}}`,
		"sentinel-window-1ns": `{"Config":{"Scenario":"credit-stall","SentinelWindow":1}}`,
	} {
		// A record that decodes would be replayed in full: never resume one.
		if _, _, err := decodeCheckpoint([]byte(body)); err == nil {
			t.Errorf("%s record decoded", name)
			continue
		}
		path := filepath.Join(dir, name+".ckpt")
		if err := os.WriteFile(path, []byte(body), 0o644); err != nil {
			t.Fatal(err)
		}
		if _, err := ResumeChaos(path); err == nil {
			t.Errorf("resume of %s record did not error", name)
		}
	}
}

// FuzzCheckpointDecode: -resume reads bytes from anywhere, so whatever
// they are, decoding a record returns an error or a testbed config that
// Validate accepts, with each period 0 or at least MinPeriod, and never
// panics. Nothing is built or run.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add([]byte(`{"Config":{"Scenario":"credit-stall"}}`))
	f.Fuzz(func(t *testing.T, b []byte) {
		ck, opts, err := decodeCheckpoint(b)
		if err != nil {
			return
		}
		if err := opts.Validate(); err != nil {
			t.Fatalf("decoded a config Validate rejects: %v", err)
		}
		for _, p := range []sim.Time{ck.Config.DigestEvery, ck.Config.SentinelWindow} {
			if p != 0 && p < MinPeriod {
				t.Fatalf("decoded a period of %v, below MinPeriod", p)
			}
		}
	})
}
