package testbed

import (
	"errors"
	"testing"

	"repro/internal/snapshot"
)

// TestVerifiedRunComparison pins the comparison behind every verified
// run: RunVerified over canned recordings, one row per divergence rule.
func TestVerifiedRunComparison(t *testing.T) {
	names := []string{"engine", "rx/pcie", "switch"}
	frame := func(at int64, hashes ...uint64) snapshot.Frame {
		f := snapshot.Frame{At: at, Events: uint64(at / 10)}
		for i, h := range hashes {
			f.Digests = append(f.Digests, snapshot.Digest{Component: names[i], Hash: h})
		}
		return f
	}
	recording := func() snapshot.Recording {
		return snapshot.Recording{
			Timeline: snapshot.Timeline{Frames: []snapshot.Frame{
				frame(500, 1, 2, 3), frame(1000, 4, 5, 6), frame(1500, 7, 8, 9),
			}},
			Final: frame(1800, 10, 11, 12),
		}
	}
	errReplay := errors.New("replay failed")
	cases := []struct {
		name      string
		replay    func(*snapshot.Recording) // mutates the second execution's recording
		replayErr error
		component string // "" = the recordings must agree
		frame     int
	}{
		{name: "identical"},
		{name: "hash flipped in frame 1", replay: func(r *snapshot.Recording) { r.Timeline.Frames[1].Digests[1].Hash ^= 1 },
			component: "rx/pcie", frame: 1},
		{name: "extra frame", replay: func(r *snapshot.Recording) { r.Timeline.Append(frame(2000, 10, 11, 12)) },
			component: "(frame count)", frame: 3},
		{name: "final digest differs", replay: func(r *snapshot.Recording) { r.Final.Digests[2].Hash ^= 1 },
			component: "switch", frame: 3},
		{name: "replay error", replayErr: errReplay},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			runs := 0
			res, div, err := RunVerified(true, func() (int, snapshot.Recording, error) {
				runs++
				rec := recording()
				if runs == 2 {
					if c.replayErr != nil {
						return runs, snapshot.Recording{}, c.replayErr
					}
					if c.replay != nil {
						c.replay(&rec)
					}
				}
				return runs, rec, nil
			})
			if runs != 2 || res != 1 {
				t.Fatalf("%d executions returning the result of execution %d, want 2 returning the first", runs, res)
			}
			if c.replayErr != nil {
				if !errors.Is(err, c.replayErr) || div != nil {
					t.Fatalf("err = %v, divergence %v; want the wrapped replay error", err, div)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			switch {
			case c.component == "" && div != nil:
				t.Fatalf("identical recordings diverged: %s", div)
			case c.component != "" && div == nil:
				t.Fatal("divergence not detected")
			case c.component != "" && (div.Component != c.component || div.FrameIndex != c.frame):
				t.Fatalf("divergence names %q at frame %d, want %q at frame %d",
					div.Component, div.FrameIndex, c.component, c.frame)
			}
		})
	}

	// Verification off: one execution, nothing compared.
	runs := 0
	if _, div, err := RunVerified(false, func() (int, snapshot.Recording, error) {
		runs++
		return runs, recording(), nil
	}); runs != 1 || div != nil || err != nil {
		t.Fatalf("verify off: %d executions, divergence %v, err %v", runs, div, err)
	}
}
