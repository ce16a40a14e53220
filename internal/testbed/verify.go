package testbed

import (
	"fmt"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// Recorder samples per-component digest frames from a running testbed.
type Recorder struct {
	Timeline snapshot.Timeline // the frames recorded so far
	// OnFrame, when set, runs inside each tick after the frame is
	// appended, so work done there (checkpoint capture) adds no events.
	OnFrame func()

	reg       *snapshot.Registry // the registry the frames hash
	tb        *Testbed
	recording bool
}

// Record registers one tb.Every hook that appends a frame each period
// (period <= 0 records none). When sharded, the hook runs on the
// coordinator with every shard quiesced, so a frame reads one state.
func (tb *Testbed) Record(period sim.Time) *Recorder {
	r := &Recorder{reg: tb.Registry(), tb: tb, recording: period > 0}
	if r.recording {
		tb.Every(period, func() {
			if !r.recording {
				return
			}
			r.Timeline.Append(r.frame())
			if r.OnFrame != nil {
				r.OnFrame()
			}
		})
	}
	return r
}

func (r *Recorder) frame() snapshot.Frame {
	return snapshot.Frame{At: int64(r.tb.Now()), Events: r.tb.Processed(), Digests: r.reg.Digests()}
}

// Stop ends recording through the flag, leaving the hook scheduled so no
// event is added or cancelled, and returns the frames plus the final state.
func (r *Recorder) Stop() snapshot.Recording {
	r.recording = false
	return snapshot.Recording{Timeline: r.Timeline, Final: r.frame()}
}

// RunVerified executes run once, or twice when verify is set, and returns
// the first result with snapshot.Compare's verdict on the two recordings
// (nil when they match or verify is off).
func RunVerified[R any](verify bool, run func() (R, snapshot.Recording, error)) (R, *snapshot.Divergence, error) {
	res, rec, err := run()
	if err != nil || !verify {
		return res, nil, err
	}
	_, replay, err := run()
	if err != nil {
		return res, nil, fmt.Errorf("testbed: replay: %w", err)
	}
	return res, snapshot.Compare(&rec, &replay), nil
}
