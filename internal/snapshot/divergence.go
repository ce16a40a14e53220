package snapshot

import "fmt"

// Frame is one periodic digest sample: every component's state hash at a
// virtual instant.
type Frame struct {
	At      int64 // virtual time, nanoseconds
	Events  uint64
	Digests []Digest
}

// Timeline is an ordered sequence of frames from one run. Two runs are
// comparable only if they recorded with the same period and the same
// registry layout.
type Timeline struct {
	Frames []Frame
}

// Append adds one frame.
func (t *Timeline) Append(f Frame) { t.Frames = append(t.Frames, f) }

// Len returns the number of frames.
func (t *Timeline) Len() int { return len(t.Frames) }

// Recording is one execution's digest evidence: the periodic frames and
// the final state, kept as one more frame.
type Recording struct {
	Timeline Timeline
	Final    Frame
}

// Digest returns the combined hash of the final state.
func (r Recording) Digest() uint64 { return Combined(r.Final.Digests) }

// Compare is the replay check on two recordings of one configuration. It
// reports, in order: the first divergent component of the common frames
// (FirstDivergence), a differing frame count, then the first divergent
// component of the final state — so the combined final digests match
// exactly when Compare finds nothing. nil means the recordings agree.
func Compare(a, b *Recording) *Divergence {
	if d, found := FirstDivergence(&a.Timeline, &b.Timeline); found {
		return &d
	}
	na, nb := a.Timeline.Len(), b.Timeline.Len()
	if na != nb {
		extra := a.Timeline.Frames
		if nb > na {
			extra = b.Timeline.Frames
		}
		f := extra[min(na, nb)]
		return &Divergence{Component: "(frame count)", At: f.At, Events: f.Events,
			FrameIndex: min(na, nb), AHash: uint64(na), BHash: uint64(nb)}
	}
	fa, fb := Timeline{Frames: []Frame{a.Final}}, Timeline{Frames: []Frame{b.Final}}
	if d, found := FirstDivergence(&fa, &fb); found {
		d.FrameIndex = na
		return &d
	}
	return nil
}

// Divergence identifies the first component whose digest differs between
// two runs — the "pcie credit counter diverged at t=83ms" answer. A
// frame-count mismatch names component "(frame count)" at the first
// unmatched frame, with the two counts in AHash/BHash; a final-state
// mismatch has FrameIndex equal to the frame count.
type Divergence struct {
	Component  string
	At         int64 // virtual time of the first divergent frame
	Events     uint64
	FrameIndex int
	AHash      uint64
	BHash      uint64
}

func (d Divergence) String() string {
	return fmt.Sprintf("component %q diverged at t=%.3fms (frame %d, %d events): %#x vs %#x",
		d.Component, float64(d.At)/1e6, d.FrameIndex, d.Events, d.AHash, d.BHash)
}

// FirstDivergence scans two timelines frame by frame and returns the
// first component whose digest differs (within the first differing frame,
// components are checked in registration order, which follows the
// datapath, so the earliest listed divergent component is the most
// upstream one). ok is false when the common prefix is identical.
func FirstDivergence(a, b *Timeline) (Divergence, bool) {
	n := min(len(a.Frames), len(b.Frames))
	for i := 0; i < n; i++ {
		fa, fb := a.Frames[i], b.Frames[i]
		m := min(len(fa.Digests), len(fb.Digests))
		for j := 0; j < m; j++ {
			da, db := fa.Digests[j], fb.Digests[j]
			if da.Component != db.Component {
				return Divergence{
					Component:  da.Component + "|" + db.Component,
					At:         fa.At,
					Events:     fa.Events,
					FrameIndex: i,
					AHash:      da.Hash,
					BHash:      db.Hash,
				}, true
			}
			if da.Hash != db.Hash {
				return Divergence{
					Component:  da.Component,
					At:         fa.At,
					Events:     fa.Events,
					FrameIndex: i,
					AHash:      da.Hash,
					BHash:      db.Hash,
				}, true
			}
		}
		if len(fa.Digests) != len(fb.Digests) {
			return Divergence{
				Component:  "(frame shape)",
				At:         fa.At,
				FrameIndex: i,
			}, true
		}
	}
	return Divergence{}, false
}
