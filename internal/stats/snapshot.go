package stats

import "repro/internal/snapshot"

// Snapshot helpers for the measurement primitives. Configuration that is
// fixed at construction time (EWMA weight, histogram bucket density) is not
// encoded: snapshots capture run state, and digests are only compared
// between identically configured runs.

// Snapshot encodes the meter's total and marks.
func (m *Meter) Snapshot(e *snapshot.Encoder) {
	e.I64(m.total)
	e.U32(uint32(len(m.marks)))
	for _, mk := range m.marks {
		e.I64(int64(mk.at))
		e.I64(mk.total)
	}
}

// Snapshot encodes the counter.
func (c *Counter) Snapshot(e *snapshot.Encoder) {
	e.I64(c.total)
	e.I64(c.mark)
}

// Snapshot encodes the integrator state.
func (tw *TimeWeighted) Snapshot(e *snapshot.Encoder) {
	e.F64(tw.val)
	e.I64(int64(tw.last))
	e.F64(tw.integral)
}

// Snapshot encodes the filter value (the weight is configuration).
func (e *EWMA) Snapshot(enc *snapshot.Encoder) {
	enc.F64(e.v)
	enc.Bool(e.started)
}

// Snapshot encodes the histogram contents (bucket density is configuration).
func (h *Histogram) Snapshot(e *snapshot.Encoder) {
	e.I64(h.n)
	e.F64(h.min)
	e.F64(h.max)
	e.F64(h.sum)
	e.I64(h.zero)
	e.U32(uint32(len(h.counts)))
	for _, c := range h.counts {
		e.I64(c)
	}
}
