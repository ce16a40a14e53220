package mem

import "repro/internal/snapshot"

// Snapshot encodes the analytic pipe state and per-class accounting.
func (c *Controller) Snapshot(e *snapshot.Encoder) {
	e.I64(int64(c.lastDep))
	e.Int(c.inFlight)
	e.I64(c.Submitted)
	for i := range c.meters {
		c.meters[i].Snapshot(e)
	}
	for i := range c.recent {
		e.I64(int64(c.recent[i].last))
		e.F64(c.recent[i].rate)
	}
	c.backlog.Snapshot(e)
}
