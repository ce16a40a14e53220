package cpu

import "repro/internal/snapshot"

// Snapshot encodes the MBA control-plane state.
func (m *MBA) Snapshot(e *snapshot.Encoder) {
	e.Int(m.applied)
	e.Int(m.target)
	e.Bool(m.writing)
	e.I64(m.Writes)
	e.I64(m.LostWrites)
}

// Snapshot encodes the MApp's core-loop state.
func (a *MApp) Snapshot(e *snapshot.Encoder) {
	e.Bool(a.running)
	e.Int(a.parked)
	e.Bool(a.stalled)
	e.F64(a.burst)
}

// Snapshot encodes the receive-core pool state. Queued work items are
// encoded by wire length, which covers queue composition without
// serializing packet pointers.
func (p *RxPool) Snapshot(e *snapshot.Encoder) {
	e.U32(uint32(len(p.queues)))
	for c := range p.queues {
		q := &p.queues[c]
		e.Bool(p.busy[c])
		e.U32(uint32(q.Len()))
		for i := 0; i < q.Len(); i++ {
			e.Int(q.At(i).Pkt.WireLen())
		}
	}
	e.I64(int64(p.busyTime))
	p.processed.Snapshot(e)
	p.qlen.Snapshot(e)
}
