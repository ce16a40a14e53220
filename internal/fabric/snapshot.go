package fabric

import (
	"sort"

	"repro/internal/snapshot"
)

// Snapshot encodes the link serializer and fault state.
func (l *Link) Snapshot(e *snapshot.Encoder) {
	e.I64(int64(l.busyUntil))
	e.Bool(l.down)
	l.Bytes.Snapshot(e)
	l.Corrupted.Snapshot(e)
	l.FlapDrops.Snapshot(e)
}

// Snapshot encodes the switch's port queues in sorted key order (host
// IDs, then trunk keys), so the encoding is stable and — for the
// single-switch star, whose attach order is ascending host IDs — remains
// byte-identical to the encoding of the earlier map-backed port table.
// Queued packets are encoded by wire length.
func (s *Switch) Snapshot(e *snapshot.Encoder) {
	ports := make([]*outPort, len(s.ports))
	copy(ports, s.ports)
	sort.Slice(ports, func(i, j int) bool { return ports[i].key < ports[j].key })
	e.U32(uint32(len(ports)))
	for _, p := range ports {
		e.U64(p.key)
		e.Int(p.qBytes)
		e.Bool(p.busy)
		e.U32(uint32(p.queue.Len()))
		for i := 0; i < p.queue.Len(); i++ {
			e.Int(p.queue.At(i).p.WireLen())
		}
	}
	s.Drops.Snapshot(e)
	s.Marks.Snapshot(e)
	// PFC state is appended only when enabled, so non-lossless images stay
	// byte-identical to the pre-PFC encoding.
	if s.cfg.PFC.Enabled {
		for _, p := range ports {
			e.U64(p.key)
			e.Bool(p.paused)
			e.Bool(p.forced)
			e.I64(int64(p.pausedAt))
			e.I64(int64(p.pausedTotal))
		}
		e.U32(uint32(len(s.ingresses)))
		for _, ig := range s.ingresses {
			e.Int(ig.occ)
			e.Bool(ig.xoff)
			ig.Xoffs.Snapshot(e)
		}
		s.HeadroomDrops.Snapshot(e)
		s.PauseFrames.Snapshot(e)
		s.PauseLost.Snapshot(e)
		s.PauseAsserts.Snapshot(e)
		s.WatchdogReleases.Snapshot(e)
	}
}
