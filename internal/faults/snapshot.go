package faults

import "repro/internal/snapshot"

// Snapshot encodes the injector's window refcounts, per-kind parameters,
// transition log and injection counters (the plan itself is configuration).
func (in *Injector) Snapshot(e *snapshot.Encoder) {
	e.Bool(in.armed)
	// Per-kind state for the PFC kinds is appended only when the plan uses
	// them (in.ext), so recordings of legacy plans keep their byte layout.
	kinds := int(legacyKinds)
	if in.ext {
		kinds = int(numKinds)
	}
	for k := 0; k < kinds; k++ {
		e.Int(in.active[k])
		e.F64(in.prob[k])
		e.F64(in.mag[k])
		e.I64(in.Injected[k])
	}
	e.U32(uint32(len(in.Events)))
	for _, ev := range in.Events {
		e.I64(int64(ev.At))
		e.Int(int(ev.Kind))
		e.Bool(ev.Active)
	}
}
