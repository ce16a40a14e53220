package msr

import (
	"sort"

	"repro/internal/snapshot"
)

// Snapshot encodes the register file's read-side state. The lastRead map
// is walked in sorted address order for determinism.
func (f *File) Snapshot(e *snapshot.Encoder) {
	addrs := make([]Address, 0, len(f.lastRead))
	for a := range f.lastRead {
		addrs = append(addrs, a)
	}
	sort.Slice(addrs, func(i, j int) bool { return addrs[i] < addrs[j] })
	e.U32(uint32(len(addrs)))
	for _, a := range addrs {
		e.U32(uint32(a))
		e.U64(f.lastRead[a])
	}
	e.I64(f.FailedReads)
	e.I64(f.StaleReads)
}
