package fluid

import (
	"fmt"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// TestFluidSnapshotSensitivity: flipping the lowest or the highest bit
// of any encoded field of one flow, in the first chunk, a middle chunk
// and the partial last chunk, moves the network's registry digest, and
// flipping it back restores the digest; so do a flipped bit of a
// resource's queue and a toggled fault. The chunk digests run on one
// and on two participants.
func TestFluidSnapshotSensitivity(t *testing.T) {
	net := New(testConfig())
	rs := []ResourceID{net.AddResource(sim.Gbps(10), 1<<20, 80*1024), net.AddResource(sim.Gbps(25), 1<<20, 80*1024)}
	const flows = 2*chunkFlows + 17
	for i := 0; i < flows; i++ {
		net.AddFlow(rs[i%2], rs[(i+1)%2])
	}
	run(net, 30)
	reg := snapshot.NewRegistry()
	reg.Register("fluid", net)
	digest := func() uint64 { return reg.Digests()[0].Hash }

	flipF64 := func(x *float64, bit int) { *x = math.Float64frombits(math.Float64bits(*x) ^ 1<<bit) }
	fields := []struct {
		name string
		bits int
		flip func(f *flow, bit int)
	}{
		{"state", 8, func(f *flow, bit int) { f.state ^= 1 << bit }},
		{"winLeft", 16, func(f *flow, bit int) { f.winLeft ^= 1 << bit }},
		{"markedTicks", 16, func(f *flow, bit int) { f.markedTicks ^= 1 << bit }},
		{"lossTicks", 16, func(f *flow, bit int) { f.lossTicks ^= 1 << bit }},
		{"congTicks", 16, func(f *flow, bit int) { f.congTicks ^= 1 << bit }},
		{"calmTicks", 16, func(f *flow, bit int) { f.calmTicks ^= 1 << bit }},
		{"rate", 64, func(f *flow, bit int) { flipF64(&f.rate, bit) }},
		{"alpha", 64, func(f *flow, bit int) { flipF64(&f.alpha, bit) }},
	}
	for _, workers := range []int{1, 2} {
		net.workers = workers
		base := digest()
		// check applies change, which must move the digest, then undo,
		// which must restore it.
		check := func(what string, change, undo func()) {
			t.Helper()
			change()
			moved := digest()
			undo()
			if moved == base {
				t.Errorf("%d participants: %s left the digest at %#x", workers, what, base)
			}
			if got := digest(); got != base {
				t.Fatalf("%d participants: undoing %s gave digest %#x, want %#x", workers, what, got, base)
			}
		}
		for _, i := range []int{0, chunkFlows + chunkFlows/2, flows - 1} {
			f := &net.flows[i]
			for _, fd := range fields {
				for _, bit := range []int{0, fd.bits - 1} {
					flip := func() { fd.flip(f, bit) }
					check(fmt.Sprintf("flow %d %s bit %d", i, fd.name, bit), flip, flip)
				}
			}
		}
		r := &net.res[rs[1]]
		for _, bit := range []int{0, 63} {
			flip := func() { flipF64(&r.q, bit) }
			check(fmt.Sprintf("resource queue bit %d", bit), flip, flip)
		}
		check("a fault", func() { net.SetFault(rs[1], true) }, func() { net.SetFault(rs[1], false) })
	}
}

// padComp encodes n zero words: registered first, it grows the digest
// encoder's buffer past its flush size, so later components never grow
// it.
type padComp int

func (p padComp) Snapshot(enc *snapshot.Encoder) {
	for i := 0; i < int(p); i++ {
		enc.U64(0)
	}
}

// TestFluidSnapshotZeroAlloc guards the chunk digests' scratch: after
// its first call Snapshot allocates nothing of its own, at 20k flows as
// at 200k. A registry digest of the network behind a padding component
// allocates exactly what one of an empty component does.
func TestFluidSnapshotZeroAlloc(t *testing.T) {
	allocs := func(c snapshot.Snapshotter) float64 {
		reg := snapshot.NewRegistry()
		reg.Register("pad", padComp(8<<10))
		reg.Register("component", c)
		reg.Digests()
		return testing.AllocsPerRun(50, func() { reg.Digests() })
	}
	base := allocs(padComp(0))
	for _, flows := range []int{20_000, 200_000} {
		net := leafSpine(flows)
		net.Tick(0)
		if got := allocs(net); got != base {
			t.Errorf("%d flows: digests allocate %.0f per call after the first, %.0f without the network; want equal",
				flows, got, base)
		}
	}
}
