package fluid

import (
	"fmt"
	"testing"
	"unsafe"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

// leafSpine builds the fluid-1m benchmark workload's population shape
// at any size, laid out as the testbed lays out its fluid tier: flows/100
// virtual hosts over 2 racks under 2 spines on 100 Gbps links with 1 MB
// buffers and an 80 KB ECN threshold; flow j runs from host j%hosts to
// a strided peer, and a cross-rack flow crosses the two trunk hops the
// fabric's per-destination spine choice picks.
func leafSpine(flows int) *Network {
	const racks, spines = 2, 2
	const buf, ecn = 1 << 20, 80 * 1024
	rate := sim.Gbps(100)
	net := New(Config{})
	trunks := make([]ResourceID, 2*racks*spines)
	for i := range trunks {
		trunks[i] = net.AddResource(rate, buf, ecn)
	}
	hosts := max(flows/100, 2)
	up, down := make([]ResourceID, hosts), make([]ResourceID, hosts)
	for h := range up {
		up[h] = net.AddResource(rate, buf, ecn)
		down[h] = net.AddResource(rate, buf, ecn)
	}
	net.Grow(flows)
	var path [maxHops]ResourceID
	for j := 0; j < flows; j++ {
		src := j % hosts
		dst := (src + 1 + (j/hosts)%(hosts-1)) % hosts
		p := append(path[:0], up[src])
		if a, b := src%racks, dst%racks; a != b {
			sp := dst % spines
			p = append(p, trunks[2*(a*spines+sp)], trunks[2*(b*spines+sp)+1])
		}
		net.AddFlow(append(p, down[dst])...)
	}
	return net
}

// BenchmarkFluidTick times one integration step of a leaf–spine-shaped
// population at 10k, 100k and 1M flows, with the flow pass on one and
// on two participants, and reports the cost per flow per tick, the
// integrator's unit of work.
func BenchmarkFluidTick(b *testing.B) {
	for _, flows := range []int{10_000, 100_000, 1_000_000} {
		net := leafSpine(flows)
		for i := 0; i < 100; i++ { // past the first RTT windows
			net.Tick(0)
		}
		for _, workers := range []int{1, 2} {
			b.Run(fmt.Sprintf("flows=%d/participants=%d", flows, workers), func(b *testing.B) {
				net.workers = workers
				net.Tick(0) // sizes the pass's per-participant scratch
				b.ReportAllocs()
				b.ResetTimer()
				for i := 0; i < b.N; i++ {
					net.Tick(0)
				}
				b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/float64(flows), "ns/flow-tick")
			})
		}
	}
}

// BenchmarkFluidDigest times a registry digest of the 1M-flow population
// after 100 ticks, with the chunk digests on one and on two
// participants, and reports the cost per flow.
func BenchmarkFluidDigest(b *testing.B) {
	const flows = 1_000_000
	net := leafSpine(flows)
	run(net, 100)
	reg := snapshot.NewRegistry()
	reg.Register("fluid", net)
	for _, workers := range []int{1, 2} {
		b.Run(fmt.Sprintf("flows=%d/participants=%d", flows, workers), func(b *testing.B) {
			net.workers = workers
			reg.Digests() // sizes the per-participant scratch
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				reg.Digests()
			}
			b.ReportMetric(float64(b.Elapsed().Nanoseconds())/float64(b.N)/flows, "ns/flow")
		})
	}
}

// TestFluidTickZeroAlloc guards the integrator's steady state: after
// its first call Tick allocates nothing, however many flows it steps,
// and a flow's hot and cold records stay within the 32 and 16 bytes a
// million-flow population is sized by.
func TestFluidTickZeroAlloc(t *testing.T) {
	if hot, cold := unsafe.Sizeof(flow{}), unsafe.Sizeof(coldFlow{}); hot > 32 || cold > 16 {
		t.Fatalf("flow records are %d bytes hot and %d cold, want at most 32 and 16", hot, cold)
	}
	net := leafSpine(20_000)
	net.Tick(0)
	if allocs := testing.AllocsPerRun(50, func() { net.Tick(0) }); allocs != 0 {
		t.Fatalf("Tick allocates %.1f per call after the first; want 0", allocs)
	}
}
