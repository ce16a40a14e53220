package iio

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/cpu"
	"repro/internal/iommu"
	"repro/internal/mem"
	"repro/internal/msr"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/sim"
)

// datapath wires NIC -> PCIe -> IIO -> memory controller, the receiver
// half of Figure 1, and feeds it a fixed-rate packet stream.
type datapath struct {
	e         *sim.Engine
	mc        *mem.Controller
	io        *IIO
	link      *pcie.Link
	n         *nic.NIC
	f         *msr.File
	delivered int
}

func newDatapath(t *testing.T, ddioOn bool) *datapath {
	t.Helper()
	e := sim.NewEngine(1)
	mc := mem.NewController(e, mem.DefaultConfig())
	f := msr.NewFile(e)
	var d *cache.DDIO
	if ddioOn {
		d = cache.New(cache.DefaultConfig(), e.Rand())
	}
	dp := &datapath{e: e, mc: mc, f: f}
	dp.io = New(e, DefaultConfig(), mc, d, f, func(p *packet.Packet, _ cache.EntryID, _ bool) {
		dp.delivered++
		dp.n.ReleaseDescriptor()
	})
	dp.link = pcie.NewLink(e, pcie.DefaultConfig(), dp.io.OnTLP)
	dp.io.SetLink(dp.link)
	dp.n = nic.New(e, nic.DefaultConfig(), dp.link, nil)
	return dp
}

// feed injects packets at the given network rate for the given duration.
func (dp *datapath) feed(rate sim.Rate, pktBytes int, dur sim.Time) {
	gap := rate.TimeFor(pktBytes)
	end := dp.e.Now() + dur
	var next sim.HandlerID
	seq := uint64(0)
	next = dp.e.Handler(func(_, _ uint64) {
		if dp.e.Now() >= end {
			return
		}
		p := &packet.Packet{
			Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: 100, DstPort: 5000},
			Seq:        seq,
			PayloadLen: pktBytes - packet.HeaderLen,
		}
		seq += uint64(p.PayloadLen)
		dp.n.Receive(p)
		dp.e.ScheduleAfter(gap, next, 0, 0)
	})
	dp.e.ScheduleAfter(0, next, 0, 0)
}

// avgOccupancy measures mean IIO occupancy over a window via the ROCC
// counter, exactly as hostCC does (§4.1).
func (dp *datapath) avgOccupancy(window sim.Time) float64 {
	r1, t1 := dp.io.ROCC(), dp.e.Now()
	dp.e.RunUntil(t1 + window)
	r2, t2 := dp.io.ROCC(), dp.e.Now()
	return float64(r2-r1) / ((t2 - t1).Seconds() * msr.FIIOHz)
}

func TestIdleOccupancyMatchesPaper(t *testing.T) {
	// At 100 Gbps with an uncontended memory system, average IIO occupancy
	// should sit near 65 lines (Figure 8a) and PCIe bandwidth near
	// 103 Gbps including TLP overheads.
	dp := newDatapath(t, false)
	dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 3*sim.Millisecond)
	dp.e.RunUntil(1 * sim.Millisecond) // warm up
	r1, t1 := dp.io.RINS(), dp.e.Now()
	occ := dp.avgOccupancy(1 * sim.Millisecond)
	r2, t2 := dp.io.RINS(), dp.e.Now()
	if occ < 55 || occ > 75 {
		t.Errorf("idle IIO occupancy = %.1f lines, want ~65", occ)
	}
	bs := float64(r2-r1) * 64 * 8 / (t2 - t1).Seconds() / 1e9
	if bs < 98 || bs < 100.0 && bs > 108 || bs > 108 {
		t.Errorf("PCIe bandwidth = %.1f Gbps, want ~103", bs)
	}
	if dp.n.Drops.Total() != 0 {
		t.Errorf("unexpected drops without congestion: %d", dp.n.Drops.Total())
	}
}

func TestIdleOccupancyLowerWithDDIO(t *testing.T) {
	// DDIO shortens ℓm, so idle occupancy drops to ~45 (§5.2).
	dp := newDatapath(t, true)
	dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 3*sim.Millisecond)
	dp.e.RunUntil(1 * sim.Millisecond)
	occ := dp.avgOccupancy(1 * sim.Millisecond)
	if occ < 35 || occ > 58 {
		t.Errorf("DDIO idle occupancy = %.1f lines, want ~45", occ)
	}
}

func TestCongestionSaturatesOccupancyAndDrops(t *testing.T) {
	// With a 3x MApp hammering the memory controller — plus the CPU copy
	// traffic every delivered packet generates in the full system — the
	// IIO should push toward the credit cap (~93 lines), PCIe bandwidth
	// should fall well below offered load, and the NIC should drop
	// packets (Figure 8b).
	dp := newDatapath(t, false)
	dp.io.out = func(p *packet.Packet, _ cache.EntryID, _ bool) {
		dp.delivered++
		// CPU consumption: ~1.1x of the packet in copies (posted).
		dp.mc.Submit(mem.Request{Size: p.WireLen() * 11 / 10, Class: mem.ClassNetCopy})
		dp.n.ReleaseDescriptor()
	}
	ma := cpu.NewMApp(dp.e, dp.mc, nil, cpu.DefaultMAppConfig(3))
	ma.Start()
	dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 6*sim.Millisecond)
	dp.e.RunUntil(2 * sim.Millisecond)
	r1, t1 := dp.io.RINS(), dp.e.Now()
	occ := dp.avgOccupancy(3 * sim.Millisecond)
	r2, t2 := dp.io.RINS(), dp.e.Now()
	bs := float64(r2-r1) * 64 * 8 / (t2 - t1).Seconds() / 1e9

	if occ < 75 {
		t.Errorf("congested IIO occupancy = %.1f lines, want near the 93 cap", occ)
	}
	if occ > 93.5 {
		t.Errorf("occupancy %.1f exceeds the credit cap", occ)
	}
	if bs > 85 {
		t.Errorf("congested PCIe bandwidth = %.1f Gbps; should degrade well below 105", bs)
	}
	if dp.n.Drops.Total() == 0 {
		t.Error("expected NIC drops under host congestion")
	}
	t.Logf("congested: occ=%.1f bs=%.1fGbps drops=%d/%d", occ, bs, dp.n.Drops.Total(), dp.n.Arrivals.Total())
}

func TestOccupancyNeverExceedsCreditCap(t *testing.T) {
	dp := newDatapath(t, false)
	ma := cpu.NewMApp(dp.e, dp.mc, nil, cpu.DefaultMAppConfig(3))
	ma.Start()
	dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 2*sim.Millisecond)
	cap := pcie.DefaultConfig().CreditLines
	for dp.e.Step() {
		if dp.io.Occupancy() > cap {
			t.Fatalf("occupancy %d exceeds credit cap %d", dp.io.Occupancy(), cap)
		}
		if dp.e.Now() > 2*sim.Millisecond {
			break
		}
	}
}

func TestROCCIsCumulativeAndMonotone(t *testing.T) {
	dp := newDatapath(t, false)
	dp.feed(sim.Gbps(50), 4096+packet.HeaderLen, 1*sim.Millisecond)
	var prev uint64
	for i := 0; i < 10; i++ {
		dp.e.RunFor(100 * sim.Microsecond)
		cur := dp.io.ROCC()
		if cur < prev {
			t.Fatalf("ROCC went backwards: %d -> %d", prev, cur)
		}
		prev = cur
	}
	if prev == 0 {
		t.Fatal("ROCC never advanced")
	}
}

func TestMSRRegistration(t *testing.T) {
	dp := newDatapath(t, false)
	if !dp.f.Has(msr.IIOOccupancy) || !dp.f.Has(msr.IIOInsertions) {
		t.Fatal("IIO counters not registered with MSR file")
	}
	dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 100*sim.Microsecond)
	var rocc uint64
	dp.f.Read(msr.IIOOccupancy, func(v uint64, _ sim.Time, _ error) { rocc = v })
	dp.e.Run()
	if rocc == 0 {
		t.Fatal("MSR read of ROCC returned 0 after traffic")
	}
}

func TestAllPacketsDeliveredWithoutCongestion(t *testing.T) {
	dp := newDatapath(t, false)
	dp.feed(sim.Gbps(80), 4096+packet.HeaderLen, 1*sim.Millisecond)
	dp.e.Run()
	if int64(dp.delivered) != dp.n.Arrivals.Total() {
		t.Fatalf("delivered %d of %d arrivals", dp.delivered, dp.n.Arrivals.Total())
	}
}

func TestDDIOEvictionChargesMemoryBandwidth(t *testing.T) {
	// Force a tiny DDIO pool: every insertion evicts, so eviction class
	// traffic must appear at the memory controller.
	e := sim.NewEngine(1)
	mc := mem.NewController(e, mem.DefaultConfig())
	d := cache.New(cache.Config{CapacityBytes: 8192, PollutionProb: 0}, e.Rand())
	var delivered int
	var n *nic.NIC
	io := New(e, DefaultConfig(), mc, d, nil, func(*packet.Packet, cache.EntryID, bool) {
		delivered++
		n.ReleaseDescriptor()
	})
	link := pcie.NewLink(e, pcie.DefaultConfig(), io.OnTLP)
	io.SetLink(link)
	n = nic.New(e, nic.DefaultConfig(), link, nil)
	mc.MarkAll()
	arrive := e.Handler(func(_, _ uint64) { n.Receive(&packet.Packet{PayloadLen: 4096}) })
	for i := 0; i < 50; i++ {
		e.ScheduleAfter(sim.Time(i)*sim.Microsecond, arrive, 0, 0)
	}
	e.Run()
	if delivered != 50 {
		t.Fatalf("delivered %d of 50", delivered)
	}
	if mc.BytesOf(mem.ClassEviction) == 0 {
		t.Fatal("no eviction traffic despite overflowing DDIO pool")
	}
	if got := mc.BytesOf(mem.ClassIIO); got != 0 {
		t.Fatalf("DDIO-on path should not move IIO-class bytes, got %d", got)
	}
}

func TestDeliveryLatencyReasonable(t *testing.T) {
	// One 4KB packet through an idle datapath should reach the CPU in
	// roughly ℓp + serialization + ℓm + write completion ≈ 1-2 µs.
	dp := newDatapath(t, false)
	var at sim.Time
	dp.io.out = func(p *packet.Packet, _ cache.EntryID, _ bool) {
		at = dp.e.Now()
		dp.n.ReleaseDescriptor()
	}
	dp.n.Receive(&packet.Packet{PayloadLen: 4096})
	dp.e.Run()
	if at <= 0 || at > 3*sim.Microsecond {
		t.Fatalf("idle delivery latency = %v, want ~1-2us", at)
	}
	if math.Abs(float64(dp.io.Occupancy())) != 0 {
		t.Fatalf("occupancy %d after drain", dp.io.Occupancy())
	}
}

func TestIOMMUGatePreservesOrderAndDelays(t *testing.T) {
	// With an IOMMU whose IOTLB thrashes, delivery is slower but strictly
	// in order, and IIO occupancy stays low (the §6 blind spot).
	run := func(withIOMMU bool) (sim.Time, float64, []uint64) {
		dp := newDatapath(t, false)
		var seqs []uint64
		dp.io.out = func(p *packet.Packet, _ cache.EntryID, _ bool) {
			seqs = append(seqs, p.Seq)
			dp.n.ReleaseDescriptor()
		}
		if withIOMMU {
			cfg := iommu.DefaultConfig()
			cfg.IOTLBEntries = 8
			cfg.WorkingSetPages = 64
			dp.io.SetIOMMU(iommu.New(dp.e, dp.mc, cfg))
		}
		dp.feed(sim.Gbps(100), 4096+packet.HeaderLen, 500*sim.Microsecond)
		dp.e.RunUntil(400 * sim.Microsecond)
		occ := dp.avgOccupancy(100 * sim.Microsecond)
		dp.e.Run()
		return dp.e.Now(), occ, seqs
	}
	tOff, occOff, seqOff := run(false)
	tOn, occOn, seqOn := run(true)
	if tOn <= tOff {
		t.Fatalf("IOMMU path (%v) should finish later than without (%v)", tOn, tOff)
	}
	if occOn >= occOff {
		t.Fatalf("IIO occupancy with IOMMU (%.1f) should be BELOW without (%.1f): the blind spot", occOn, occOff)
	}
	if len(seqOn) == 0 || len(seqOn) > len(seqOff) {
		t.Fatalf("deliveries: %d with IOMMU vs %d without", len(seqOn), len(seqOff))
	}
	for i := 1; i < len(seqOn); i++ {
		if seqOn[i] <= seqOn[i-1] {
			t.Fatal("IOMMU gate reordered deliveries")
		}
	}
}

func TestROCCAverageFormulaMatchesHostCCComputation(t *testing.T) {
	// The ROCC counter must satisfy the paper's formula:
	// IS = (ROCC(t2)-ROCC(t1)) / ((t2-t1) * F_IIO) — verify against a
	// known occupancy square wave.
	dp := newDatapath(t, false)
	e := dp.e
	// Hold occupancy at 10 lines for 1us, then 30 lines for 3us, via the
	// internal setter (white-box).
	setOcc := e.Handler(func(lines, _ uint64) { dp.io.setOcc(int(lines)) })
	e.Schedule(0, setOcc, 10, 0)
	e.Schedule(1000, setOcc, 30, 0)
	e.Schedule(4000, setOcc, 0, 0)
	e.RunUntil(4000)
	r2 := dp.io.ROCC()
	// Integral: 10*1000 + 30*3000 = 100000 line-ns -> /2ns ticks = 50000.
	if r2 != 50000 {
		t.Fatalf("ROCC = %d, want 50000", r2)
	}
	avg := float64(r2) / ((4 * sim.Microsecond).Seconds() * msr.FIIOHz)
	if math.Abs(avg-25) > 1e-9 {
		t.Fatalf("average occupancy = %v, want 25", avg)
	}
}
