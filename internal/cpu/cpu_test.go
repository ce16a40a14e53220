package cpu

import (
	"math"
	"testing"

	"repro/internal/cache"
	"repro/internal/mem"
	"repro/internal/packet"
	"repro/internal/sim"
)

func newMC(e *sim.Engine) *mem.Controller {
	return mem.NewController(e, mem.DefaultConfig())
}

func TestMBALevelChangeTakesWriteLatency(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMBA(e, DefaultMBAConfig())
	var changedAt sim.Time
	m.OnChange(func(old, new int) { changedAt = e.Now() })
	m.RequestLevel(2)
	e.Run()
	if changedAt != 22*sim.Microsecond {
		t.Fatalf("level applied at %v, want 22us", changedAt)
	}
	if m.Level() != 2 {
		t.Fatalf("level = %d", m.Level())
	}
	if m.Writes != 1 {
		t.Fatalf("writes = %d", m.Writes)
	}
}

func TestMBACoalescesRequestsDuringWrite(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMBA(e, DefaultMBAConfig())
	m.RequestLevel(1)
	sim.NewTimer(e, func() { m.RequestLevel(3) }).ResetAt(5 * sim.Microsecond)
	sim.NewTimer(e, func() { m.RequestLevel(4) }).ResetAt(10 * sim.Microsecond)
	e.Run()
	// First write applies 1 at 22us; second write applies latest target
	// (4) at 44us. The intermediate 3 is coalesced away.
	if m.Level() != 4 {
		t.Fatalf("final level = %d, want 4", m.Level())
	}
	if m.Writes != 2 {
		t.Fatalf("writes = %d, want 2 (coalesced)", m.Writes)
	}
	if !m.Paused() {
		t.Fatal("level 4 should pause")
	}
}

func TestMBARedundantRequestNoWrite(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMBA(e, DefaultMBAConfig())
	m.RequestLevel(0)
	e.Run()
	if m.Writes != 0 {
		t.Fatalf("requesting current level wrote %d times", m.Writes)
	}
}

func TestMBAOutOfRangePanics(t *testing.T) {
	e := sim.NewEngine(1)
	m := NewMBA(e, DefaultMBAConfig())
	defer func() {
		if recover() == nil {
			t.Error("out-of-range level did not panic")
		}
	}()
	m.RequestLevel(99)
}

func measureMApp(t *testing.T, degree float64, dur sim.Time) float64 {
	t.Helper()
	e := sim.NewEngine(1)
	mc := newMC(e)
	a := NewMApp(e, mc, nil, DefaultMAppConfig(degree))
	a.Start()
	e.RunUntil(200 * sim.Microsecond) // warm up
	mc.MarkAll()
	e.RunUntil(200*sim.Microsecond + dur)
	return mc.RateOf(mem.ClassMApp).GBps()
}

func TestMAppBandwidthScalesWithDegree(t *testing.T) {
	// Paper (§2.2): MApp alone yields 16.0 / 28.7 / 34.8 GBps at 1x/2x/3x.
	// We require the shape: increasing, concave, approaching saturation.
	b1 := measureMApp(t, 1, 2*sim.Millisecond)
	b2 := measureMApp(t, 2, 2*sim.Millisecond)
	b3 := measureMApp(t, 3, 2*sim.Millisecond)
	if !(b1 < b2 && b2 < b3) {
		t.Fatalf("bandwidth not increasing: %v %v %v", b1, b2, b3)
	}
	if b2-b1 <= b3-b2 {
		t.Fatalf("growth should be concave: %v %v %v", b1, b2, b3)
	}
	if b1 < 12 || b1 > 20 {
		t.Errorf("1x bandwidth = %.1f GBps, want ~16", b1)
	}
	if b2 < 24 || b2 > 33 {
		t.Errorf("2x bandwidth = %.1f GBps, want ~28.7", b2)
	}
	if b3 < 30 || b3 > 38 {
		t.Errorf("3x bandwidth = %.1f GBps, want ~34.8", b3)
	}
}

func TestMAppThrottledByMBALevels(t *testing.T) {
	// Higher MBA levels must monotonically reduce MApp bandwidth, and the
	// pause level must stop it entirely (§4.2).
	var prev = math.Inf(1)
	for level := 0; level < 5; level++ {
		e := sim.NewEngine(1)
		mc := newMC(e)
		cfg := DefaultMBAConfig()
		cfg.WriteLatency = 1 // immediate for this test
		m := NewMBA(e, cfg)
		a := NewMApp(e, mc, m, DefaultMAppConfig(3))
		a.Start()
		m.RequestLevel(level)
		e.RunUntil(100 * sim.Microsecond)
		mc.MarkAll()
		e.RunUntil(1 * sim.Millisecond)
		bw := mc.RateOf(mem.ClassMApp).GBps()
		if bw >= prev {
			t.Fatalf("level %d bw %.2f >= level %d bw %.2f", level, bw, level-1, prev)
		}
		if level == 4 && bw > 0.01 {
			t.Fatalf("paused MApp still moved %.2f GBps", bw)
		}
		prev = bw
	}
}

func TestMAppPauseAndResume(t *testing.T) {
	e := sim.NewEngine(1)
	mc := newMC(e)
	cfg := DefaultMBAConfig()
	cfg.WriteLatency = 1
	m := NewMBA(e, cfg)
	a := NewMApp(e, mc, m, DefaultMAppConfig(1))
	a.Start()
	sim.NewTimer(e, func() { m.RequestLevel(4) }).ResetAt(100 * sim.Microsecond)
	sim.NewTimer(e, func() {
		if a.Parked() != a.Cores() {
			t.Errorf("parked %d of %d cores", a.Parked(), a.Cores())
		}
		m.RequestLevel(0)
	}).ResetAt(200 * sim.Microsecond)
	e.RunUntil(250 * sim.Microsecond)
	mc.MarkAll()
	e.RunUntil(500 * sim.Microsecond)
	if bw := mc.RateOf(mem.ClassMApp).GBps(); bw < 10 {
		t.Fatalf("resumed MApp bandwidth = %.2f GBps, want ~16", bw)
	}
	if a.Parked() != 0 {
		t.Fatalf("%d cores still parked after resume", a.Parked())
	}
}

func TestMAppStartTwicePanics(t *testing.T) {
	e := sim.NewEngine(1)
	a := NewMApp(e, newMC(e), nil, DefaultMAppConfig(1))
	a.Start()
	defer func() {
		if recover() == nil {
			t.Error("double Start did not panic")
		}
	}()
	a.Start()
}

func mkPkt(port uint16, size int) *packet.Packet {
	return &packet.Packet{
		Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: port, DstPort: 5000},
		PayloadLen: size - packet.HeaderLen,
	}
}

func TestRxPoolDeliversInFlowOrder(t *testing.T) {
	e := sim.NewEngine(1)
	mc := newMC(e)
	var got []uint64
	p := NewRxPool(e, mc, nil, DefaultRxConfig(), func(pkt *packet.Packet) {
		got = append(got, pkt.Seq)
	})
	for i := 0; i < 20; i++ {
		pkt := mkPkt(100, 4096)
		pkt.Seq = uint64(i)
		p.Enqueue(RxWork{Pkt: pkt})
	}
	e.Run()
	if len(got) != 20 {
		t.Fatalf("delivered %d packets", len(got))
	}
	for i, s := range got {
		if s != uint64(i) {
			t.Fatalf("flow reordered: %v", got)
		}
	}
	if p.Processed() != 20 {
		t.Fatalf("Processed = %d", p.Processed())
	}
}

func TestRxPoolParallelAcrossFlows(t *testing.T) {
	// Packets of different flows on different cores overlap: total time
	// for 2 flows must be well under 2x the serial time.
	serial := func(flows int) sim.Time {
		e := sim.NewEngine(1)
		mc := newMC(e)
		p := NewRxPool(e, mc, nil, DefaultRxConfig(), func(*packet.Packet) {})
		for f := 0; f < flows; f++ {
			for i := 0; i < 50; i++ {
				p.Enqueue(RxWork{Pkt: mkPkt(uint16(100+f), 4096)})
			}
		}
		e.Run()
		return e.Now()
	}
	t1, t2 := serial(1), serial(2)
	if float64(t2) > float64(t1)*1.2 {
		t.Fatalf("2 flows took %v vs 1 flow %v; cores not parallel", t2, t1)
	}
}

func TestRxPoolDDIOHitIsCheaper(t *testing.T) {
	run := func(withEntry bool) sim.Time {
		e := sim.NewEngine(1)
		mc := newMC(e)
		d := cache.New(cache.Config{CapacityBytes: 1 << 20, PollutionProb: 0}, e.Rand())
		p := NewRxPool(e, mc, d, DefaultRxConfig(), func(*packet.Packet) {})
		for i := 0; i < 50; i++ {
			w := RxWork{Pkt: mkPkt(100, 4096)}
			if withEntry {
				id, _ := d.Insert(4096)
				w.Entry, w.HasEntry = id, true
			}
			p.Enqueue(w)
		}
		e.Run()
		return e.Now()
	}
	hit, miss := run(true), run(false)
	if hit >= miss {
		t.Fatalf("DDIO hit path (%v) not cheaper than miss (%v)", hit, miss)
	}
}

func TestRxPoolSlowsUnderMemoryLoad(t *testing.T) {
	run := func(congest bool) sim.Time {
		e := sim.NewEngine(1)
		mc := newMC(e)
		if congest {
			a := NewMApp(e, mc, nil, DefaultMAppConfig(3))
			a.Start()
			e.RunUntil(50 * sim.Microsecond)
		}
		start := e.Now()
		p := NewRxPool(e, mc, nil, DefaultRxConfig(), func(*packet.Packet) {})
		done := sim.Time(0)
		p.SetOnDone(func(*packet.Packet) { done = e.Now() })
		for i := 0; i < 100; i++ {
			p.Enqueue(RxWork{Pkt: mkPkt(100, 4096)})
		}
		e.RunUntil(start + 2*sim.Millisecond)
		return done - start
	}
	idle, congested := run(false), run(true)
	if congested <= idle {
		t.Fatalf("processing under congestion (%v) not slower than idle (%v)", congested, idle)
	}
}

func TestRxPoolQueueAccounting(t *testing.T) {
	e := sim.NewEngine(1)
	mc := newMC(e)
	p := NewRxPool(e, mc, nil, DefaultRxConfig(), func(*packet.Packet) {})
	for i := 0; i < 10; i++ {
		p.Enqueue(RxWork{Pkt: mkPkt(100, 4096)})
	}
	if p.QueueLen() != 9 { // one in service
		t.Fatalf("QueueLen = %d, want 9", p.QueueLen())
	}
	e.Run()
	if p.QueueLen() != 0 {
		t.Fatalf("QueueLen = %d after drain", p.QueueLen())
	}
	if p.BusyTime() <= 0 {
		t.Fatal("BusyTime not accounted")
	}
}

func TestRxPoolValidation(t *testing.T) {
	e := sim.NewEngine(1)
	mc := newMC(e)
	func() {
		defer func() {
			if recover() == nil {
				t.Error("zero cores did not panic")
			}
		}()
		NewRxPool(e, mc, nil, RxConfig{Cores: 0}, func(*packet.Packet) {})
	}()
	func() {
		defer func() {
			if recover() == nil {
				t.Error("nil deliver did not panic")
			}
		}()
		NewRxPool(e, mc, nil, DefaultRxConfig(), nil)
	}()
}

func TestMBAOnChangeMultipleListeners(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := DefaultMBAConfig()
	cfg.WriteLatency = 1
	m := NewMBA(e, cfg)
	calls := 0
	m.OnChange(func(old, new int) {
		if old != 0 || new != 2 {
			t.Errorf("listener saw %d->%d", old, new)
		}
		calls++
	})
	m.OnChange(func(_, _ int) { calls++ })
	m.RequestLevel(2)
	e.Run()
	if calls != 2 {
		t.Fatalf("listeners called %d times, want 2", calls)
	}
	if m.Target() != 2 {
		t.Fatalf("target = %d", m.Target())
	}
	if m.Delay() != cfg.Levels[2].Delay {
		t.Fatalf("delay = %v", m.Delay())
	}
}

func TestMBAEmptyLevelsPanics(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("empty level table did not panic")
		}
	}()
	NewMBA(e, MBAConfig{})
}
