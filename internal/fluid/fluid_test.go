package fluid

import (
	"bytes"
	"math"
	"testing"

	"repro/internal/sim"
	"repro/internal/snapshot"
)

func testConfig() Config {
	return Config{
		Tick:     20 * sim.Microsecond,
		RTT:      44 * sim.Microsecond,
		MSS:      4096,
		InitRate: sim.Gbps(0.1),
	}
}

// run ticks the network n times (the clock argument is unused by Tick).
func run(net *Network, n int) {
	for i := 0; i < n; i++ {
		net.Tick(0)
	}
}

// TestFluidConvergesToCapacity: DCTCP twins sharing one bottleneck must
// fill it without sustained overload — the ODE analogue of the packet
// tier's steady state — and share it approximately fairly.
func TestFluidConvergesToCapacity(t *testing.T) {
	net := New(testConfig())
	r := net.AddResource(sim.Gbps(10), 1<<20, 80*1024)
	const flows = 4
	for i := 0; i < flows; i++ {
		net.AddFlow(r)
	}
	run(net, 25_000) // settle
	base := net.DeliveredBytes()
	run(net, 25_000) // measure 0.5 s of model time
	goodput := (net.DeliveredBytes() - base) * 8 / 0.5 / 1e9

	// The instantaneous demand sawtooths around capacity; the averaged
	// goodput is the convergence claim.
	if goodput < 7.5 || goodput > 10.05 {
		t.Fatalf("averaged goodput %.2f Gbps against a 10 Gbps bottleneck, want ≈10", goodput)
	}
	if got := net.TotalRate().Gbps(); got > 15 {
		t.Fatalf("instantaneous demand %.2f Gbps ran away", got)
	}
	if q := net.QueueBytes(r); q >= 1<<20 {
		t.Fatalf("steady-state queue %.0f pinned at the buffer (DCTCP should hold it near the threshold)", q)
	}
	var lo, hi float64
	for i := 0; i < flows; i++ {
		rt := float64(net.FlowRate(i))
		if i == 0 || rt < lo {
			lo = rt
		}
		if rt > hi {
			hi = rt
		}
	}
	if hi > 3*lo {
		t.Fatalf("unfair split: fastest flow %.2fx the slowest", hi/lo)
	}
	if net.DeliveredBytes() <= 0 {
		t.Fatal("no goodput integrated")
	}
}

// TestFluidRenoOverflowsThenBacksOff: the Reno twin ignores marks, so
// against a bounded buffer it must reach overflow (loss) and halve —
// the queue saturates but the rates stay bounded.
func TestFluidRenoOverflowsThenBacksOff(t *testing.T) {
	cfg := testConfig()
	cfg.Scheme = "reno"
	net := New(cfg)
	r := net.AddResource(sim.Gbps(10), 256*1024, 80*1024)
	net.AddFlow(r)
	net.AddFlow(r)
	run(net, 50_000)

	got := net.TotalRate().Gbps()
	if got < 7 || got > 15 {
		t.Fatalf("aggregate Reno rate %.2f Gbps, want near the 10 Gbps bottleneck", got)
	}
	if q := net.QueueBytes(r); q > 256*1024 {
		t.Fatalf("queue %.0f exceeds the %d-byte buffer", q, 256*1024)
	}
}

// TestFluidDeterminism: two identically built networks ticked the same
// number of times must encode byte-identical snapshots.
func TestFluidDeterminism(t *testing.T) {
	build := func() *Network {
		net := New(testConfig())
		a := net.AddResource(sim.Gbps(10), 1<<20, 80*1024)
		b := net.AddResource(sim.Gbps(25), 1<<20, 80*1024)
		for i := 0; i < 64; i++ {
			if i%2 == 0 {
				net.AddFlow(a, b)
			} else {
				net.AddFlow(b)
			}
		}
		return net
	}
	n1, n2 := build(), build()
	run(n1, 10_000)
	run(n2, 10_000)
	var e1, e2 snapshot.Encoder
	n1.Snapshot(&e1)
	n2.Snapshot(&e2)
	if !bytes.Equal(e1.Bytes(), e2.Bytes()) {
		t.Fatal("identical runs encoded different snapshots")
	}
}

// TestFluidSnapshotRoundTrip: identically built and driven networks
// encode identically, at a fault and as they tick onward; re-encoding is
// byte-identical; and a different shape encodes differently.
func TestFluidSnapshotRoundTrip(t *testing.T) {
	build := func(flows int) *Network {
		net := New(testConfig())
		r := net.AddResource(sim.Gbps(10), 1<<20, 80*1024)
		for i := 0; i < flows; i++ {
			net.AddFlow(r)
		}
		net.SetFault(0, true)
		return net
	}
	encode := func(n *Network) []byte {
		var enc snapshot.Encoder
		n.Snapshot(&enc)
		return enc.Bytes()
	}
	a, b := build(8), build(8)
	run(a, 5_000)
	run(b, 5_000)
	img := encode(a)
	if !bytes.Equal(encode(b), img) {
		t.Fatal("identical runs encoded different snapshots")
	}
	if !bytes.Equal(encode(a), img) {
		t.Fatal("re-encoding the same network is not byte-identical")
	}
	if a.Ticks() == 0 || a.DeliveredBytes() <= 0 {
		t.Fatal("network did not advance")
	}

	// Identical runs keep encoding identically as they tick onward, and
	// the state moves.
	run(a, 1_000)
	run(b, 1_000)
	if !bytes.Equal(encode(a), encode(b)) {
		t.Fatal("identical runs diverge when ticked onward")
	}
	if bytes.Equal(encode(a), img) {
		t.Fatal("ticking onward did not change the encoding")
	}

	other := build(4)
	run(other, 5_000)
	if bytes.Equal(encode(other), img) {
		t.Fatal("networks of different shape encoded identically")
	}
}

// fakeSeam scripts the packet tier's side of the conservation seam.
type fakeSeam struct {
	offer    int64 // packet bytes reported per take
	pktQ     int
	gotRate  sim.Rate
	gotQ     int
	takes    int
	setCalls int
}

func (s *fakeSeam) TakePacketBytes() int64 { s.takes++; return s.offer }
func (s *fakeSeam) PacketQueueBytes() int  { return s.pktQ }
func (s *fakeSeam) SetBackground(rate sim.Rate, q int) {
	s.setCalls++
	s.gotRate = rate
	s.gotQ = q
}

// TestFluidSeamConservation: packet bytes offered at a tapped resource
// take capacity first — the fluid queue grows by exactly the excess —
// and the integrator writes the fluid demand and queue back each tick.
func TestFluidSeamConservation(t *testing.T) {
	cfg := testConfig()
	net := New(cfg)
	r := net.AddResource(sim.Gbps(10), 1<<20, 80*1024)
	seam := &fakeSeam{}
	net.BindSeam(r, seam)
	f := net.AddFlow(r)

	// Packet tier saturates the serializer: every fluid byte queues.
	dt := cfg.Tick.Seconds()
	seam.offer = int64(sim.Gbps(10).BytesIn(cfg.Tick))
	net.Tick(0)
	wantQ := float64(net.FlowRate(f)) * dt
	if q := net.QueueBytes(r); q < wantQ*0.99 || q > wantQ*1.01 {
		t.Fatalf("queue %.0f after a saturated tick, want ≈%.0f (demand × dt)", q, wantQ)
	}
	if seam.takes != 1 || seam.setCalls != 1 {
		t.Fatalf("seam saw %d takes / %d set calls in one tick, want 1/1", seam.takes, seam.setCalls)
	}
	if seam.gotRate != net.FlowRate(f) {
		t.Fatalf("seam got background rate %v, want the flow's %v", seam.gotRate, net.FlowRate(f))
	}
	if seam.gotQ != int(net.QueueBytes(r)) {
		t.Fatalf("seam got queue %d, want %d", seam.gotQ, int(net.QueueBytes(r)))
	}

	// Packet tier goes idle: the queue drains within a tick or two
	// (while the flow's AIMD rate is still far below the capacity).
	seam.offer = 0
	for i := 0; i < 10; i++ {
		net.Tick(0)
	}
	if q := net.QueueBytes(r); q != 0 {
		t.Fatalf("queue %.0f did not drain once the packet tier went idle", q)
	}

	// A packet queue alone (fluid queue empty) above the ECN threshold
	// must read as marked — the mark view is the combined depth — while
	// staying below the promote (hot) threshold at half the buffer.
	seam.pktQ = 100 * 1024
	net.Tick(0)
	if net.view[r].bits&vMarked == 0 {
		t.Fatal("packet queue above the threshold did not mark the resource")
	}
	if net.view[r].bits&vHot != 0 {
		t.Fatal("ordinary marking depth must not count as hot (promote trigger)")
	}
	seam.pktQ = 600 * 1024 // past half the 1 MB buffer
	net.Tick(0)
	if net.view[r].bits&vHot == 0 {
		t.Fatal("deep packet queue did not make the resource hot")
	}
}

// TestFluidPromoteDemoteHysteresis: a promotable flow promotes after
// exactly PromoteTicks consecutive hot ticks, leaves the fluid demand
// while promoted, and demotes after DemoteTicks calm ticks at the rate
// the demote hook reports. Event order is part of the contract.
func TestFluidPromoteDemoteHysteresis(t *testing.T) {
	cfg := testConfig()
	cfg.PromoteTicks = 3
	cfg.DemoteTicks = 5
	net := New(cfg)
	r := net.AddResource(sim.Gbps(10), 1<<20, 80*1024)
	f := net.AddFlow(r)
	net.AddFlow(r) // stays fluid throughout
	net.SetPromotable(f, true)

	type ev struct {
		kind string
		flow int
		tick uint64
	}
	var events []ev
	net.SetPromoteHooks(
		func(i int, rate sim.Rate) {
			if rate <= 0 {
				t.Fatalf("promote hook got rate %v", rate)
			}
			events = append(events, ev{"promote", i, net.Ticks()})
		},
		func(i int) sim.Rate {
			events = append(events, ev{"demote", i, net.Ticks()})
			return sim.Gbps(2)
		},
	)

	// Fault the resource: hot regardless of queue depth.
	net.SetFault(r, true)
	run(net, 10)
	if len(events) != 1 || events[0].kind != "promote" || events[0].flow != f {
		t.Fatalf("events after a faulted run: %+v, want one promotion of flow %d", events, f)
	}
	if events[0].tick != uint64(cfg.PromoteTicks) {
		t.Fatalf("promotion at tick %d, want exactly PromoteTicks=%d", events[0].tick, cfg.PromoteTicks)
	}
	if !net.Promoted(f) || net.Promotions() != 1 {
		t.Fatal("flow not marked promoted")
	}

	// Promoted flows contribute no fluid demand.
	if tr, fr := net.TotalRate(), net.FlowRate(f); float64(tr) >= float64(fr)+float64(net.FlowRate(1)) {
		t.Fatalf("TotalRate %v still includes the promoted flow", tr)
	}

	// Clear the fault; once the queue drains calm, demotion fires after
	// DemoteTicks and adopts the hook's measured rate. Tick one step at
	// a time so the adopted rate is observable before AIMD moves it.
	net.SetFault(r, false)
	for i := 0; i < 2_000 && len(events) < 2; i++ {
		net.Tick(0)
	}
	if len(events) != 2 || events[1].kind != "demote" || events[1].flow != f {
		t.Fatalf("events after recovery: %+v, want a demotion of flow %d", events, f)
	}
	if net.Promoted(f) || net.Demotions() != 1 {
		t.Fatal("flow not demoted")
	}
	if got := net.FlowRate(f); got != sim.Gbps(2) {
		t.Fatalf("demoted rate %v, want the hook's 2 Gbps", got)
	}
	run(net, 2_000)

	// A non-promotable flow never promotes no matter how hot.
	if events[0].flow == 1 || len(events) > 2 {
		t.Fatal("non-promotable flow transitioned")
	}
}

// TestFluidValidateRejects: config validation catches the usual traps,
// including values the per-flow uint16 tick counters cannot hold.
func TestFluidValidateRejects(t *testing.T) {
	with := func(f func(*Config)) Config {
		c := testConfig()
		f(&c)
		return c
	}
	for _, tc := range []struct {
		name string
		cfg  Config
	}{
		{"scheme with no fluid twin", with(func(c *Config) { c.Scheme = "bbr" })},
		{"DemoteFrac above 1", with(func(c *Config) { c.DemoteFrac = 2 })},
		{"RTT window of 65536 ticks", Config{Tick: sim.Nanosecond, RTT: 65536 * sim.Nanosecond}},
		{"RTT window rounding up past 65535 ticks", Config{Tick: 2 * sim.Nanosecond, RTT: 131071 * sim.Nanosecond}},
		{"DemoteTicks above 65535", with(func(c *Config) { c.DemoteTicks = 70000 })},
		{"PromoteTicks above 65535", with(func(c *Config) { c.PromoteTicks = 1 << 16 })},
		{"NaN MinRate", with(func(c *Config) { c.MinRate = sim.Rate(math.NaN()) })},
		{"infinite MinRate", with(func(c *Config) { c.MinRate = sim.Rate(math.Inf(1)) })},
		{"NaN InitRate", with(func(c *Config) { c.InitRate = sim.Rate(math.NaN()) })},
		{"infinite InitRate", with(func(c *Config) { c.InitRate = sim.Rate(math.Inf(1)) })},
	} {
		if err := tc.cfg.Validate(); err == nil {
			t.Errorf("%s: Validate accepted %+v", tc.name, tc.cfg)
		}
	}
	// Past MaxFlows the integer sums could overflow, so growing the flow
	// table beyond it panics like the other construction errors. The
	// check runs before any memory is reserved.
	for _, k := range []int{MaxFlows + 1, -1} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("Grow(%d) did not panic", k)
				}
			}()
			New(testConfig()).Grow(k)
		}()
	}
	for _, ok := range []Config{
		{}, // all defaults
		{Tick: sim.Nanosecond, RTT: 65535 * sim.Nanosecond},
		with(func(c *Config) { c.PromoteTicks, c.DemoteTicks = 65535, 65535 }),
	} {
		if err := ok.Validate(); err != nil {
			t.Errorf("Validate rejected %+v: %v", ok, err)
		}
	}
}
