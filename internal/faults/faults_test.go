package faults

import (
	"testing"

	"repro/internal/cpu"
	"repro/internal/fabric"
	"repro/internal/msr"
	"repro/internal/nic"
	"repro/internal/packet"
	"repro/internal/pcie"
	"repro/internal/sim"
)

func TestPlanValidate(t *testing.T) {
	cases := []struct {
		name string
		plan Plan
		ok   bool
	}{
		{"empty", Plan{Name: "empty"}, true},
		{"oneshot", Plan{Injections: []Injection{OneShot(MSRStale, 0, sim.Millisecond)}}, true},
		{"negative-at", Plan{Injections: []Injection{{Kind: MSRStale, At: -1}}}, false},
		{"bad-kind", Plan{Injections: []Injection{{Kind: Kind(99)}}}, false},
		{"bad-prob", Plan{Injections: []Injection{{Kind: NICDrop, Prob: 1.5}}}, false},
		{"period-under-duration", Plan{Injections: []Injection{
			{Kind: MSRStale, Duration: 10, Period: 5}}}, false},
		{"window-kind-no-duration", Plan{Injections: []Injection{
			{Kind: LinkFlap}}}, false},
		{"negative-count", Plan{Injections: []Injection{
			{Kind: MSRStale, Duration: sim.Millisecond, Period: 2 * sim.Millisecond, Count: -1}}}, false},
		{"windowed-negative-count", Plan{Injections: []Injection{
			Periodic(PCIeStall, 0, sim.Millisecond, 2*sim.Millisecond, -3)}}, false},
		{"burst-without-magnitude", Plan{Injections: []Injection{
			OneShot(MAppBurst, 0, sim.Millisecond)}}, false},
		{"burst-with-magnitude", Plan{Injections: []Injection{
			OneShot(MAppBurst, 0, sim.Millisecond).WithMagnitude(3)}}, true},
		{"windowed-negative-duration", Plan{Injections: []Injection{
			{Kind: PauseStorm, Duration: -sim.Millisecond}}}, false},
	}
	for _, c := range cases {
		if err := c.plan.Validate(); (err == nil) != c.ok {
			t.Errorf("%s: Validate() = %v, want ok=%v", c.name, err, c.ok)
		}
	}
}

func TestKindString(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		if k.String() == "unknown" || k.String() == "" {
			t.Errorf("kind %d has no name", int(k))
		}
	}
	if Kind(99).String() != "unknown" {
		t.Errorf("out-of-range kind string = %q", Kind(99).String())
	}
}

func TestMSRStaleWindow(t *testing.T) {
	e := sim.NewEngine(1)
	f := msr.NewFile(e)
	counter := uint64(0)
	f.RegisterReader(msr.IIOOccupancy, func() uint64 { counter += 100; return counter })

	in := MustNewInjector(e, Plan{Injections: []Injection{
		OneShot(MSRStale, 10*sim.Microsecond, 10*sim.Microsecond),
	}}, Seams{MSR: f})
	in.Arm()

	var got []uint64
	read := e.Handler(func(_, _ uint64) {
		f.Read(msr.IIOOccupancy, func(v uint64, _ sim.Time, err error) {
			if err != nil {
				t.Fatalf("unexpected read error: %v", err)
			}
			got = append(got, v)
		})
	})
	// Before, inside, and after the window (reads take ~0.5-1.2 µs).
	e.Schedule(0, read, 0, 0)
	e.Schedule(15*sim.Microsecond, read, 0, 0)
	e.Schedule(30*sim.Microsecond, read, 0, 0)
	e.Run()

	if len(got) != 3 {
		t.Fatalf("reads completed = %d, want 3", len(got))
	}
	if got[1] != got[0] {
		t.Errorf("in-window read %d should repeat pre-window snapshot %d", got[1], got[0])
	}
	if got[2] <= got[1] {
		t.Errorf("post-window read %d should advance past %d", got[2], got[1])
	}
	if in.Injected[MSRStale] != 1 {
		t.Errorf("stale injections = %d, want 1", in.Injected[MSRStale])
	}
}

func TestMSRFailWindow(t *testing.T) {
	e := sim.NewEngine(1)
	f := msr.NewFile(e)
	f.RegisterReader(msr.IIOOccupancy, func() uint64 { return 7 })
	in := MustNewInjector(e, Plan{Injections: []Injection{
		OneShot(MSRFail, 0, 5*sim.Microsecond),
	}}, Seams{MSR: f})
	in.Arm()
	var errs int
	sim.NewTimer(e, func() {
		f.Read(msr.IIOOccupancy, func(_ uint64, _ sim.Time, err error) {
			if err != nil {
				errs++
			}
		})
	}).ResetAt(sim.Microsecond)
	e.Run()
	if errs != 1 {
		t.Fatalf("in-window read did not fail")
	}
	if f.FailedReads != 1 {
		t.Errorf("FailedReads = %d, want 1", f.FailedReads)
	}
}

func TestMBADropWindow(t *testing.T) {
	e := sim.NewEngine(1)
	mba := cpu.NewMBA(e, cpu.DefaultMBAConfig())
	in := MustNewInjector(e, Plan{Injections: []Injection{
		OneShot(MBADrop, 0, 100*sim.Microsecond),
	}}, Seams{MBA: mba})
	in.Arm()

	// Write issued inside the window: lost.
	sim.NewTimer(e, func() { mba.RequestLevel(2) }).ResetAt(sim.Microsecond)
	e.RunUntil(50 * sim.Microsecond)
	if mba.Level() != 0 {
		t.Fatalf("dropped write applied: level %d", mba.Level())
	}
	if mba.LostWrites != 1 {
		t.Fatalf("LostWrites = %d, want 1", mba.LostWrites)
	}
	// Retried after the window clears: applies normally.
	sim.NewTimer(e, func() { mba.RequestLevel(2) }).ResetAt(120 * sim.Microsecond)
	e.Run()
	if mba.Level() != 2 {
		t.Fatalf("post-window write not applied: level %d", mba.Level())
	}
}

func TestLinkFlapAndPeriodic(t *testing.T) {
	e := sim.NewEngine(1)
	var delivered int
	l := fabric.NewLink(e, fabric.DefaultLinkConfig(), func(*packet.Packet) { delivered++ })
	in := MustNewInjector(e, Plan{Injections: []Injection{
		Periodic(LinkFlap, 10*sim.Microsecond, 10*sim.Microsecond, 30*sim.Microsecond, 2),
	}}, Seams{Links: []*fabric.Link{l}})
	in.Arm()

	mk := func() *packet.Packet {
		return &packet.Packet{Flow: packet.FlowID{Dst: 1}, PayloadLen: 100}
	}
	// Windows: [10,20) and [40,50) µs.
	send := e.Handler(func(_, _ uint64) { l.Send(mk()) })
	for _, at := range []sim.Time{0, 15 * sim.Microsecond, 25 * sim.Microsecond, 45 * sim.Microsecond, 55 * sim.Microsecond} {
		e.Schedule(at, send, 0, 0)
	}
	e.Run()
	if delivered != 3 {
		t.Fatalf("delivered = %d, want 3 (two packets flapped away)", delivered)
	}
	if got := l.FlapDrops.Total(); got != 2 {
		t.Fatalf("FlapDrops = %d, want 2", got)
	}
	if len(in.Events) != 4 {
		t.Fatalf("window transitions = %d, want 4", len(in.Events))
	}
}

// An unbounded periodic injection (Count 0) keeps opening windows, each
// scheduled as the previous one clears, so at most one window's events
// are ever queued.
func TestUnboundedPeriodicWindows(t *testing.T) {
	e := sim.NewEngine(1)
	l := fabric.NewLink(e, fabric.DefaultLinkConfig(), func(*packet.Packet) {})
	in := MustNewInjector(e, Plan{Injections: []Injection{
		Periodic(LinkFlap, 10*sim.Microsecond, 10*sim.Microsecond, 30*sim.Microsecond, 0),
	}}, Seams{Links: []*fabric.Link{l}})
	in.Arm()
	e.RunUntil(105 * sim.Microsecond)
	var want []Event
	for _, at := range []sim.Time{10, 20, 40, 50, 70, 80, 100} {
		want = append(want, Event{At: at * sim.Microsecond, Kind: LinkFlap, Active: len(want)%2 == 0})
	}
	if len(in.Events) != len(want) {
		t.Fatalf("events = %v, want %v", in.Events, want)
	}
	for i := range want {
		if in.Events[i] != want[i] {
			t.Fatalf("events = %v, want %v", in.Events, want)
		}
	}
	if e.Pending() != 1 {
		t.Fatalf("pending events = %d, want 1 (the open window's close)", e.Pending())
	}
}

func TestPCIeStallWindow(t *testing.T) {
	e := sim.NewEngine(1)
	cfg := pcie.DefaultConfig()
	var tlps int
	link := pcie.NewLink(e, cfg, func(t *pcie.TLP) { tlps++ })
	in := MustNewInjector(e, Plan{Injections: []Injection{
		OneShot(PCIeStall, sim.Microsecond, 10*sim.Microsecond),
	}}, Seams{PCIe: link})
	in.Arm()

	// Consume one TLP's credits before the stall engages.
	tlp := link.Segment(&packet.Packet{Flow: packet.FlowID{Dst: 1}, PayloadLen: 400})[0]
	if !link.TrySend(tlp) {
		t.Fatal("TrySend refused with a full pool")
	}
	consumed := tlp.Lines
	sim.NewTimer(e, func() {
		if !link.CreditStalled() {
			t.Error("stall window did not engage")
		}
		// Credits released mid-stall are sequestered, not pooled.
		before := link.Credits()
		link.ReleaseCredits(consumed)
		if link.Credits() != before {
			t.Errorf("stalled release leaked into the pool: %d -> %d", before, link.Credits())
		}
		if link.SequesteredCredits() != consumed {
			t.Errorf("sequestered = %d, want %d", link.SequesteredCredits(), consumed)
		}
	}).ResetAt(2 * sim.Microsecond)
	e.Run()
	if link.CreditStalled() {
		t.Error("stall window did not clear")
	}
	if link.Credits() != cfg.CreditLines {
		t.Errorf("credits = %d, want full pool %d after stall clears", link.Credits(), cfg.CreditLines)
	}
}

func TestNICDropDeterministic(t *testing.T) {
	run := func(seed int64) int64 {
		e := sim.NewEngine(seed)
		link := pcie.NewLink(e, pcie.DefaultConfig(), func(*pcie.TLP) {})
		n := nic.New(e, nic.DefaultConfig(), link, nil)
		in := MustNewInjector(e, Plan{Injections: []Injection{
			Probabilistic(NICDrop, 0, sim.Millisecond, 0.3),
		}}, Seams{NIC: n})
		in.Arm()
		arrive := e.Handler(func(_, _ uint64) {
			n.Receive(&packet.Packet{Flow: packet.FlowID{Dst: 1}, PayloadLen: 1000})
		})
		for i := 0; i < 200; i++ {
			e.Schedule(sim.Time(i)*sim.Microsecond, arrive, 0, 0)
		}
		e.Run()
		return n.FaultDrops.Total()
	}
	a, b := run(7), run(7)
	if a != b {
		t.Fatalf("same seed, different drops: %d vs %d", a, b)
	}
	if a == 0 || a == 200 {
		t.Fatalf("drops = %d, want a strict subset of 200 at p=0.3", a)
	}
	if c := run(8); c == a {
		t.Logf("note: different seed gave same drop count %d (possible, not an error)", c)
	}
}

func TestBuiltinScenarios(t *testing.T) {
	for _, name := range BuiltinNames() {
		p, err := Builtin(name, sim.Millisecond, sim.Millisecond)
		if err != nil {
			t.Fatalf("Builtin(%q): %v", name, err)
		}
		if err := p.Validate(); err != nil {
			t.Errorf("builtin %q invalid: %v", name, err)
		}
		if p.End() != 2*sim.Millisecond {
			t.Errorf("builtin %q End = %v, want 2ms", name, p.End())
		}
	}
	if _, err := Builtin("no-such", 0, 0); err == nil {
		t.Error("unknown scenario did not error")
	}
}

func TestParseKindRoundTrip(t *testing.T) {
	for k := Kind(0); k < numKinds; k++ {
		got, err := ParseKind(k.String())
		if err != nil {
			t.Fatalf("ParseKind(%q): %v", k.String(), err)
		}
		if got != k {
			t.Errorf("ParseKind(%q) = %v, want %v", k.String(), got, k)
		}
	}
	if _, err := ParseKind("no-such-kind"); err == nil {
		t.Error("unknown kind name did not error")
	}
}

func TestScenariosRegistry(t *testing.T) {
	infos := Scenarios()
	if len(infos) != len(BuiltinNames()) {
		t.Fatalf("Scenarios() has %d entries, builtins %d", len(infos), len(BuiltinNames()))
	}
	byName := map[string]ScenarioInfo{}
	for i, info := range infos {
		if i > 0 && infos[i-1].Name >= info.Name {
			t.Errorf("Scenarios() not sorted: %q before %q", infos[i-1].Name, info.Name)
		}
		if info.Topology == "" {
			t.Errorf("scenario %q has no natural topology", info.Name)
		}
		if _, err := Builtin(info.Name, 0, sim.Millisecond); err != nil {
			t.Errorf("scenario %q not a builtin: %v", info.Name, err)
		}
		byName[info.Name] = info
	}
	// Every explicit constraint entry must name a real builtin (a renamed
	// scenario must not leave a stale constraint behind).
	for name := range scenarioInfo {
		if _, ok := byName[name]; !ok {
			t.Errorf("scenarioInfo entry %q is not a builtin", name)
		}
	}
	// Spot-check the constraints the chaos harness depends on.
	if !byName["pfc-storm"].Lossless || byName["pfc-storm"].Topology != "leafspine" {
		t.Errorf("pfc-storm constraints wrong: %+v", byName["pfc-storm"])
	}
	if !byName["trunk-flap"].Trunks || byName["trunk-flap"].Topology != "leafspine" {
		t.Errorf("trunk-flap constraints wrong: %+v", byName["trunk-flap"])
	}
	if byName["msr-stale"].Lossless || byName["msr-stale"].Topology != "star" || byName["msr-stale"].Trunks {
		t.Errorf("msr-stale constraints wrong: %+v", byName["msr-stale"])
	}
}
