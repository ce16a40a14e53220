package core

import (
	"testing"

	"repro/internal/msr"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
)

// fakeCounters drive the MSR registers with programmable occupancy and
// insertion rates.
type fakeCounters struct {
	e   *sim.Engine
	occ stats.TimeWeighted // occupancy in lines
	ins uint64             // cumulative lines inserted
}

func (fc *fakeCounters) setOcc(lines float64) { fc.occ.Set(fc.e.Now(), lines) }
func (fc *fakeCounters) rocc() uint64 {
	return uint64(fc.occ.Integral(fc.e.Now()) / msr.TickNanos)
}

// insertAtRate schedules RINS growth equivalent to the given PCIe rate.
func (fc *fakeCounters) insertAtRate(r sim.Rate, every sim.Time) *sim.Ticker {
	lines := uint64(r.BytesIn(every) / 64)
	return sim.NewTicker(fc.e, every, func() { fc.ins += lines })
}

// fakeMBA records level requests instantly.
type fakeMBA struct {
	level   int
	nLevels int
	history []int
}

func (m *fakeMBA) RequestLevel(l int) { m.level = l; m.history = append(m.history, l) }
func (m *fakeMBA) Level() int         { return m.level }
func (m *fakeMBA) NumLevels() int     { return m.nLevels }

func newRig(t *testing.T, cfg Config) (*sim.Engine, *fakeCounters, *fakeMBA, *HostCC) {
	t.Helper()
	e := sim.NewEngine(1)
	fc := &fakeCounters{e: e}
	f := msr.NewFile(e)
	f.RegisterReader(msr.IIOOccupancy, fc.rocc)
	f.RegisterReader(msr.IIOInsertions, func() uint64 { return fc.ins })
	mba := &fakeMBA{nLevels: 5}
	h := New(e, f, mba, cfg)
	return e, fc, mba, h
}

func TestSignalsTrackCounters(t *testing.T) {
	cfg := DefaultConfig(false)
	e, fc, _, h := newRig(t, cfg)
	fc.setOcc(80)
	tk := fc.insertAtRate(sim.Gbps(100), sim.Microsecond)
	h.Start()
	e.RunUntil(500 * sim.Microsecond)
	tk.Stop()
	h.Stop()
	if is := h.IS(); is < 75 || is > 85 {
		t.Fatalf("IS = %.1f, want ~80", is)
	}
	if bs := h.BS().Gbps(); bs < 90 || bs > 110 {
		t.Fatalf("BS = %.1f Gbps, want ~100", bs)
	}
	if !h.Congested() {
		t.Fatal("IS=80 > IT=70 should report congestion")
	}
	if h.BelowTarget() {
		t.Fatal("BS=100G above BT=80G should not be below target")
	}
	if h.Samples.Total() == 0 {
		t.Fatal("no samples recorded")
	}
}

func TestRegime3RaisesLevelAndRegime1Lowers(t *testing.T) {
	cfg := DefaultConfig(false)
	e, fc, mba, h := newRig(t, cfg)
	// Regime 3: congested (IS>IT) and below target (BS<BT).
	fc.setOcc(90)
	tk := fc.insertAtRate(sim.Gbps(40), sim.Microsecond)
	h.Start()
	e.RunUntil(300 * sim.Microsecond)
	if mba.Level() != 4 {
		t.Fatalf("level = %d under regime 3, want escalation to 4", mba.Level())
	}
	if h.LevelRaises.Total() == 0 {
		t.Fatal("no raises counted")
	}
	// Regime 1: not congested, target met -> level should fall back.
	tk.Stop()
	fc.setOcc(40)
	tk2 := fc.insertAtRate(sim.Gbps(100), sim.Microsecond)
	e.RunUntil(4 * sim.Millisecond) // BS EWMA (1/256) needs time
	tk2.Stop()
	h.Stop()
	if mba.Level() != 0 {
		t.Fatalf("level = %d under regime 1, want decay to 0", mba.Level())
	}
	if h.LevelDrops.Total() == 0 {
		t.Fatal("no drops counted")
	}
}

func TestRegime2And4HoldLevel(t *testing.T) {
	// Regime 2: congested but target met -> echo only, level unchanged.
	cfg := DefaultConfig(false)
	e, fc, mba, h := newRig(t, cfg)
	mba.level = 2
	fc.setOcc(90)
	tk := fc.insertAtRate(sim.Gbps(100), sim.Microsecond)
	h.Start()
	e.RunUntil(1 * sim.Millisecond)
	tk.Stop()
	h.Stop()
	if mba.Level() != 2 {
		t.Fatalf("regime 2 changed level to %d", mba.Level())
	}

	// Regime 4: not congested, below target -> hold.
	e2, fc2, mba2, h2 := newRig(t, cfg)
	mba2.level = 2
	fc2.setOcc(30)
	tk2 := fc2.insertAtRate(sim.Gbps(40), sim.Microsecond)
	h2.Start()
	e2.RunUntil(1 * sim.Millisecond)
	tk2.Stop()
	h2.Stop()
	if mba2.Level() != 2 {
		t.Fatalf("regime 4 changed level to %d", mba2.Level())
	}
}

func TestReceiveHookMarksOnlyWhenCongested(t *testing.T) {
	cfg := DefaultConfig(false)
	e, fc, _, h := newRig(t, cfg)
	hook := h.ReceiveHook()

	fc.setOcc(90)
	fc.insertAtRate(sim.Gbps(100), sim.Microsecond)
	h.Start()
	e.RunUntil(200 * sim.Microsecond)

	p := &packet.Packet{ECN: packet.ECT0, PayloadLen: 1000}
	hook(p)
	if p.ECN != packet.CE || !p.MarkedByHost {
		t.Fatal("congested host should CE-mark ECT data")
	}
	if h.MarkedPackets.Total() != 1 {
		t.Fatalf("marked = %d", h.MarkedPackets.Total())
	}

	// Already-CE packets and non-ECT packets are untouched.
	ce := &packet.Packet{ECN: packet.CE, PayloadLen: 1000}
	hook(ce)
	if ce.MarkedByHost {
		t.Fatal("already-marked packet should pass through")
	}
	plain := &packet.Packet{ECN: packet.NotECT, PayloadLen: 1000}
	hook(plain)
	if plain.ECN != packet.NotECT {
		t.Fatal("non-ECT packet must not be marked")
	}
	ackOnly := &packet.Packet{ECN: packet.ECT0, Flags: packet.FlagACK}
	hook(ackOnly)
	if ackOnly.ECN == packet.CE {
		t.Fatal("pure ACK must not be marked")
	}

	// Uncongested: no marking.
	fc.setOcc(10)
	e.RunUntil(e.Now() + 300*sim.Microsecond)
	h.Stop()
	q := &packet.Packet{ECN: packet.ECT0, PayloadLen: 1000}
	hook(q)
	if q.ECN == packet.CE {
		t.Fatalf("uncongested host marked a packet (IS=%.1f)", h.IS())
	}
}

func TestModesGateResponses(t *testing.T) {
	// Echo-only: never touches MBA.
	cfg := DefaultConfig(false)
	cfg.Mode = ModeEchoOnly
	e, fc, mba, h := newRig(t, cfg)
	fc.setOcc(90)
	fc.insertAtRate(sim.Gbps(40), sim.Microsecond)
	h.Start()
	e.RunUntil(500 * sim.Microsecond)
	h.Stop()
	if len(mba.history) != 0 {
		t.Fatalf("echo-only mode changed MBA level: %v", mba.history)
	}
	p := &packet.Packet{ECN: packet.ECT0, PayloadLen: 100}
	h.ReceiveHook()(p)
	if p.ECN != packet.CE {
		t.Fatal("echo-only mode should still mark")
	}

	// Local-only: never marks.
	cfg2 := DefaultConfig(false)
	cfg2.Mode = ModeLocalOnly
	e2, fc2, mba2, h2 := newRig(t, cfg2)
	fc2.setOcc(90)
	fc2.insertAtRate(sim.Gbps(40), sim.Microsecond)
	h2.Start()
	e2.RunUntil(500 * sim.Microsecond)
	h2.Stop()
	if mba2.Level() == 0 {
		t.Fatal("local-only mode should drive MBA")
	}
	p2 := &packet.Packet{ECN: packet.ECT0, PayloadLen: 100}
	h2.ReceiveHook()(p2)
	if p2.ECN == packet.CE {
		t.Fatal("local-only mode must not mark")
	}
}

func TestSampleCadenceAndReadLatencies(t *testing.T) {
	cfg := DefaultConfig(false)
	cfg.SampleInterval = 2 * sim.Microsecond
	e, fc, _, h := newRig(t, cfg)
	fc.setOcc(50)
	h.Start()
	e.RunUntil(1 * sim.Millisecond)
	h.Stop()
	// Each sample costs ~1.2us of reads + 2us interval => ~300 samples/ms.
	n := h.Samples.Total()
	if n < 250 || n > 450 {
		t.Fatalf("samples in 1ms = %d, want ~300", n)
	}
	// Two reads per sample (one sample may be mid-flight at stop time).
	if got := h.ReadLatency.Count(); got < 2*n || got > 2*n+1 {
		t.Fatalf("read latencies %d for %d samples", got, n)
	}
	// Figure 7's claim: reads are sub-1.2us regardless of congestion.
	if h.ReadLatency.Max() > 1200 {
		t.Fatalf("max read latency %v ns", h.ReadLatency.Max())
	}
}

func TestEWMAWeightsDifferentTimescales(t *testing.T) {
	// IS (1/8) must react to a step far faster than BS (1/256).
	cfg := DefaultConfig(false)
	e, fc, _, h := newRig(t, cfg)
	fc.setOcc(20)
	tk := fc.insertAtRate(sim.Gbps(20), sim.Microsecond)
	h.Start()
	e.RunUntil(2 * sim.Millisecond)
	// Step both signals up.
	fc.setOcc(90)
	tk.Stop()
	fc.insertAtRate(sim.Gbps(100), sim.Microsecond)
	e.RunUntil(e.Now() + 30*sim.Microsecond) // ~10 samples
	isProgress := (h.IS() - 20) / 70
	bsProgress := (h.BS().Gbps() - 20) / 80
	h.Stop()
	if isProgress < 0.5 {
		t.Fatalf("IS progressed only %.2f after step", isProgress)
	}
	if bsProgress > isProgress/2 {
		t.Fatalf("BS (%.2f) should lag IS (%.2f)", bsProgress, isProgress)
	}
}

func TestValidation(t *testing.T) {
	e := sim.NewEngine(1)
	f := msr.NewFile(e)
	// Missing hardware is a programmer error and panics, as does a
	// configuration that Validate rejects.
	invalid := func(mutate func(*Config)) func() {
		return func() {
			c := DefaultConfig(false)
			mutate(&c)
			if c.Validate() == nil {
				t.Errorf("Validate accepted %+v", c)
			}
			New(e, f, &fakeMBA{nLevels: 5}, c)
		}
	}
	panics := map[string]func(){
		"nil msr":     func() { New(e, nil, &fakeMBA{nLevels: 5}, DefaultConfig(false)) },
		"nil mba":     func() { New(e, f, nil, DefaultConfig(false)) },
		"bad weights": invalid(func(c *Config) { c.WeightIS = 0 }),
		"bad sample":  invalid(func(c *Config) { c.SampleInterval = 0 }),
		"bad IT":      invalid(func(c *Config) { c.IT = -1 }),
		"bad BT":      invalid(func(c *Config) { c.BT = -1 }),
	}
	for name, fn := range panics {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", name)
				}
			}()
			fn()
		}()
	}
	// Echo-only mode tolerates a nil controller.
	cfg := DefaultConfig(false)
	cfg.Mode = ModeEchoOnly
	if h := New(e, f, nil, cfg); h.Level() != 0 {
		t.Fatal("nil controller should report level 0")
	}
}
