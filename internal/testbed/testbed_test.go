package testbed

import (
	"math"
	"testing"

	"repro/internal/core"
	"repro/internal/sim"
	"repro/internal/stats"
)

func TestBaselineUncongested(t *testing.T) {
	opts := ScaleQuick.throughputOpts()
	tb := New(opts)
	tb.StartNetAppT()
	m := tb.RunWindow()
	if m.ThroughputGbps < 93 {
		t.Fatalf("uncongested throughput = %.1f, want ~98", m.ThroughputGbps)
	}
	if m.DropRatePct != 0 {
		t.Fatalf("uncongested drop rate = %f%%", m.DropRatePct)
	}
	if m.AvgIS < 55 || m.AvgIS > 75 {
		t.Fatalf("idle IS = %.1f, want ~65", m.AvgIS)
	}
	if m.AvgBSGbps < 98 || m.AvgBSGbps > 112 {
		t.Fatalf("idle BS = %.1f, want ~105", m.AvgBSGbps)
	}
	// NetApp-T memory amplification ~2.1 B/B (§4.2).
	amp := m.MemUtilNet * 46.9 / (m.ThroughputGbps / 8)
	if amp < 1.8 || amp > 2.4 {
		t.Fatalf("memory amplification = %.2f, want ~2.1", amp)
	}
}

func TestHostCongestionDegradesBaseline(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows := RunCongestionSweep(ScaleQuick, false, false, []float64{0, 3})
	base, congested := rows[0].M, rows[1].M
	// Paper: >35% throughput degradation at high congestion.
	if congested.ThroughputGbps > base.ThroughputGbps*0.65 {
		t.Fatalf("3x throughput %.1f vs 0x %.1f: degradation under 35%%",
			congested.ThroughputGbps, base.ThroughputGbps)
	}
	if congested.DropRatePct == 0 {
		t.Fatal("no drops at 3x host congestion")
	}
	if congested.AvgIS <= base.AvgIS {
		t.Fatalf("IS did not rise: %.1f -> %.1f", base.AvgIS, congested.AvgIS)
	}
}

func TestHostCCRestoresThroughputAndEliminatesDrops(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	// The headline result (Figure 10) at 3x.
	base := RunCongestionSweep(ScaleQuick, false, false, []float64{3})[0].M
	cc := RunCongestionSweep(ScaleQuick, false, true, []float64{3})[0].M
	if cc.ThroughputGbps < 70 || cc.ThroughputGbps > 85 {
		t.Fatalf("hostCC throughput %.1f, want near B_T=80", cc.ThroughputGbps)
	}
	if cc.ThroughputGbps < base.ThroughputGbps*1.4 {
		t.Fatalf("hostCC %.1f not a big win over baseline %.1f", cc.ThroughputGbps, base.ThroughputGbps)
	}
	// Orders-of-magnitude drop reduction.
	if cc.DropRatePct > base.DropRatePct/5 {
		t.Fatalf("hostCC drops %.4f%% vs baseline %.4f%%: insufficient reduction",
			cc.DropRatePct, base.DropRatePct)
	}
	if cc.MarkedPct == 0 {
		t.Fatal("hostCC never echoed congestion")
	}
	// MApp is not starved outright.
	if cc.MemUtilMApp <= 0.03 {
		t.Fatalf("MApp starved: util %.3f", cc.MemUtilMApp)
	}
}

func TestHostCCNegligibleWithoutCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	base := RunCongestionSweep(ScaleQuick, false, false, []float64{0})[0].M
	cc := RunCongestionSweep(ScaleQuick, false, true, []float64{0})[0].M
	if cc.ThroughputGbps < base.ThroughputGbps*0.97 {
		t.Fatalf("hostCC overhead at 0x: %.1f vs %.1f", cc.ThroughputGbps, base.ThroughputGbps)
	}
	if cc.MarkedPct > 1 {
		t.Fatalf("hostCC marked %.1f%% of packets without congestion", cc.MarkedPct)
	}
}

func TestFigure9LevelsMonotone(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	prevNet, prevMApp := -1.0, 1e18
	for level := 0; level < 5; level++ {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = 3
		opts.FixedLevel = level
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		if m.ThroughputGbps <= prevNet {
			t.Fatalf("level %d: net throughput %.1f not above previous %.1f",
				level, m.ThroughputGbps, prevNet)
		}
		if m.MAppTputGbps >= prevMApp {
			t.Fatalf("level %d: MApp throughput %.1f not below previous %.1f",
				level, m.MAppTputGbps, prevMApp)
		}
		prevNet, prevMApp = m.ThroughputGbps, m.MAppTputGbps
		if level == 4 {
			if m.ThroughputGbps < 93 {
				t.Fatalf("level 4 (pause) throughput %.1f, want line rate", m.ThroughputGbps)
			}
			if m.MAppTputGbps > 0.1 {
				t.Fatalf("level 4 MApp throughput %.1f, want 0", m.MAppTputGbps)
			}
		}
	}
}

func TestFigure16SensitivityToBT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	for _, bt := range []float64{20, 50, 90} {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.BT = sim.Gbps(bt)
		tb := New(opts)
		tb.StartNetAppT()
		m := tb.RunWindow()
		// Above the echo-equilibrium floor (~33G in this model, see
		// EXPERIMENTS.md) throughput should track B_T.
		if bt >= 50 && (m.ThroughputGbps < bt*0.72 || m.ThroughputGbps > bt*1.25+6) {
			t.Errorf("BT=%.0f: throughput %.1f does not track target", bt, m.ThroughputGbps)
		}
		// Low targets: drops stay minimal (arrival below drain, §5.3) and
		// MApp keeps most of the memory bandwidth.
		if bt == 20 {
			if m.DropRatePct > 0.05 {
				t.Errorf("BT=20: drop rate %.4f%%, want ~0", m.DropRatePct)
			}
			if m.MemUtilMApp < 0.25 {
				t.Errorf("BT=20: MApp util %.2f; low targets should leave MApp alone", m.MemUtilMApp)
			}
		}
	}
}

func TestFigure17SensitivityToIT(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	// Higher I_T = less aggressive reaction = more MApp bandwidth.
	low := func() Metrics {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.IT = 70
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}()
	high := func() Metrics {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = 3
		opts.HostCC = true
		opts.IT = 90
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}()
	if high.MemUtilMApp <= low.MemUtilMApp {
		t.Fatalf("IT=90 MApp util %.2f should exceed IT=70's %.2f",
			high.MemUtilMApp, low.MemUtilMApp)
	}
}

func TestFigure18AblationShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	rows := RunFigure18(ScaleQuick)
	byMode := map[core.Mode]Metrics{}
	for _, r := range rows {
		byMode[r.Mode] = r.M
	}
	echo, local, full := byMode[core.ModeEchoOnly], byMode[core.ModeLocalOnly], byMode[core.ModeFull]
	// Echo-only: low drops but degraded throughput (paper: ~28G).
	if echo.ThroughputGbps >= full.ThroughputGbps*0.85 {
		t.Errorf("echo-only throughput %.1f should trail full %.1f",
			echo.ThroughputGbps, full.ThroughputGbps)
	}
	// Local-only: throughput restored, but without the echo the host
	// runs hotter (deeper IIO occupancy; in the paper this appears as
	// IS pinned at the cap plus residual drops — our paced senders
	// absorb the overshoot at the transmit queue, so the excess shows
	// up as occupancy rather than loss; see EXPERIMENTS.md).
	if local.ThroughputGbps < full.ThroughputGbps*0.9 {
		t.Errorf("local-only throughput %.1f should be near full %.1f",
			local.ThroughputGbps, full.ThroughputGbps)
	}
	if local.DropRatePct < full.DropRatePct {
		t.Errorf("local-only drops %.4f%% below full %.4f%%",
			local.DropRatePct, full.DropRatePct)
	}
	if local.AvgIS <= full.AvgIS {
		t.Errorf("local-only IS %.1f should exceed full mode's %.1f (no echo)",
			local.AvgIS, full.AvgIS)
	}
	// Full: both good.
	if full.ThroughputGbps < 70 {
		t.Errorf("full hostCC throughput %.1f", full.ThroughputGbps)
	}
}

func TestFigure7SignalLatencyIndependentOfCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	cdfs := RunFigure7(ScaleQuick)
	if len(cdfs) != 2 {
		t.Fatalf("cdfs = %d", len(cdfs))
	}
	for _, c := range cdfs {
		if c.MaxUs > 1.3 {
			t.Errorf("congested=%v: max read latency %.2fus, want sub-1.2us", c.Congested, c.MaxUs)
		}
		if c.MeanUs < 0.4 || c.MeanUs > 0.8 {
			t.Errorf("congested=%v: mean read latency %.2fus", c.Congested, c.MeanUs)
		}
	}
	diff := cdfs[0].MeanUs - cdfs[1].MeanUs
	if diff < 0 {
		diff = -diff
	}
	if diff > 0.05 {
		t.Errorf("read latency depends on congestion: %.3f vs %.3f", cdfs[0].MeanUs, cdfs[1].MeanUs)
	}
}

func TestFigure8TraceShape(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	traces := RunFigure8(ScaleQuick)
	idle, congested := traces[0], traces[1]
	if idle.IS.Mean() < 55 || idle.IS.Mean() > 75 {
		t.Errorf("idle IS trace mean %.1f, want ~65", idle.IS.Mean())
	}
	if congested.IS.Mean() <= idle.IS.Mean() {
		t.Errorf("congested IS %.1f not above idle %.1f", congested.IS.Mean(), idle.IS.Mean())
	}
	_, hi := congested.IS.MinMax()
	if hi < 80 {
		t.Errorf("congested IS max %.1f; should approach the ~93 credit cap", hi)
	}
	if hi > 95 {
		t.Errorf("congested IS max %.1f exceeds the credit cap", hi)
	}
	if congested.BS.Mean() >= idle.BS.Mean()*0.8 {
		t.Errorf("congested BS %.1f vs idle %.1f: insufficient PCIe degradation",
			congested.BS.Mean(), idle.BS.Mean())
	}
}

func TestFigure19SteadyState(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	tr := RunFigure19(ScaleQuick)
	// PCIe bandwidth hugs B_T (80G + ~5% overhead = 84G).
	if m := tr.BS.Mean(); m < 70 || m > 95 {
		t.Errorf("steady-state BS mean %.1f, want ~84", m)
	}
	// I_S stays mostly below I_T.
	if f := tr.IS.FractionAbove(70); f > 0.5 {
		t.Errorf("IS above threshold %.0f%% of the time", f*100)
	}
	// The response level is actively managed (not pinned at 0).
	if lo, hi := tr.Level.MinMax(); hi == 0 || hi-lo < 1 {
		t.Errorf("response level static: min=%v max=%v", lo, hi)
	}
}

func TestIncastWithAndWithoutHostCongestion(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	run := func(degree float64, hostcc bool) Metrics {
		opts := ScaleQuick.throughputOpts()
		opts.Senders = 2
		opts.Flows = 10 // 2.5x incast
		opts.Degree = degree
		opts.HostCC = hostcc
		tb := New(opts)
		tb.StartNetAppT()
		return tb.RunWindow()
	}
	// Network congestion only: hostCC ~= baseline (minimal overhead).
	b0 := run(0, false)
	h0 := run(0, true)
	if h0.ThroughputGbps < b0.ThroughputGbps*0.93 {
		t.Errorf("incast w/o host congestion: hostCC %.1f vs baseline %.1f",
			h0.ThroughputGbps, b0.ThroughputGbps)
	}
	// Host + network congestion: hostCC wins on both metrics.
	b3 := run(3, false)
	h3 := run(3, true)
	if h3.ThroughputGbps < b3.ThroughputGbps*1.2 {
		t.Errorf("incast with host congestion: hostCC %.1f vs baseline %.1f",
			h3.ThroughputGbps, b3.ThroughputGbps)
	}
	// Drops stay minimal (short windows make exact comparisons noisy
	// when the baseline happens to be mid-backoff).
	if h3.DropRatePct > b3.DropRatePct+0.1 {
		t.Errorf("incast with host congestion: hostCC drops %.4f%% vs %.4f%%",
			h3.DropRatePct, b3.DropRatePct)
	}
}

func TestOptionsDefaults(t *testing.T) {
	o := Config{}.withDefaults()
	if o.MTU != 4096 || o.Flows != 4 || o.Senders != 1 || o.Seed == 0 {
		t.Fatalf("defaults wrong: %+v", o)
	}
	tb := New(Config{})
	if tb.Receiver == nil || len(tb.Senders) != 1 || tb.HCC == nil {
		t.Fatal("testbed incomplete")
	}
	defer func() {
		if recover() == nil {
			t.Error("double StartNetAppT did not panic")
		}
	}()
	tb.StartNetAppT()
	tb.StartNetAppT()
}

// TestNewValidatesSerial: New validates at every shard count, so a
// serial build of an invalid config panics with the Validate error
// instead of running it.
func TestNewValidatesSerial(t *testing.T) {
	cases := []struct {
		name string
		edit func(*Config)
	}{
		{"fixed-level-below-dynamic", func(o *Config) { o.FixedLevel = -5 }},
		{"mode-out-of-range", func(o *Config) { o.Mode = core.ModeOff + 1 }},
		{"negative-flows", func(o *Config) { o.Flows = -1 }},
		{"fluid-rtt-window-overflow", func(o *Config) {
			o.FluidBackground = &FluidBackground{Hosts: 2, Tick: sim.Nanosecond, RTT: 65536 * sim.Nanosecond}
		}},
		{"infinite-degree", func(o *Config) { o.Degree = math.Inf(1) }},
		{"signal-weight-above-one", func(o *Config) { o.SignalWeightIS = 5 }},
		{"negative-mba-write-latency", func(o *Config) { o.MBAWriteLatency = -1 }},
		{"mba-write-latency-overflow", func(o *Config) { o.MBAWriteLatency = math.MaxInt64 }},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			o := DefaultConfig()
			c.edit(&o)
			want := o.withDefaults().Validate()
			if want == nil {
				t.Fatal("case is not invalid")
			}
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || err.Error() != want.Error() {
					t.Fatalf("New panicked with %v, want the Validate error %q", r, want)
				}
			}()
			New(o)
		})
	}
}

func TestFlowsShareFairly(t *testing.T) {
	if testing.Short() {
		t.Skip("multi-run experiment")
	}
	// Both uncongested and hostCC-managed runs should share the bottleneck
	// fairly across the 4 flows (Jain index near 1).
	for _, cfg := range []struct {
		name   string
		degree float64
		hostcc bool
	}{{"uncongested", 0, false}, {"hostcc-3x", 3, true}} {
		opts := ScaleQuick.throughputOpts()
		opts.Degree = cfg.degree
		opts.HostCC = cfg.hostcc
		tb := New(opts)
		nt := tb.StartNetAppT()
		tb.RunWindow()
		j := stats.JainIndex(nt.FlowShares())
		if j < 0.85 {
			t.Errorf("%s: Jain index %.3f across flows %v", cfg.name, j, nt.FlowShares())
		}
	}
}
