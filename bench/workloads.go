package main

import (
	"fmt"
	"math"
	"strings"

	"repro/internal/evalharness"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// size scales the four workloads: fullSize is the benchmark, tinySize the
// smoke test's variant of it.
type size struct {
	hostboundWarmup, hostboundMeasure sim.Time
	scaleWarmup, scaleMeasure         sim.Time
	fluidFlows                        int
	evalSchemes                       []string // nil = every registered scheme
	evalWarmup, evalMeasure           sim.Time // 0 = the eval harness defaults
	// bands checks each workload's sanity band; the bands hold only at
	// full size.
	bands bool
}

var fullSize = size{
	hostboundWarmup: 4 * sim.Millisecond, hostboundMeasure: 64 * sim.Millisecond,
	scaleWarmup: 2 * sim.Millisecond, scaleMeasure: 8 * sim.Millisecond,
	fluidFlows: 1_000_000,
	bands:      true,
}

var tinySize = size{
	hostboundWarmup: 200 * sim.Microsecond, hostboundMeasure: 200 * sim.Microsecond,
	scaleWarmup: 200 * sim.Microsecond, scaleMeasure: 200 * sim.Microsecond,
	fluidFlows:  1_000,
	evalSchemes: []string{"dctcp", "bbr"},
	evalWarmup:  200 * sim.Microsecond, evalMeasure: 200 * sim.Microsecond,
}

// workload is one reference run (BENCHMARK.json and README.md say why
// each was chosen). build performs a rep's set-up — every step before the
// first simulated event — and returns the simulate phase.
type workload struct {
	name  string
	build func(seed int64, sz size, tr *tracer) (*instance, error)
	// probe, when set, is the set-up probe instead of build: eval-56's
	// set-up happens inside evalharness.Run, where the benchmark cannot
	// time it.
	probe func(seed int64, sz size) error
	// workers is how many goroutines the workload keeps busy (sweep
	// utilization divides by it).
	workers int
}

// instance is one built rep: simulate runs it to its result, release
// frees what build started (shard goroutines).
type instance struct {
	simulate func() (outcome, error)
	release  func()
}

// outcome is what the simulate phase produced.
type outcome struct {
	digest   uint64
	summary  string
	band     error // non-nil when the result left its sanity band
	counters map[string]float64
}

// band checks a finished testbed's result against a workload's sanity
// band.
type band func(testbed.Metrics, *testbed.Testbed) error

var workloads = []workload{
	{
		name: "hostbound-3x",
		build: func(seed int64, sz size, tr *tracer) (*instance, error) {
			opts := testbed.DefaultConfig()
			opts.Seed = seed
			opts.Degree = 3
			opts.HostCC = true
			opts.Warmup = sz.hostboundWarmup
			opts.Measure = sz.hostboundMeasure
			opts.MinRTO = 5 * sim.Millisecond
			return buildPacket(opts, 0, bandFor(sz, func(m testbed.Metrics, _ *testbed.Testbed) error {
				if m.ThroughputGbps < 70 || m.DropRatePct > 0.01 {
					return fmt.Errorf("goodput %.2f Gbps (band >= 70), NIC drops %.4f%% (band <= 0.01%%)",
						m.ThroughputGbps, m.DropRatePct)
				}
				return nil
			}), tr)
		},
		workers: 1,
	},
	{
		name: "leafspine-128",
		build: func(seed int64, sz size, tr *tracer) (*instance, error) {
			return buildScaleOut(leafspineConfig(seed, sz), bandFor(sz, func(m testbed.Metrics, _ *testbed.Testbed) error {
				return within("goodput", m.ThroughputGbps, 191.8, "Gbps")
			}), tr)
		},
		workers: 2,
	},
	{
		name: "fluid-1m",
		build: func(seed int64, sz size, tr *tracer) (*instance, error) {
			return buildScaleOut(fluidConfig(seed, sz), bandFor(sz, func(m testbed.Metrics, tb *testbed.Testbed) error {
				if err := within("packet goodput", m.ThroughputGbps, 49.0, "Gbps"); err != nil {
					return err
				}
				return within("fluid goodput", fluidGoodputGbps(tb)/1000, 826.8, "Tbps")
			}), tr)
		},
		workers: 1,
	},
	{
		name: "eval-56",
		build: func(seed int64, sz size, tr *tracer) (*instance, error) {
			cfg := evalConfig(seed, sz)
			if err := cfg.Validate(); err != nil {
				return nil, err
			}
			return &instance{simulate: func() (outcome, error) {
				var rep evalharness.Report
				var err error
				tr.span("eval", func() { rep, err = evalharness.Run(cfg) })
				if err != nil {
					return outcome{}, err
				}
				var out outcome
				tr.span("verify", func() { out = evalOutcome(rep, sz) })
				return out, nil
			}, release: func() {}}, nil
		},
		probe: func(seed int64, sz size) error {
			// The same matrix with 1 µs windows: its 112 testbed builds
			// and digest registries, and next to no simulated events.
			cfg := evalConfig(seed, sz)
			cfg.Warmup, cfg.Measure, cfg.SampleEvery = sim.Microsecond, sim.Microsecond, sim.Microsecond
			_, err := evalharness.Run(cfg)
			return err
		},
		workers: 2,
	},
}

func workloadByName(name string) (workload, error) {
	var names []string
	for _, w := range workloads {
		if w.name == name {
			return w, nil
		}
		names = append(names, w.name)
	}
	return workload{}, fmt.Errorf("unknown workload %q (have %s)", name, strings.Join(names, ", "))
}

// bandFor is check where sz has sanity bands (full size) and a pass
// otherwise.
func bandFor(sz size, check band) band {
	if !sz.bands {
		return func(testbed.Metrics, *testbed.Testbed) error { return nil }
	}
	return check
}

// within checks got against a ±5% band around want.
func within(what string, got, want float64, unit string) error {
	if math.Abs(got-want) > 0.05*want {
		return fmt.Errorf("%s %.1f %s outside %.1f %s ± 5%%", what, got, unit, want, unit)
	}
	return nil
}

// leafspineConfig is the 128-sender scale-out as testbed.RunScaleOut
// takes it, every default spelled out.
func leafspineConfig(seed int64, sz size) testbed.ScaleOutConfig {
	return testbed.ScaleOutConfig{
		Topology: "leafspine", Leaves: 4, Spines: 2,
		Senders: 128, Receivers: 8, Flows: 128,
		Scheme: "dctcp", Seed: seed, Shards: 2, Degree: 2,
		Warmup: sz.scaleWarmup, Measure: sz.scaleMeasure,
		DigestEvery: 500 * sim.Microsecond,
	}
}

// fluidConfig is the million-flow hybrid run: 8 packet senders into 2
// receivers on a 2x2 leaf-spine under a fluid background population of
// one virtual host per 100 flows, serial.
func fluidConfig(seed int64, sz size) testbed.ScaleOutConfig {
	return testbed.ScaleOutConfig{
		Topology: "leafspine", Leaves: 2, Spines: 2,
		Senders: 8, Receivers: 2, Flows: 8,
		Scheme:     "dctcp",
		FluidHosts: sz.fluidFlows / 100, FluidFlows: sz.fluidFlows,
		Seed: seed, Shards: 1, Degree: 2,
		Warmup: sz.scaleWarmup, Measure: sz.scaleMeasure,
		DigestEvery: 500 * sim.Microsecond,
	}
}

func evalConfig(seed int64, sz size) evalharness.Config {
	return evalharness.Config{
		Schemes: sz.evalSchemes, Seed: seed, Workers: 2,
		Warmup: sz.evalWarmup, Measure: sz.evalMeasure,
	}
}

// buildScaleOut builds cfg the way testbed.RunScaleOut builds one
// execution; cfg must spell out every field RunScaleOut defaults.
func buildScaleOut(cfg testbed.ScaleOutConfig, check band, tr *tracer) (*instance, error) {
	kind, err := fabric.ParseTopologyKind(cfg.Topology)
	if err != nil {
		return nil, err
	}
	scheme, err := transport.SchemeByName(cfg.Scheme)
	if err != nil {
		return nil, err
	}
	opts := testbed.DefaultConfig()
	opts.Seed = cfg.Seed
	opts.CC = scheme.Factory()
	if scheme.Lossless {
		opts.Lossless = true
		opts.PauseWatchdog = 150 * sim.Microsecond
	}
	opts.HostCC = true
	opts.Degree = cfg.Degree
	opts.Topology = fabric.Topology{Kind: kind, Leaves: cfg.Leaves, Spines: cfg.Spines}
	opts.Senders = cfg.Senders
	opts.Receivers = cfg.Receivers
	opts.Flows = cfg.Flows
	opts.Warmup = cfg.Warmup
	opts.Measure = cfg.Measure
	opts.MinRTO = sim.Millisecond
	opts.Shards = cfg.Shards
	if cfg.FluidHosts > 0 {
		opts.FluidBackground = &testbed.FluidBackground{
			Hosts:      cfg.FluidHosts,
			Flows:      cfg.FluidFlows,
			Promotable: cfg.FluidPromotable,
		}
	}
	return buildPacket(opts, cfg.DigestEvery, check, tr)
}

// buildPacket is the set-up of a testbed workload: Validate, New, the
// NetApp-T flows, the digest registry and, when digestEvery > 0, a digest
// frame recorder. The simulate phase is warmup, measurement window and a
// final digest, in testbed.RunScaleOut's order.
func buildPacket(opts testbed.Config, digestEvery sim.Time, check band, tr *tracer) (*instance, error) {
	if err := opts.Validate(); err != nil {
		return nil, err
	}
	tb := testbed.New(opts)
	if tb.Group != nil {
		// A zero-length run starts the shard workers, under their own
		// profile label: started inside the warmup span they would carry
		// its label for the whole rep.
		tr.label("shard-workers", func() { tb.RunUntil(tb.Now()) })
	}
	tb.StartNetAppT()
	reg := tb.Registry()
	timeline := &snapshot.Timeline{}
	recording := true
	var digestSec float64
	if digestEvery > 0 {
		tb.Every(digestEvery, func() {
			if !recording {
				return
			}
			digestSec += tr.span("digest", func() {
				timeline.Append(snapshot.Frame{
					At:      int64(tb.Now()),
					Events:  tb.Processed(),
					Digests: reg.Digests(),
				})
			})
		})
	}
	simulate := func() (outcome, error) {
		tr.span("warmup", func() { tb.RunUntil(tb.Opts.Warmup) })
		var m testbed.Metrics
		tr.span("measure", func() {
			tb.MarkWindow()
			tb.RunFor(tb.Opts.Measure)
			m = tb.Collect()
		})
		for _, h := range tb.HCCs {
			h.Stop()
		}
		recording = false
		var final []snapshot.Digest
		digestSec += tr.span("digest", func() { final = reg.Digests() })
		out := outcome{digest: snapshot.Combined(final)}
		tr.span("verify", func() {
			out.band = check(m, tb)
			out.counters = testbedCounters(tb)
			out.counters["snapshot.frames"] = float64(timeline.Len())
			out.counters["snapshot.digest_s"] = digestSec
			out.summary = fmt.Sprintf("%.1f Gbps, %d events", m.ThroughputGbps, tb.Processed())
			if tb.FluidNet != nil {
				out.summary += fmt.Sprintf(", fluid %.1f Tbps", fluidGoodputGbps(tb)/1000)
			}
		})
		return out, nil
	}
	return &instance{simulate: simulate, release: tb.Close}, nil
}

// fluidGoodputGbps is the background population's goodput over the whole
// run, as testbed.RunScaleOut reports it.
func fluidGoodputGbps(tb *testbed.Testbed) float64 {
	elapsed := tb.Now().Seconds()
	if tb.FluidNet == nil || elapsed <= 0 {
		return 0
	}
	delivered := tb.FluidNet.DeliveredBytes()
	if tb.FluidTwins != nil {
		delivered += float64(tb.FluidTwins.DeliveredBytes())
	}
	return delivered * 8 / elapsed / 1e9
}

// evalOutcome checks an eval report: every cell replay-verified and, at
// full size, a host-bottleneck pane re-ranked by hostCC (the paper's
// claim). The digest hashes the deterministic Markdown rendering.
func evalOutcome(rep evalharness.Report, sz size) outcome {
	verified := 0
	for _, c := range rep.Cells {
		if c.Verified {
			verified++
		}
	}
	reranked := 0
	for _, r := range rep.Rankings {
		if r.Workload == "hostbound" && r.OrderingChanged {
			reranked++
		}
	}
	out := outcome{
		digest:  snapshot.HashBytes([]byte(rep.Markdown())),
		summary: fmt.Sprintf("%d cells, %d verified, %d hostbound panes re-ranked", len(rep.Cells), verified, reranked),
		counters: map[string]float64{
			"evalharness.cells":    float64(len(rep.Cells)),
			"evalharness.verified": float64(verified),
		},
	}
	switch {
	case verified != len(rep.Cells):
		out.band = fmt.Errorf("%d of %d cells replay-verified", verified, len(rep.Cells))
	case sz.bands && len(rep.Cells) != 56:
		out.band = fmt.Errorf("%d cells, want 56", len(rep.Cells))
	case sz.bands && reranked == 0:
		out.band = fmt.Errorf("no hostbound pane re-ranked by hostCC")
	}
	return out
}
