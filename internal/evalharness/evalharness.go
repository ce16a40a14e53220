// Package evalharness runs the congestion-control evaluation matrix:
// scheme × topology × workload × hostCC arm, every cell a full testbed
// experiment (CoCo-Beholder's matrix shape over this repo's testbed).
// Each cell reports fairness (Jain's index over per-flow shares),
// convergence time of the aggregate goodput, the P99.9 tail latency of a
// victim RPC flow, and goodput — with the hostCC-on arm additionally
// compared against its hostCC-off twin. Cells are independent
// simulations, so the matrix fans out on the sweep worker pool, and each
// cell is replay-verified (run twice, digest timelines compared frame by
// frame) unless verification is disabled.
package evalharness

import (
	"fmt"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/stats"
	"repro/internal/sweep"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// Workload names a canned traffic shape for one matrix axis.
//
//   - "fanin": 4 senders × 8 flows into one receiver, no MApp — classic
//     network fan-in; the bottleneck is the switch port.
//   - "hostbound": 1 sender × 4 flows into a receiver squeezed by a 3×
//     MApp — the paper's host-bottleneck regime; the fabric is idle and
//     every congestion signal must come from inside the host.
type workloadShape struct {
	Senders, Flows int
	Degree         float64
}

var workloadShapes = map[string]workloadShape{
	"fanin":     {Senders: 4, Flows: 8, Degree: 0},
	"hostbound": {Senders: 1, Flows: 4, Degree: 3},
}

// Config parameterizes the evaluation matrix. Zero values select the
// documented defaults (the testbed convention).
type Config struct {
	// Schemes are transport scheme-registry names (nil = every
	// registered scheme).
	Schemes []string
	// Topologies are fabric topology names (nil = star + leafspine).
	Topologies []string
	// Workloads name traffic shapes (nil = fanin + hostbound).
	Workloads []string
	// Arms selects the hostCC axis: "off", "on" (nil = both).
	Arms []string

	// Seed derives every cell's seed (sweep.SeedFor; 0 = 42). The two
	// arms of one scheme/topology/workload share a seed, so their loads
	// are identical and the arm comparison is paired.
	Seed int64

	// Warmup / Measure bound each cell (0 = 1 ms / 4 ms).
	Warmup  sim.Time
	Measure sim.Time
	// SampleEvery is the goodput sampling period for the convergence
	// series (0 = 100 µs).
	SampleEvery sim.Time
	// DigestEvery is the replay-verification digest period (0 = 1 ms).
	DigestEvery sim.Time

	// ConvergenceTol is the stability band around the settled goodput
	// within which samples count as converged (0 = 0.25).
	ConvergenceTol float64

	// RPCSize shapes the victim NetApp-L flow (0 = 16 KiB).
	RPCSize int

	// Workers bounds concurrent cells (0 = NumCPU).
	Workers int
	// Shards partitions multi-switch cells across engine shards
	// (0/1 = serial; star cells always run serial).
	Shards int
	// NoVerify skips the run-twice replay verification (halves the cost;
	// the report then carries Verified=false cells).
	NoVerify bool
}

func (c Config) withDefaults() Config {
	if c.Schemes == nil {
		for _, s := range transport.Schemes() {
			c.Schemes = append(c.Schemes, s.Name)
		}
	}
	if c.Topologies == nil {
		c.Topologies = []string{"star", "leafspine"}
	}
	if c.Workloads == nil {
		c.Workloads = []string{"fanin", "hostbound"}
	}
	if c.Arms == nil {
		c.Arms = []string{"off", "on"}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Warmup == 0 {
		c.Warmup = sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 4 * sim.Millisecond
	}
	if c.SampleEvery == 0 {
		c.SampleEvery = 100 * sim.Microsecond
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = sim.Millisecond
	}
	if c.ConvergenceTol == 0 {
		c.ConvergenceTol = 0.25
	}
	if c.RPCSize == 0 {
		c.RPCSize = 16 << 10
	}
	return c
}

// Validate reports the first invalid parameter (after defaulting, the
// testbed convention: validate what would actually run).
func (c Config) Validate() error {
	c = c.withDefaults()
	for _, name := range c.Schemes {
		if _, err := transport.SchemeByName(name); err != nil {
			return fmt.Errorf("evalharness: %w", err)
		}
	}
	for _, name := range c.Topologies {
		if _, err := fabric.ParseTopologyKind(name); err != nil {
			return fmt.Errorf("evalharness: %w", err)
		}
	}
	for _, name := range c.Workloads {
		if _, ok := workloadShapes[name]; !ok {
			return fmt.Errorf("evalharness: unknown workload %q (have fanin, hostbound)", name)
		}
	}
	for _, arm := range c.Arms {
		if arm != "off" && arm != "on" {
			return fmt.Errorf("evalharness: unknown arm %q (have off, on)", arm)
		}
	}
	if len(c.Schemes) == 0 || len(c.Topologies) == 0 || len(c.Workloads) == 0 || len(c.Arms) == 0 {
		return fmt.Errorf("evalharness: empty matrix axis")
	}
	if c.Warmup <= 0 || c.Measure <= 0 {
		return fmt.Errorf("evalharness: Warmup %v and Measure %v must be positive", c.Warmup, c.Measure)
	}
	if c.SampleEvery <= 0 || c.SampleEvery > c.Measure {
		return fmt.Errorf("evalharness: SampleEvery %v outside (0, Measure %v]", c.SampleEvery, c.Measure)
	}
	if c.DigestEvery <= 0 {
		return fmt.Errorf("evalharness: DigestEvery %v must be positive", c.DigestEvery)
	}
	if !(c.ConvergenceTol > 0 && c.ConvergenceTol < 1) {
		return fmt.Errorf("evalharness: ConvergenceTol %v outside (0,1)", c.ConvergenceTol)
	}
	if c.RPCSize <= 0 {
		return fmt.Errorf("evalharness: RPCSize %d must be positive", c.RPCSize)
	}
	if c.Workers < 0 {
		return fmt.Errorf("evalharness: negative Workers %d", c.Workers)
	}
	if c.Shards < 0 || c.Shards > testbed.MaxShards {
		return fmt.Errorf("evalharness: Shards %d outside [0,%d]", c.Shards, testbed.MaxShards)
	}
	return nil
}

// CellSpec identifies one matrix cell.
type CellSpec struct {
	Scheme   string `json:"scheme"`
	Topology string `json:"topology"`
	Workload string `json:"workload"`
	HostCC   bool   `json:"hostcc"`
	Seed     int64  `json:"seed"`
}

// Validate reports the first invalid field.
func (s CellSpec) Validate() error {
	if _, err := transport.SchemeByName(s.Scheme); err != nil {
		return fmt.Errorf("evalharness: cell: %w", err)
	}
	if _, err := fabric.ParseTopologyKind(s.Topology); err != nil {
		return fmt.Errorf("evalharness: cell: %w", err)
	}
	if _, ok := workloadShapes[s.Workload]; !ok {
		return fmt.Errorf("evalharness: cell: unknown workload %q", s.Workload)
	}
	return nil
}

// CellResult is one cell's measurements.
type CellResult struct {
	CellSpec

	// GoodputGbps is NetApp-T goodput over the measurement window.
	GoodputGbps float64 `json:"goodput_gbps"`
	// GoodputVsOffPct compares this (hostCC-on) cell against its paired
	// off arm: 100 × (on − off) / off. Zero for off cells.
	GoodputVsOffPct float64 `json:"goodput_vs_off_pct,omitempty"`
	// Jain is Jain's fairness index over per-flow delivered bytes.
	Jain float64 `json:"jain"`
	// ConvergenceUs is how long after flow start the aggregate goodput
	// settled into the ±tol band around its final value (-1: never).
	ConvergenceUs float64 `json:"convergence_us"`
	// VictimP999Us is the victim RPC flow's P99.9 completion time (µs).
	VictimP999Us float64 `json:"victim_p999_us"`
	// VictimRPCs counts completed victim RPCs in the window.
	VictimRPCs int `json:"victim_rpcs"`
	// Retx / Timeouts aggregate NetApp-T loss recovery activity.
	Retx     int64 `json:"retx"`
	Timeouts int64 `json:"timeouts"`

	// Digest is the combined component digest at end of run; Verified
	// reports that a second run reproduced the digest timeline exactly.
	Digest   uint64 `json:"digest"`
	Verified bool   `json:"verified"`
}

// cellConfig compiles one cell into a testbed configuration.
func cellConfig(spec CellSpec, cfg Config) (testbed.Config, error) {
	scheme, err := transport.SchemeByName(spec.Scheme)
	if err != nil {
		return testbed.Config{}, err
	}
	kind, err := fabric.ParseTopologyKind(spec.Topology)
	if err != nil {
		return testbed.Config{}, err
	}
	shape, ok := workloadShapes[spec.Workload]
	if !ok {
		return testbed.Config{}, fmt.Errorf("evalharness: unknown workload %q", spec.Workload)
	}

	opts := testbed.DefaultConfig()
	opts.Seed = spec.Seed
	opts.Topology = fabric.Topology{Kind: kind}
	opts.Senders = shape.Senders
	opts.Receivers = 1
	opts.Flows = shape.Flows
	opts.Degree = shape.Degree
	opts.CC = scheme.Factory()
	if scheme.Lossless {
		// DCQCN runs on its native lossless fabric, watchdog armed (a
		// wedged pause is a known failure mode, not a CC property).
		opts.Lossless = true
		opts.PauseWatchdog = 150 * sim.Microsecond
	}
	opts.HostCC = spec.HostCC
	if spec.HostCC {
		wd := core.DefaultWatchdogConfig()
		opts.Watchdog = &wd
	}
	opts.Warmup = cfg.Warmup
	opts.Measure = cfg.Measure
	// Tail drops must recover inside the affordable horizon, as in every
	// other study runner.
	opts.MinRTO = sim.Millisecond
	if cfg.Shards > 1 && kind != fabric.TopoStar {
		opts.Shards = cfg.Shards
	}
	return opts, opts.Validate()
}

// runCell executes one cell once and returns its result plus the digest
// recording for replay verification.
func runCell(spec CellSpec, cfg Config) (CellResult, snapshot.Recording, error) {
	opts, err := cellConfig(spec, cfg)
	if err != nil {
		return CellResult{}, snapshot.Recording{}, err
	}
	tb := testbed.New(opts)
	defer tb.Close()

	tb.StartNetAppT()
	victim := tb.StartNetAppL(cfg.RPCSize, 0, nil)

	// Digest recorder (replay verification) and goodput series
	// (convergence estimation). Both run on the coordinator in sharded
	// mode, reading quiesced global state.
	rec := tb.Record(cfg.DigestEvery)
	var series []float64
	var lastBytes int64
	tb.Every(cfg.SampleEvery, func() {
		b := tb.NetT.DeliveredBytes()
		series = append(series, sim.Rate(float64(b-lastBytes)/cfg.SampleEvery.Seconds()).Gbps())
		lastBytes = b
	})

	tb.RunUntil(cfg.Warmup)
	victim.SetRecording(true)
	tb.MarkWindow()
	tb.RunFor(cfg.Measure)
	m := tb.Collect()

	for _, h := range tb.HCCs {
		h.Stop()
	}
	recording := rec.Stop()

	res := CellResult{
		CellSpec:     spec,
		GoodputGbps:  m.ThroughputGbps,
		Jain:         stats.JainIndex(tb.NetT.FlowShares()),
		VictimP999Us: victim.Latency.Quantile(0.999) / 1000,
		VictimRPCs:   int(victim.Latency.Count()),
		Retx:         m.NetRetx,
		Timeouts:     m.NetTimeouts,
		Digest:       recording.Digest(),
	}
	if idx := ConvergenceIndex(series, cfg.ConvergenceTol); idx >= 0 {
		res.ConvergenceUs = float64(idx) * cfg.SampleEvery.Micros()
	} else {
		res.ConvergenceUs = -1
	}
	return res, recording, nil
}

// runCellVerified runs one cell through testbed.RunVerified (twice unless
// disabled) and fails loudly on any digest divergence — every reported
// number comes from a reproducible simulation.
func runCellVerified(spec CellSpec, cfg Config) (CellResult, error) {
	res, div, err := testbed.RunVerified(!cfg.NoVerify, func() (CellResult, snapshot.Recording, error) {
		return runCell(spec, cfg)
	})
	if err != nil {
		return CellResult{}, err
	}
	if div != nil {
		return CellResult{}, fmt.Errorf("evalharness: cell %s/%s/%s replay diverged: %s",
			spec.Scheme, spec.Topology, spec.Workload, div)
	}
	res.Verified = !cfg.NoVerify
	return res, nil
}

// Run executes the full matrix and assembles the report. Cell order in
// the report is deterministic (topology-major, then workload, scheme,
// arm) regardless of the parallel execution order.
func Run(cfg Config) (Report, error) {
	if err := cfg.Validate(); err != nil {
		return Report{}, err
	}
	cfg = cfg.withDefaults()

	var specs []CellSpec
	group := 0 // one seed per scheme/topology/workload, shared by both arms
	for _, topo := range cfg.Topologies {
		for _, wl := range cfg.Workloads {
			for _, scheme := range cfg.Schemes {
				seed := sweep.SeedFor(cfg.Seed, group)
				group++
				for _, arm := range cfg.Arms {
					specs = append(specs, CellSpec{
						Scheme:   scheme,
						Topology: topo,
						Workload: wl,
						HostCC:   arm == "on",
						Seed:     seed,
					})
				}
			}
		}
	}

	type cellOut struct {
		res CellResult
		err error
	}
	outs := sweep.Map(len(specs), cfg.Workers, func(i int) cellOut {
		res, err := runCellVerified(specs[i], cfg)
		return cellOut{res, err}
	})
	rep := Report{
		Seed:      cfg.Seed,
		WarmupUs:  cfg.Warmup.Micros(),
		MeasureUs: cfg.Measure.Micros(),
	}
	for i, out := range outs {
		if out.err != nil {
			return Report{}, fmt.Errorf("evalharness: cell %d (%s/%s/%s hostcc=%v): %w",
				i, specs[i].Scheme, specs[i].Topology, specs[i].Workload, specs[i].HostCC, out.err)
		}
		rep.Cells = append(rep.Cells, out.res)
	}
	rep.finish()
	return rep, nil
}
