// Command hostcc-bench regenerates any figure of the paper's evaluation
// and prints its rows.
//
// Usage:
//
//	hostcc-bench -fig 10 -scale quick
//	hostcc-bench -fig all -scale default
//	hostcc-bench -chaos link-flap
//	hostcc-bench -chaos all
//	hostcc-bench -chaos credit-stall -checkpoint run.ckpt -verify-replay
//	hostcc-bench -resume run.ckpt
//	hostcc-bench -timeline out.json -degree 3
//	hostcc-bench -topology leafspine -senders 128
//	hostcc-bench -topology leafspine -senders 128 -shards 4
//	hostcc-bench -topology leafspine -shards 4 -fluid-hosts 10000 -fluid-flows 1000000
//	hostcc-bench -bench-parallel BENCH_parallel.json -leaves 4 -spines 2 -senders 128
//	hostcc-bench -bench-fluid BENCH_fluid.json
//	hostcc-bench -chaos link-flap -scheme bbr
//	hostcc-bench -lossless
//	hostcc-bench -eval
//	hostcc-bench -eval -eval-schemes dctcp,bbr -eval-topos star -eval-json BENCH_evalharness.json
//
// -eval runs the CC evaluation matrix (internal/evalharness through the
// public hostcc.Eval API): every registered scheme × topology × workload
// × hostCC arm, each cell a full replay-verified testbed experiment
// reporting goodput, Jain fairness, convergence time and victim-flow
// P99.9 latency, with the hostCC-on arm compared against its
// identically-seeded off twin. The markdown report (stdout or -eval-md)
// and -eval-json output are byte-deterministic functions of the matrix;
// -eval-expect-shift turns the paper's qualitative claim — hostCC
// re-ranks the schemes under a host bottleneck — into an exit code.
//
// -topology runs a scale-out experiment through a multi-switch fabric
// (leaf–spine or dumbbell): many senders fanning NetApp-T flows across
// several hostCC-equipped receivers, run twice with frame-by-frame
// digest verification (replay determinism) unless -no-verify. -shards
// partitions the run across parallel engine shards (one goroutine per
// shard, trunk propagation delay as conservative lookahead); sharded
// runs are replay-deterministic but not byte-identical to serial runs.
//
// -bench-parallel times the same leaf-spine workload at 1, 2 and 4
// shards and writes the wall-clock speedup report to the named JSON
// file (BENCH_parallel.json in CI).
//
// -lossless runs the congestion-spreading study on a PFC + DCQCN
// leaf–spine fabric: the same MApp squeeze with hostCC off and on,
// comparing pause-storm frequency (pause asserts, trunk paused time)
// and the victim RPC flow's tail latency between the two arms.
//
// -timeline records one telemetry-enabled throughput run and writes it in
// Chrome Trace Event Format; open the file at https://ui.perfetto.dev to
// see per-hop packet spans and the counter tracks (IIO occupancy, MBA
// level, PCIe credits, hostCC signals).
//
// Figures: 2 3 4 7 8 9 10 11 12 13 14 15 16 17 18 19 (or "all").
// Chaos scenarios: see `hostcc-bench -chaos list`.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"runtime"
	"runtime/pprof"
	"runtime/trace"
	"sort"
	"strings"
	"time"

	hostcc "repro"
	"repro/internal/sim"
	"repro/internal/testbed"
)

func main() {
	if err := run(); err != nil {
		fmt.Fprintln(os.Stderr, "hostcc-bench:", err)
		os.Exit(1)
	}
}

// benchFlags holds every hostcc-bench flag; registerFlags binds them to
// a FlagSet so the usage output is testable (see usage_test.go).
type benchFlags struct {
	fig             *string
	scaleName       *string
	chaos           *string
	seed            *int64
	checkpoint      *string
	checkpointEvery *uint64
	resume          *string
	verifyReplay    *bool
	cpuprofile      *string
	memprofile      *string
	tracePath       *string
	timeline        *string
	degree          *float64
	noHostCC        *bool
	topology        *string
	scheme          *string
	senders         *int
	receivers       *int
	flows           *int
	leaves          *int
	spines          *int
	shards          *int
	noVerify        *bool
	lossless        *bool
	benchParallel   *string
	fluidHosts      *int
	fluidFlows      *int
	fluidPromotable *int
	benchFluid      *string
	eval            *bool
	evalSchemes     *string
	evalTopos       *string
	evalWorkloads   *string
	evalArms        *string
	evalWarmupUs    *int
	evalMeasureUs   *int
	evalWorkers     *int
	evalJSON        *string
	evalMD          *string
	evalExpectShift *bool
}

func registerFlags(fs *flag.FlagSet) benchFlags {
	return benchFlags{
		fig:             fs.String("fig", "10", "figure number to regenerate, or 'all'"),
		scaleName:       fs.String("scale", "quick", "experiment scale: bench, quick, default, paper"),
		chaos:           fs.String("chaos", "", "run a chaos scenario ('list' to enumerate, 'all' for every one) and print recovery metrics"),
		seed:            fs.Int64("seed", 42, "simulation seed (chaos, timeline, topology and lossless runs)"),
		checkpoint:      fs.String("checkpoint", "", "with -chaos: record digest frames and write checkpoints to this file"),
		checkpointEvery: fs.Uint64("checkpoint-every", 100_000, "with -checkpoint: processed events between checkpoint captures"),
		resume:          fs.String("resume", "", "resume a chaos run from a checkpoint file (verified replay)"),
		verifyReplay:    fs.Bool("verify-replay", false, "with -chaos and -checkpoint: replay from the written checkpoint afterwards and verify digests"),
		cpuprofile:      fs.String("cpuprofile", "", "write a CPU profile of the run to this file"),
		memprofile:      fs.String("memprofile", "", "write a heap profile to this file on exit"),
		tracePath:       fs.String("trace", "", "write a runtime execution trace to this file"),
		timeline:        fs.String("timeline", "", "run one telemetry-enabled experiment and write its Chrome trace (Perfetto JSON) to this file"),
		degree:          fs.Float64("degree", 3, "with -timeline or -lossless: degree of host congestion"),
		noHostCC:        fs.Bool("no-hostcc", false, "with -timeline: disable the hostCC module"),
		topology:        fs.String("topology", "", "run a scale-out topology experiment: star, leafspine, dumbbell"),
		scheme:          fs.String("scheme", "", "with -topology or -chaos: transport congestion-control scheme by registry name (empty = dctcp)"),
		senders:         fs.Int("senders", 32, "with -topology: number of sending hosts"),
		receivers:       fs.Int("receivers", 0, "with -topology: number of receiving hosts (0 = one per 16 senders)"),
		flows:           fs.Int("flows", 0, "with -topology: NetApp-T flows (0 = one per sender)"),
		leaves:          fs.Int("leaves", 0, "with -topology leafspine or -bench-parallel: leaf switch count (0 = 2)"),
		spines:          fs.Int("spines", 0, "with -topology leafspine or -bench-parallel: spine switch count (0 = 2)"),
		shards:          fs.Int("shards", 0, "with -topology or -chaos: partition the run across N parallel engine shards (0/1 = serial)"),
		noVerify:        fs.Bool("no-verify", false, "with -topology: skip the second run that verifies replay determinism"),
		lossless:        fs.Bool("lossless", false, "run the lossless-fabric study: PFC + DCQCN congestion spreading, hostCC off vs on"),
		benchParallel:   fs.String("bench-parallel", "", "time the leaf-spine scale-out at 1, 2 and 4 shards and write the speedup report (JSON) to this file"),
		fluidHosts:      fs.Int("fluid-hosts", 0, "with -topology: add the hybrid fluid tier with this many virtual background hosts (0 = off)"),
		fluidFlows:      fs.Int("fluid-flows", 0, "with -topology or -bench-fluid: fluid background flow count (0 = 4 x fluid-hosts; for -bench-fluid, 0 sweeps 10k/100k/1M)"),
		fluidPromotable: fs.Int("fluid-promotable", 0, "with -topology: fluid flows given packet-level twins that promote under congestion"),
		benchFluid:      fs.String("bench-fluid", "", "time the fluid-tier leaf-spine scale-out across flow counts at 1, 2 and 4 shards and write the report (JSON) to this file"),
		eval:            fs.Bool("eval", false, "run the CC evaluation matrix: scheme x topology x workload x hostCC arm, every cell replay-verified"),
		evalSchemes:     fs.String("eval-schemes", "", "with -eval: comma-separated scheme registry names (empty = all)"),
		evalTopos:       fs.String("eval-topos", "", "with -eval: comma-separated topologies (empty = star,leafspine)"),
		evalWorkloads:   fs.String("eval-workloads", "", "with -eval: comma-separated workloads (empty = fanin,hostbound)"),
		evalArms:        fs.String("eval-arms", "", "with -eval: comma-separated hostCC arms from off,on (empty = both)"),
		evalWarmupUs:    fs.Int("eval-warmup-us", 0, "with -eval: per-cell warmup in simulated microseconds (0 = 1000)"),
		evalMeasureUs:   fs.Int("eval-measure-us", 0, "with -eval: per-cell measurement window in simulated microseconds (0 = 4000)"),
		evalWorkers:     fs.Int("eval-workers", 0, "with -eval: concurrent cells (0 = NumCPU)"),
		evalJSON:        fs.String("eval-json", "", "with -eval: write the machine-readable report (BENCH_evalharness.json schema) to this file"),
		evalMD:          fs.String("eval-md", "", "with -eval: write the markdown report to this file (empty = stdout)"),
		evalExpectShift: fs.Bool("eval-expect-shift", false, "with -eval: fail unless hostCC re-ranks the schemes in a host-bottleneck pane (the paper's qualitative claim)"),
	}
}

func run() error {
	fs := flag.NewFlagSet("hostcc-bench", flag.ExitOnError)
	f := registerFlags(fs)
	fs.Parse(os.Args[1:])

	stopProf, err := startProfiling(*f.cpuprofile, *f.memprofile, *f.tracePath)
	if err != nil {
		return err
	}
	defer stopProf()

	if *f.eval {
		return runEval(f)
	}
	if *f.timeline != "" {
		return runTimeline(*f.timeline, *f.degree, !*f.noHostCC, *f.seed)
	}
	if *f.benchParallel != "" {
		return runBenchParallel(*f.benchParallel, *f.leaves, *f.spines, *f.senders, *f.receivers, *f.flows, *f.seed)
	}
	if *f.benchFluid != "" {
		return runBenchFluid(*f.benchFluid, *f.leaves, *f.spines, *f.fluidFlows, *f.seed)
	}
	if *f.topology != "" {
		return runScaleOut(*f.topology, *f.scheme, *f.senders, *f.receivers, *f.flows, *f.leaves, *f.spines, *f.shards,
			*f.fluidHosts, *f.fluidFlows, *f.fluidPromotable, *f.seed, !*f.noVerify)
	}
	if *f.lossless {
		return runLossless(*f.seed, *f.degree)
	}
	if *f.resume != "" {
		return resumeChaos(*f.resume)
	}
	if *f.chaos != "" {
		return runChaos(*f.chaos, *f.scheme, *f.seed, *f.shards, *f.checkpoint, *f.checkpointEvery, *f.verifyReplay)
	}
	if *f.checkpoint != "" || *f.verifyReplay {
		return fmt.Errorf("-checkpoint and -verify-replay require -chaos <scenario>")
	}

	scale, ok := map[string]hostcc.Scale{
		"bench":   testbed.ScaleBench,
		"quick":   hostcc.ScaleQuick,
		"default": hostcc.ScaleDefault,
		"paper":   hostcc.ScalePaper,
	}[*f.scaleName]
	if !ok {
		return fmt.Errorf("unknown scale %q (have bench, quick, default, paper)", *f.scaleName)
	}

	runners := map[string]func(hostcc.Scale){
		"2": func(s hostcc.Scale) { printRows("Figure 2 — baseline under host congestion", hostcc.RunFigure2(s)) },
		"3": func(s hostcc.Scale) {
			printRows("Figure 3 — MTU and flow count (baseline, 3x)", hostcc.RunFigure3(s))
		},
		"4":  func(s hostcc.Scale) { printRows("Figure 4 — baseline RPC tail latency", hostcc.RunFigure4(s)) },
		"7":  func(s hostcc.Scale) { printFig7(s) },
		"8":  func(s hostcc.Scale) { printTraces("Figure 8 — signal time series (1 ms)", hostcc.RunFigure8(s)) },
		"9":  func(s hostcc.Scale) { printRows("Figure 9 — MBA response levels (3x)", hostcc.RunFigure9(s)) },
		"10": func(s hostcc.Scale) { printRows("Figure 10 — DCTCP vs DCTCP+hostCC", hostcc.RunFigure10(s)) },
		"11": func(s hostcc.Scale) {
			printRows("Figure 11 — hostCC across MTU and flows (3x)", hostcc.RunFigure11(s))
		},
		"12": func(s hostcc.Scale) { printRows("Figure 12 — hostCC RPC tail latency", hostcc.RunFigure12(s)) },
		"13": func(s hostcc.Scale) {
			printRows("Figure 13 — incast, network +/- host congestion", hostcc.RunFigure13(s))
		},
		"14": func(s hostcc.Scale) { printRows("Figure 14 — hostCC with DDIO enabled", hostcc.RunFigure14(s)) },
		"15": func(s hostcc.Scale) {
			printRows("Figure 15 — hostCC latency with DDIO enabled", hostcc.RunFigure15(s))
		},
		"16": func(s hostcc.Scale) { printRows("Figure 16 — sensitivity to B_T (3x)", hostcc.RunFigure16(s)) },
		"17": func(s hostcc.Scale) { printRows("Figure 17 — sensitivity to I_T (3x)", hostcc.RunFigure17(s)) },
		"18": func(s hostcc.Scale) {
			printRows("Figure 18 — ablation of hostCC's responses (3x)", hostcc.RunFigure18(s))
		},
		"19": func(s hostcc.Scale) { printFig19(s) },
		"iommu": func(s hostcc.Scale) {
			printRows("Extension — IOMMU-induced host congestion (§6)", hostcc.RunIOMMUStudy(s))
		},
		"futuremba": func(s hostcc.Scale) {
			printRows("Extension — today's vs future MBA hardware (§6)", hostcc.RunFutureMBAStudy(s))
		},
	}

	var figs []string
	if *f.fig == "all" {
		for k := range runners {
			figs = append(figs, k)
		}
		sort.Slice(figs, func(i, j int) bool { return atoi(figs[i]) < atoi(figs[j]) })
	} else {
		figs = strings.Split(*f.fig, ",")
	}
	for _, fig := range figs {
		runFig, ok := runners[strings.TrimSpace(fig)]
		if !ok {
			return fmt.Errorf("unknown figure %q", fig)
		}
		start := time.Now()
		runFig(scale)
		fmt.Printf("  [figure %s regenerated in %.1fs at scale %q]\n\n", fig, time.Since(start).Seconds(), *f.scaleName)
	}
	return nil
}

// startProfiling arms the requested profilers and returns the function
// that stops them and writes the exit-time heap profile.
func startProfiling(cpuprofile, memprofile, tracePath string) (stop func(), err error) {
	var stops []func()
	stop = func() {
		for i := len(stops) - 1; i >= 0; i-- {
			stops[i]()
		}
	}
	if cpuprofile != "" {
		f, err := os.Create(cpuprofile)
		if err != nil {
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		if err := pprof.StartCPUProfile(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("cpuprofile: %w", err)
		}
		stops = append(stops, func() { pprof.StopCPUProfile(); f.Close() })
	}
	if tracePath != "" {
		f, err := os.Create(tracePath)
		if err != nil {
			return stop, fmt.Errorf("trace: %w", err)
		}
		if err := trace.Start(f); err != nil {
			f.Close()
			return stop, fmt.Errorf("trace: %w", err)
		}
		stops = append(stops, func() { trace.Stop(); f.Close() })
	}
	if memprofile != "" {
		stops = append(stops, func() {
			f, err := os.Create(memprofile)
			if err != nil {
				fmt.Fprintln(os.Stderr, "hostcc-bench: memprofile:", err)
				return
			}
			defer f.Close()
			runtime.GC() // report live heap, not transient garbage
			if err := pprof.WriteHeapProfile(f); err != nil {
				fmt.Fprintln(os.Stderr, "hostcc-bench: memprofile:", err)
			}
		})
	}
	return stop, nil
}

func runChaos(name, scheme string, seed int64, shards int, checkpoint string, checkpointEvery uint64, verifyReplay bool) error {
	if name == "list" {
		for _, s := range hostcc.ChaosScenarios() {
			fmt.Println(s)
		}
		return nil
	}
	scenarios := []string{name}
	if name == "all" {
		scenarios = hostcc.ChaosScenarios()
		if checkpoint != "" {
			return fmt.Errorf("-checkpoint records one run; use it with a single scenario, not 'all'")
		}
	}
	fmt.Printf("== Chaos — fault injection and recovery (seed %d)\n", seed)
	for _, sc := range scenarios {
		start := time.Now()
		cfg := hostcc.ChaosConfig{Scenario: sc, Scheme: scheme, Seed: seed, Shards: shards}
		if checkpoint != "" {
			cfg.CheckpointPath = checkpoint
			cfg.CheckpointEvery = checkpointEvery
			cfg.DigestEvery = 500 * sim.Microsecond
		}
		r, err := hostcc.RunChaos(cfg)
		if err != nil {
			return fmt.Errorf("chaos %s: %w", sc, err)
		}
		fmt.Printf("   %s\n", r)
		if r.WatchdogTrips > 0 {
			fmt.Printf("     watchdog: state=%s trips=%d rearms=%d failed-samples=%d\n",
				r.WatchdogState, r.WatchdogTrips, r.WatchdogRearms, r.FailedSamples)
		}
		if r.Checkpoints > 0 {
			fmt.Printf("     checkpoint: %s (%d captures, %d digest frames, final digest %#x)\n",
				checkpoint, r.Checkpoints, r.Frames, r.Digest)
		}
		fmt.Printf("     [%.1fs, %d invariant checks, %d fault events]\n",
			time.Since(start).Seconds(), r.InvariantChecks, r.FaultEvents)
		if verifyReplay {
			if r.Checkpoints == 0 {
				return fmt.Errorf("chaos %s: -verify-replay set but no checkpoint was written (is -checkpoint set and -checkpoint-every low enough?)", sc)
			}
			if err := resumeChaos(checkpoint); err != nil {
				return fmt.Errorf("chaos %s: %w", sc, err)
			}
		}
	}
	return nil
}

// splitCSV parses a comma-separated flag value; empty means "use the
// harness default" and maps to nil.
func splitCSV(s string) []string {
	if s == "" {
		return nil
	}
	parts := strings.Split(s, ",")
	for i := range parts {
		parts[i] = strings.TrimSpace(parts[i])
	}
	return parts
}

// runEval executes the CC evaluation matrix through the public Eval API
// and renders the deterministic markdown + JSON reports.
func runEval(f benchFlags) error {
	m := hostcc.EvalMatrix{
		Schemes:    splitCSV(*f.evalSchemes),
		Topologies: splitCSV(*f.evalTopos),
		Workloads:  splitCSV(*f.evalWorkloads),
		Arms:       splitCSV(*f.evalArms),
	}
	opts := []hostcc.EvalOption{
		hostcc.EvalSeed(*f.seed),
		hostcc.EvalWorkers(*f.evalWorkers),
		hostcc.EvalShards(*f.shards),
	}
	if *f.evalWarmupUs > 0 || *f.evalMeasureUs > 0 {
		warmup := time.Duration(*f.evalWarmupUs) * time.Microsecond
		if warmup == 0 {
			warmup = time.Millisecond
		}
		measure := time.Duration(*f.evalMeasureUs) * time.Microsecond
		if measure == 0 {
			measure = 4 * time.Millisecond
		}
		opts = append(opts, hostcc.EvalWindows(warmup, measure))
	}
	if *f.noVerify {
		opts = append(opts, hostcc.EvalNoVerify())
	}

	start := time.Now()
	rep, err := hostcc.Eval(m, opts...)
	if err != nil {
		return fmt.Errorf("eval: %w", err)
	}
	verified := 0
	for _, c := range rep.Cells {
		if c.Verified {
			verified++
		}
	}
	shifted := 0
	hostboundShift := false
	for _, r := range rep.Rankings {
		if r.OrderingChanged {
			shifted++
			if r.Workload == "hostbound" {
				hostboundShift = true
			}
		}
	}
	fmt.Fprintf(os.Stderr, "eval: %d cells (%d replay-verified), %d/%d panes re-ranked by hostCC [%.1fs]\n",
		len(rep.Cells), verified, shifted, len(rep.Rankings), time.Since(start).Seconds())

	md := rep.Markdown()
	if *f.evalMD != "" {
		if err := os.WriteFile(*f.evalMD, []byte(md), 0o644); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		fmt.Fprintf(os.Stderr, "eval: wrote %s\n", *f.evalMD)
	} else {
		fmt.Print(md)
	}
	if *f.evalJSON != "" {
		out, err := rep.JSON()
		if err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		if err := os.WriteFile(*f.evalJSON, append(out, '\n'), 0o644); err != nil {
			return fmt.Errorf("eval: %w", err)
		}
		fmt.Fprintf(os.Stderr, "eval: wrote %s\n", *f.evalJSON)
	}
	if *f.evalExpectShift && !hostboundShift {
		return fmt.Errorf("eval: no host-bottleneck pane changed its scheme ordering between hostCC arms")
	}
	return nil
}

// runTimeline runs one telemetry-enabled throughput experiment and writes
// its Chrome trace (loadable at https://ui.perfetto.dev) to path.
func runTimeline(path string, degree float64, enableHostCC bool, seed int64) error {
	opts := []hostcc.Option{
		hostcc.WithSeed(seed),
		hostcc.WithHostCongestion(degree),
		hostcc.WithTelemetry(),
		hostcc.WithMinRTO(5 * time.Millisecond),
	}
	if enableHostCC {
		opts = append(opts, hostcc.WithHostCC())
	}
	x, err := hostcc.New(opts...)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	start := time.Now()
	res := x.Run()
	f, err := os.Create(path)
	if err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	defer f.Close()
	if err := res.Timeline.WriteChromeTrace(f); err != nil {
		return fmt.Errorf("timeline: %w", err)
	}
	fmt.Printf("== Timeline — %gx host congestion, hostCC=%v (seed %d)\n", degree, enableHostCC, seed)
	fmt.Printf("   throughput %.1f Gbps, drops %.4f%%\n", res.ThroughputGbps, res.DropRatePct)
	fmt.Printf("   %d spans, %d counter tracks, %d dropped -> %s [%.1fs]\n",
		res.Timeline.Spans(), res.Timeline.Tracks(), res.Timeline.Dropped(), path, time.Since(start).Seconds())
	fmt.Println("   open at https://ui.perfetto.dev (or chrome://tracing)")
	return nil
}

// runScaleOut runs one scale-out topology experiment (run twice with
// frame-by-frame digest verification unless -no-verify).
func runScaleOut(topology, scheme string, senders, receivers, flows, leaves, spines, shards,
	fluidHosts, fluidFlows, fluidPromotable int, seed int64, verify bool) error {
	start := time.Now()
	r, err := hostcc.RunScaleOut(hostcc.ScaleOutConfig{
		Topology:        topology,
		Scheme:          scheme,
		Senders:         senders,
		Receivers:       receivers,
		Flows:           flows,
		Leaves:          leaves,
		Spines:          spines,
		Shards:          shards,
		FluidHosts:      fluidHosts,
		FluidFlows:      fluidFlows,
		FluidPromotable: fluidPromotable,
		Seed:            seed,
		VerifyReplay:    verify,
	})
	if err != nil {
		return fmt.Errorf("topology %s: %w", topology, err)
	}
	fmt.Printf("== Scale-out — %s fabric (seed %d)\n", r.Topology, r.Seed)
	fmt.Printf("   %s\n", r)
	fmt.Printf("   event heap: peak %d pending of %d reserved\n", r.MaxPending, r.HeapCap)
	fmt.Printf("   [%.1fs]\n", time.Since(start).Seconds())
	return nil
}

// parallelRun is one timed execution in the -bench-parallel report.
type parallelRun struct {
	Shards         int     `json:"shards"`
	Seconds        float64 `json:"seconds"`
	Events         uint64  `json:"events"`
	EventsPerSec   float64 `json:"events_per_sec"`
	ThroughputGbps float64 `json:"throughput_gbps"`
	Digest         string  `json:"digest"`
}

// parallelReport is the BENCH_parallel.json schema: wall-clock timings of
// the same scale-out workload at 1, 2 and 4 shards, plus the speedup of
// each sharded run over the serial engine. Cores records how much
// hardware parallelism the timings had available — on a single-core
// machine the sharded runs pay the barrier protocol with no speedup to
// show for it, so consumers must gate speedup assertions on cores.
type parallelReport struct {
	Cores    int           `json:"cores"`
	Topology string        `json:"topology"`
	Leaves   int           `json:"leaves"`
	Spines   int           `json:"spines"`
	Senders  int           `json:"senders"`
	Seed     int64         `json:"seed"`
	Runs     []parallelRun `json:"runs"`
	// Speedup maps shard count (as a string key) to serial-seconds /
	// sharded-seconds.
	Speedup map[string]float64 `json:"speedup"`
}

// runBenchParallel times the 128-sender-class leaf-spine scale-out at 1,
// 2 and 4 shards and writes the speedup report. Runs are single-pass (no
// replay verification) so the timings measure the engine, not the
// verifier; determinism has its own test and CI job.
func runBenchParallel(path string, leaves, spines, senders, receivers, flows int, seed int64) error {
	report := parallelReport{
		Cores:    runtime.NumCPU(),
		Topology: "leafspine",
		Leaves:   leaves,
		Spines:   spines,
		Senders:  senders,
		Seed:     seed,
		Speedup:  map[string]float64{},
	}
	fmt.Printf("== Parallel engine bench — leafspine %dx%d, %d senders, %d cores (seed %d)\n",
		leaves, spines, senders, report.Cores, seed)
	var serial float64
	for _, shards := range []int{1, 2, 4} {
		start := time.Now()
		r, err := hostcc.RunScaleOut(hostcc.ScaleOutConfig{
			Topology:  "leafspine",
			Leaves:    leaves,
			Spines:    spines,
			Senders:   senders,
			Receivers: receivers,
			Flows:     flows,
			Shards:    shards,
			Seed:      seed,
		})
		if err != nil {
			return fmt.Errorf("bench-parallel (%d shards): %w", shards, err)
		}
		wall := time.Since(start).Seconds()
		run := parallelRun{
			Shards:         shards,
			Seconds:        wall,
			Events:         r.Events,
			EventsPerSec:   float64(r.Events) / wall,
			ThroughputGbps: r.ThroughputGbps,
			Digest:         fmt.Sprintf("%#016x", r.Digest),
		}
		report.Runs = append(report.Runs, run)
		if shards == 1 {
			serial = wall
		} else if wall > 0 {
			report.Speedup[fmt.Sprint(shards)] = serial / wall
		}
		fmt.Printf("   %d shard(s): %.2fs wall, %d events (%.2fM ev/s), %.1f Gbps\n",
			shards, wall, r.Events, run.EventsPerSec/1e6, r.ThroughputGbps)
	}
	for _, k := range []string{"2", "4"} {
		if s, ok := report.Speedup[k]; ok {
			fmt.Printf("   speedup at %s shards: %.2fx (over %d cores)\n", k, s, report.Cores)
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("bench-parallel: %w", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench-parallel: %w", err)
	}
	fmt.Printf("   wrote %s\n", path)
	return nil
}

// fluidRun is one timed execution in the BENCH_fluid.json report.
type fluidRun struct {
	Shards           int     `json:"shards"`
	FluidFlows       int     `json:"fluid_flows"`
	Seconds          float64 `json:"seconds"`
	Events           uint64  `json:"events"`
	FluidGoodputGbps float64 `json:"fluid_goodput_gbps"`
	ThroughputGbps   float64 `json:"throughput_gbps"`
	Digest           string  `json:"digest"`
}

// fluidReport is the BENCH_fluid.json schema: wall clock of the hybrid
// fluid/packet leaf-spine scale-out across background flow counts at 1,
// 2 and 4 shards. The headline is the scaling curve — wall clock grows
// with flow count far below linearly in events because the background
// advances per coarse tick, not per packet.
type fluidReport struct {
	Cores  int        `json:"cores"`
	Seed   int64      `json:"seed"`
	Leaves int        `json:"leaves"`
	Spines int        `json:"spines"`
	Runs   []fluidRun `json:"runs"`
}

// runBenchFluid times the fluid-tier scale-out. flowsOverride > 0 pins a
// single population size; 0 sweeps 10k / 100k / 1M background flows.
func runBenchFluid(path string, leaves, spines, flowsOverride int, seed int64) error {
	flowCounts := []int{10_000, 100_000, 1_000_000}
	if flowsOverride > 0 {
		flowCounts = []int{flowsOverride}
	}
	report := fluidReport{Cores: runtime.NumCPU(), Seed: seed, Leaves: leaves, Spines: spines}
	fmt.Printf("== Fluid tier bench — leafspine, %d cores (seed %d)\n", report.Cores, seed)
	for _, flows := range flowCounts {
		for _, shards := range []int{1, 2, 4} {
			start := time.Now()
			r, err := hostcc.RunScaleOut(hostcc.ScaleOutConfig{
				Topology: "leafspine",
				Leaves:   leaves,
				Spines:   spines,
				Senders:  8, Receivers: 2, Flows: 8,
				Shards:     shards,
				FluidHosts: max(flows/100, 2),
				FluidFlows: flows,
				Seed:       seed,
			})
			if err != nil {
				return fmt.Errorf("bench-fluid (%d flows, %d shards): %w", flows, shards, err)
			}
			wall := time.Since(start).Seconds()
			report.Runs = append(report.Runs, fluidRun{
				Shards:           shards,
				FluidFlows:       r.FluidFlows,
				Seconds:          wall,
				Events:           r.Events,
				FluidGoodputGbps: r.FluidGoodputGbps,
				ThroughputGbps:   r.ThroughputGbps,
				Digest:           fmt.Sprintf("%#016x", r.Digest),
			})
			fmt.Printf("   %7d flows, %d shard(s): %6.2fs wall, fluid %.0f Gbps, packet %.1f Gbps\n",
				r.FluidFlows, shards, wall, r.FluidGoodputGbps, r.ThroughputGbps)
		}
	}
	out, err := json.MarshalIndent(report, "", "  ")
	if err != nil {
		return fmt.Errorf("bench-fluid: %w", err)
	}
	if err := os.WriteFile(path, append(out, '\n'), 0o644); err != nil {
		return fmt.Errorf("bench-fluid: %w", err)
	}
	fmt.Printf("   wrote %s\n", path)
	return nil
}

// runLossless runs the PFC + DCQCN congestion-spreading study: the same
// load with hostCC off and on, one table row per arm.
func runLossless(seed int64, degree float64) error {
	start := time.Now()
	r, err := hostcc.RunLosslessStudy(hostcc.LosslessStudyConfig{Seed: seed, Degree: degree})
	if err != nil {
		return fmt.Errorf("lossless: %w", err)
	}
	fmt.Printf("== Lossless fabric — PFC + DCQCN congestion spreading, %gx MApp squeeze (seed %d)\n", degree, seed)
	fmt.Printf("   %s\n   %s\n", r.Off, r.On)
	fmt.Printf("   [%.1fs]\n", time.Since(start).Seconds())
	return nil
}

func resumeChaos(path string) error {
	start := time.Now()
	rep, err := hostcc.ResumeChaos(path)
	if err != nil {
		return fmt.Errorf("resume %s: %w", path, err)
	}
	if rep.Divergence != nil {
		return fmt.Errorf("resume %s: replay diverged from recorded digests: %s", path, rep.Divergence)
	}
	if !rep.Verified {
		return fmt.Errorf("resume %s: the record holds no digest frames to verify", path)
	}
	fmt.Printf("== Replay of %s verified: %d digest frames matched [%.1fs]\n", path, rep.FramesChecked, time.Since(start).Seconds())
	fmt.Printf("   %s\n", rep.Result)
	if rep.Result.Stall != nil {
		fmt.Printf("   %s\n", rep.Result.Stall)
	}
	return nil
}

func atoi(s string) int {
	n := 0
	for _, c := range s {
		n = n*10 + int(c-'0')
	}
	return n
}

func printRows[T fmt.Stringer](title string, rows []T) {
	fmt.Println("==", title)
	for _, r := range rows {
		fmt.Println("  ", r.String())
	}
}

func printFig7(s hostcc.Scale) {
	fmt.Println("== Figure 7 — MSR read latency CDFs (independent of congestion)")
	for _, c := range hostcc.RunFigure7(s) {
		fmt.Printf("   congested=%-5v mean=%.2fus max=%.2fus points=%d\n",
			c.Congested, c.MeanUs, c.MaxUs, len(c.ValuesUs))
	}
}

func printTraces(title string, traces []hostcc.Trace) {
	fmt.Println("==", title)
	for _, tr := range traces {
		lo, hi := tr.IS.MinMax()
		fmt.Printf("   %-20s IS mean=%5.1f min=%5.1f max=%5.1f | BS mean=%6.1fG\n",
			tr.Label, tr.IS.Mean(), lo, hi, tr.BS.Mean())
	}
}

func printFig19(s hostcc.Scale) {
	tr := hostcc.RunFigure19(s)
	fmt.Println("== Figure 19 — hostCC steady state (250 us)")
	lo, hi := tr.Level.MinMax()
	fmt.Printf("   BS mean=%.1fG (target 80G + PCIe overhead)\n", tr.BS.Mean())
	fmt.Printf("   IS mean=%.1f, above I_T=70 %.0f%% of the time\n", tr.IS.Mean(), tr.IS.FractionAbove(70)*100)
	fmt.Printf("   response level range [%.0f, %.0f]\n", lo, hi)
}
