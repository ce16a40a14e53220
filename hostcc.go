// Package hostcc is a simulation-backed reproduction of "Host Congestion
// Control" (Agarwal, Krishnamurthy, Agarwal — ACM SIGCOMM 2023).
//
// hostCC is a congestion control architecture that handles congestion
// inside the host — in the processor, memory and peripheral interconnects
// between the NIC and CPU/memory — in addition to classical network-fabric
// congestion. This package is the public facade over a full discrete-event
// model of that system:
//
//   - the host network datapath of the paper's Figure 1 (NIC buffer, PCIe
//     credit-based flow control, IIO buffer, DDIO cache, memory
//     controller),
//   - a network fabric (links + ECN-marking switch),
//   - a Linux-like transport (DCTCP/Reno/CUBIC/delay-based congestion
//     control, SACK, RTO, TLP, pacing), and
//   - the hostCC module itself: sub-µs host congestion signals read from
//     IIO hardware counters, a sub-RTT host-local response driving Intel
//     MBA throttle levels, and RTT-granularity ECN echo to the network
//     congestion control protocol.
//
// # Quick start
//
//	x, err := hostcc.New(
//	        hostcc.WithHostCongestion(3), // 3x host congestion (24 MApp cores)
//	        hostcc.WithHostCC(),          // enable the hostCC module
//	)
//	if err != nil {
//	        log.Fatal(err)
//	}
//	res := x.Run()
//	fmt.Printf("throughput %.1f Gbps, drops %.4f%%\n",
//	        res.ThroughputGbps, res.DropRatePct)
//
// Add hostcc.WithTelemetry() and write res.Timeline as a Chrome trace to
// visualize per-hop packet lifecycles and the hostCC decision audit in
// Perfetto (see api.go and README "Visualizing a run").
//
// Congestion control protocols live in a registry (Schemes, SchemeByName)
// and are selected by name with WithScheme; the harness in eval.go (Eval)
// compares every registered scheme across topologies, workloads and
// hostCC arms in one replay-verified matrix.
//
// Every figure of the paper's evaluation has a runner (RunFigure2 …
// RunFigure19); cmd/hostcc-bench prints their rows and the benchmarks in
// bench_test.go regenerate them under `go test -bench`.
package hostcc

import (
	"repro/internal/core"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/testbed"
)

// Re-exported experiment configuration and results.
type (
	// Scale selects experiment fidelity (Quick / Default / Paper).
	Scale = testbed.Scale
	// Testbed is a fully constructed experiment (for advanced use:
	// attaching custom apps, sampling mid-run).
	Testbed = testbed.Testbed

	// Row types of the per-figure runners.
	CongestionRow    = testbed.CongestionRow
	MTUFlowRow       = testbed.MTUFlowRow
	LatencyRow       = testbed.LatencyRow
	SignalLatencyCDF = testbed.SignalLatencyCDF
	Trace            = testbed.Trace
	MBARow           = testbed.MBARow
	IncastRow        = testbed.IncastRow
	SensitivityRow   = testbed.SensitivityRow
	AblationRow      = testbed.AblationRow
	IOMMURow         = testbed.IOMMURow

	// Mode selects hostCC's active responses (ablations).
	Mode = core.Mode
)

// hostCC response modes (Figure 18 ablation).
const (
	ModeFull      = core.ModeFull
	ModeEchoOnly  = core.ModeEchoOnly
	ModeLocalOnly = core.ModeLocalOnly
	ModeOff       = core.ModeOff
)

// Experiment scales.
var (
	ScaleQuick   = testbed.ScaleQuick
	ScaleDefault = testbed.ScaleDefault
	ScalePaper   = testbed.ScalePaper
)

// Gbps converts gigabits per second into the rate type used by
// WithTargetBandwidth and the study configs.
func Gbps(g float64) sim.Rate { return sim.Gbps(g) }

// Figure runners: each regenerates the rows/series of one evaluation
// figure. See DESIGN.md for the experiment index.
var (
	RunFigure2  = testbed.RunFigure2
	RunFigure3  = testbed.RunFigure3
	RunFigure4  = testbed.RunFigure4
	RunFigure7  = testbed.RunFigure7
	RunFigure8  = testbed.RunFigure8
	RunFigure9  = testbed.RunFigure9
	RunFigure10 = testbed.RunFigure10
	RunFigure11 = testbed.RunFigure11
	RunFigure12 = testbed.RunFigure12
	RunFigure13 = testbed.RunFigure13
	RunFigure14 = testbed.RunFigure14
	RunFigure15 = testbed.RunFigure15
	RunFigure16 = testbed.RunFigure16
	RunFigure17 = testbed.RunFigure17
	RunFigure18 = testbed.RunFigure18
	RunFigure19 = testbed.RunFigure19
)

// RunIOMMUStudy is the §6 extension experiment: IOMMU-induced host
// congestion degrades throughput while the IIO occupancy signal stays
// low (hostCC's blind spot); the IOTLB miss rate identifies it instead.
var RunIOMMUStudy = testbed.RunIOMMUStudy

// RunFutureMBAStudy is the §6 "future hardware" experiment: hostCC under
// today's coarse 22 µs MBA versus a hypothetical fine-grained 1 µs
// mechanism.
var RunFutureMBAStudy = testbed.RunFutureMBAStudy

// FutureMBARow is one row of the future-hardware study.
type FutureMBARow = testbed.FutureMBARow

// Fault injection and chaos testing (see internal/faults and DESIGN.md
// "Fault model & graceful degradation").
type (
	// FaultPlan is a deterministic fault-injection scenario: a set of
	// injections scheduled on the simulation clock.
	FaultPlan = faults.Plan
	// FaultInjection is one scheduled fault (one-shot, periodic, or
	// probabilistic).
	FaultInjection = faults.Injection
	// FaultKind selects the hardware seam a fault targets.
	FaultKind = faults.Kind
	// ChaosConfig parameterizes one chaos run.
	ChaosConfig = testbed.ChaosConfig
	// ChaosResult reports baseline/fault/recovery goodput and failsafe
	// activity for one chaos run.
	ChaosResult = testbed.ChaosResult
	// WatchdogConfig parameterizes hostCC's failsafe (WithWatchdog).
	WatchdogConfig = core.WatchdogConfig
)

// Fault plan constructors.
var (
	FaultOneShot       = faults.OneShot
	FaultPeriodic      = faults.Periodic
	FaultProbabilistic = faults.Probabilistic
	BuiltinFaultPlan   = faults.Builtin
)

// Fault kinds (the hardware seam each fault targets).
const (
	FaultMSRStale   = faults.MSRStale
	FaultMSRFail    = faults.MSRFail
	FaultMSRLatency = faults.MSRLatency
	FaultMBADrop    = faults.MBADrop
	FaultMBADelay   = faults.MBADelay
	FaultNICDrop    = faults.NICDrop
	FaultLinkFlap   = faults.LinkFlap
	FaultPCIeStall  = faults.PCIeStall
	FaultMAppStall  = faults.MAppStall
	FaultMAppBurst  = faults.MAppBurst
)

// Millisecond/Microsecond re-exports for building fault plans without
// importing internal packages.
const (
	Microsecond = sim.Microsecond
	Millisecond = sim.Millisecond
)

// DefaultWatchdogConfig returns the default failsafe parameters for
// WithWatchdog.
func DefaultWatchdogConfig() WatchdogConfig { return core.DefaultWatchdogConfig() }

// RunChaos executes one fault scenario against a loaded testbed with the
// watchdog armed and invariant checking on, returning recovery metrics.
// The run is deterministic from the config (seed included).
func RunChaos(cfg ChaosConfig) (ChaosResult, error) { return testbed.RunChaos(cfg) }

// ChaosScenarios lists the built-in fault scenario names accepted by
// ChaosConfig.Scenario and `hostcc-bench -chaos`.
func ChaosScenarios() []string { return testbed.ChaosScenarios() }

// Checkpoint/replay and liveness sentinel (see internal/testbed/chaos.go
// and DESIGN.md "Deterministic snapshots & replay"). A checkpoint is a
// JSON record of the run's config and digest timeline; resuming replays
// the config and verifies the timeline.
type (
	// ReplayReport is the outcome of a verified replay from a checkpoint
	// file (ResumeChaos).
	ReplayReport = testbed.ReplayReport
	// StallReport is the liveness sentinel's diagnostic for one detected
	// stall, including the classified wait-for graph.
	StallReport = sim.StallReport
	// SentinelPolicy selects the sentinel's recovery action.
	SentinelPolicy = sim.SentinelPolicy
)

// Sentinel recovery policies.
const (
	// SentinelAbort stops the run and writes a diagnostic checkpoint.
	SentinelAbort = sim.SentinelAbort
	// SentinelEscape force-reclaims sequestered PCIe credits and keeps
	// running (the PFC-watchdog analogue).
	SentinelEscape = sim.SentinelEscape
)

// ResumeChaos resumes a chaos run from a checkpoint file written via
// ChaosConfig.CheckpointPath (or SnapshotOnStall), verifying the replay
// against the recorded digest timeline.
func ResumeChaos(path string) (ReplayReport, error) { return testbed.ResumeChaos(path) }

// Scale-out topology runs (see internal/fabric and DESIGN.md
// "Topology").
type (
	// ScaleOutConfig parameterizes a scale-out run: many senders fanning
	// flows across several hostCC-equipped receivers through a
	// multi-switch fabric.
	ScaleOutConfig = testbed.ScaleOutConfig
	// ScaleOutResult reports aggregate goodput, in-fabric congestion and
	// the determinism proof of one scale-out run.
	ScaleOutResult = testbed.ScaleOutResult
)

// RunScaleOut executes one scale-out run (twice under VerifyReplay,
// comparing the digest timelines frame by frame). The run is a
// deterministic function of its config.
func RunScaleOut(cfg ScaleOutConfig) (ScaleOutResult, error) { return testbed.RunScaleOut(cfg) }

// Lossless-fabric study (see DESIGN.md "Lossless fabrics").
type (
	// LosslessStudyConfig parameterizes the PFC + DCQCN
	// congestion-spreading study.
	LosslessStudyConfig = testbed.LosslessStudyConfig
	// LosslessStudyResult pairs the hostCC-off and hostCC-on arms.
	LosslessStudyResult = testbed.LosslessStudyResult
)

// RunLosslessStudy runs the identical congestion-spreading load on a
// PFC + DCQCN leaf–spine fabric twice — hostCC off, then on — and
// reports per-arm pause-storm metrics and victim-flow tail latency.
func RunLosslessStudy(cfg LosslessStudyConfig) (LosslessStudyResult, error) {
	return testbed.RunLosslessStudy(cfg)
}
