package testbed

import (
	"encoding/json"
	"fmt"
	"os"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// BaseRTT is the nominal base RTT of the testbed topology (4 × 9 µs
// propagation plus serialization and host turnaround), the unit recovery
// times and budgets are stated in (chaos acceptance, crucible probes).
const BaseRTT = 44 * sim.Microsecond

// MinPeriod is the shortest digest-frame period and sentinel stall window
// a chaos or scale-out run accepts, 50× below the 500 µs every run uses.
// A 1 ns digest period asks a chaos run for millions of frames (some
// 12 GB of digests), and a window of a few ns makes the sentinel check
// every nanosecond and call any lull of a few ns a stall.
const MinPeriod = 10 * sim.Microsecond

// checkPeriod accepts 0 (the feature off) or a period of at least
// MinPeriod.
func checkPeriod(field string, p sim.Time) error {
	if p < 0 || (p > 0 && p < MinPeriod) {
		return fmt.Errorf("testbed: %s %v must be 0 or at least %v", field, p, MinPeriod)
	}
	return nil
}

// ChaosConfig parameterizes one chaos run: a fault scenario injected into
// a loaded testbed, with throughput tracked through the fault and out the
// other side.
type ChaosConfig struct {
	// Scenario names a built-in fault scenario (faults.BuiltinNames), or
	// set Plan for a custom one.
	Scenario string
	// Plan overrides Scenario with an explicit fault plan. Its window
	// should open at FaultAt and clear by FaultAt+FaultFor for the
	// recovery accounting to be meaningful.
	Plan *faults.Plan

	// Topology names the fabric shape ("star", "leafspine", "dumbbell";
	// "" selects the scenario's natural topology — leaf–spine for
	// trunk-flap, star otherwise).
	Topology string

	// Scheme selects the transport congestion control by public scheme
	// name. Blank keeps what every chaos run used before the field
	// existed: dcqcn on lossless scenarios/fabrics, dctcp elsewhere.
	// Lossless schemes (dcqcn) imply the PFC fabric.
	Scheme string

	Seed int64
	// Shards partitions the run across parallel engine shards (0/1 =
	// classic serial engine). Requires a multi-switch topology.
	Shards int
	// Degree of host congestion at the receiver (default 2x).
	Degree float64
	// FaultAt / FaultFor position the fault window (defaults: 6 ms into
	// the run, lasting 600 µs ≈ 14 RTTs).
	FaultAt  sim.Time
	FaultFor sim.Time
	// RecoveryRTTBudget bounds how long after the fault clears the run
	// keeps probing for recovery (default 50 RTTs, the acceptance bar).
	RecoveryRTTBudget int

	// DigestEvery records a per-component state digest frame at this
	// virtual period (0 disables recording; otherwise at least
	// MinPeriod). Recording schedules its own events, so digest
	// timelines are only comparable between runs using the same
	// recording configuration.
	DigestEvery sim.Time
	// CheckpointEvery writes a checkpoint to CheckpointPath each time the
	// processed-event count crosses a multiple of this value (0 disables).
	// Checkpoints are captured inside recorder ticks, so enabling them
	// implies digest recording (DigestEvery defaults to 500 µs if unset).
	// Neither field, nor SnapshotOnStall, is recorded in a checkpoint: a
	// resumed run replays a record that may come from anywhere, so it
	// writes no file.
	CheckpointEvery uint64 `json:"-"`
	CheckpointPath  string `json:"-"`

	// SentinelWindow arms the liveness sentinel with this stall window
	// (0 disables; otherwise at least MinPeriod). SentinelPolicy selects
	// abort-with-diagnostic vs credit-timeout escape; SnapshotOnStall,
	// when non-empty, is where the abort path writes the diagnostic
	// checkpoint for offline replay.
	SentinelWindow  sim.Time
	SentinelPolicy  sim.SentinelPolicy
	SnapshotOnStall string `json:"-"`

	// Lossless runs the scenario on a PFC + DCQCN fabric (implied by the
	// lossless scenarios pfc-storm, pause-loss and congestion-spread;
	// settable to put any other scenario on the lossless fabric).
	Lossless bool
}

// scenarioInfo looks up the shared scenario registry (faults.Scenarios is
// the single source of truth for lossless/topology/trunk constraints;
// this harness and the crucible generator both read it). Unknown names
// return the zero info — Builtin will report the real error.
func scenarioInfo(name string) faults.ScenarioInfo {
	for _, info := range faults.Scenarios() {
		if info.Name == name {
			return info
		}
	}
	return faults.ScenarioInfo{Name: name, Topology: "star"}
}

func (c ChaosConfig) withDefaults() ChaosConfig {
	if scenarioInfo(c.Scenario).Lossless {
		c.Lossless = true
	}
	if c.Scheme == "" {
		// What every chaos run used before the field existed: dcqcn on
		// the PFC fabric (the CC lossless fabrics deploy), dctcp
		// elsewhere — keeps pre-scheme golden digests byte-identical.
		if c.Lossless {
			c.Scheme = "dcqcn"
		} else {
			c.Scheme = "dctcp"
		}
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.FaultAt == 0 {
		c.FaultAt = 6 * sim.Millisecond
	}
	if c.FaultFor == 0 {
		c.FaultFor = 600 * sim.Microsecond
	}
	if c.RecoveryRTTBudget == 0 {
		c.RecoveryRTTBudget = 50
		// A spine partition kills every cross-rack in-flight packet at
		// once, so trunk-flap recovery is pure RTO backoff — 10–120 RTTs
		// depending on whether the first retry lands inside the flap
		// window. 50 RTTs would truncate the probe before the retry fires.
		if c.Scenario == "trunk-flap" {
			c.RecoveryRTTBudget = 150
		}
	}
	if c.CheckpointEvery > 0 && c.DigestEvery == 0 {
		c.DigestEvery = 500 * sim.Microsecond
	}
	return c
}

// ChaosResult reports how the system rode through one fault scenario.
type ChaosResult struct {
	Scenario string
	Seed     int64

	// BaselineGbps is fault-free NetApp-T goodput before the fault;
	// FaultGbps the goodput during the fault window; FinalGbps the
	// goodput over the last probe window.
	BaselineGbps float64
	FaultGbps    float64
	FinalGbps    float64

	// Recovered reports whether goodput returned to ≥90% of baseline
	// within the recovery budget after the fault cleared; RecoveryRTTs
	// is when (in RTTs after clearing; -1 if it never did).
	Recovered    bool
	RecoveryRTTs float64

	// Failsafe activity during the run.
	WatchdogTrips  int64
	WatchdogRearms int64
	WatchdogState  string
	TripReason     string
	MBARetries     int64
	FailedSamples  int64

	// Fault and audit bookkeeping.
	FaultEvents     int
	InvariantChecks int64
	Violations      []string

	// Determinism instrumentation. Digest is the combined hash over every
	// component's final state (always computed); ComponentDigests is the
	// per-component breakdown; Frames counts digest frames recorded and
	// Checkpoints the checkpoint files written during the run.
	Digest           uint64
	ComponentDigests []snapshot.Digest
	Frames           int
	Checkpoints      int

	// Stall is the sentinel's first report (nil when no stall was
	// detected); StallSnapshot is the diagnostic checkpoint path written
	// on abort ("" when none was written).
	Stall         *sim.StallReport
	StallSnapshot string
}

// RunChaos executes one chaos scenario: build a loaded testbed with the
// watchdog armed and the invariant checker auditing, measure a fault-free
// baseline, open the fault window, and probe goodput in 5-RTT windows
// after it clears until goodput reaches 90% of baseline or the budget
// runs out. The entire run — fault timing, probabilistic drops, transport
// behavior — is a deterministic function of cfg.
func RunChaos(cfg ChaosConfig) (ChaosResult, error) {
	res, _, err := runChaos(cfg)
	return res, err
}

// chaosTestbed resolves a chaos config into the testbed config its run
// builds: defaults, the fault plan, topology and scheme, checked by
// Validate. It builds and runs nothing.
func chaosTestbed(cfg ChaosConfig) (ChaosConfig, Config, error) {
	cfg = cfg.withDefaults()
	plan := cfg.Plan
	if plan == nil {
		p, err := faults.Builtin(cfg.Scenario, cfg.FaultAt, cfg.FaultFor)
		if err != nil {
			return cfg, Config{}, err
		}
		plan = &p
	}
	if cfg.CheckpointEvery > 0 && cfg.CheckpointPath == "" {
		return cfg, Config{}, fmt.Errorf("testbed: ChaosConfig.CheckpointEvery set without CheckpointPath")
	}
	if err := checkPeriod("ChaosConfig.DigestEvery", cfg.DigestEvery); err != nil {
		return cfg, Config{}, err
	}
	if err := checkPeriod("ChaosConfig.SentinelWindow", cfg.SentinelWindow); err != nil {
		return cfg, Config{}, err
	}
	info := scenarioInfo(plan.Name)
	topoName := cfg.Topology
	if topoName == "" && info.Topology != "star" {
		topoName = info.Topology
	}
	topoKind, err := fabric.ParseTopologyKind(topoName)
	if err != nil {
		return cfg, Config{}, err
	}
	scheme, err := transport.SchemeByName(cfg.Scheme)
	if err != nil {
		return cfg, Config{}, err
	}
	wd := core.DefaultWatchdogConfig()
	opts := DefaultConfig()
	opts.Seed = cfg.Seed
	opts.CC = scheme.Factory()
	if scheme.Lossless {
		cfg.Lossless = true
	}
	opts.HostCC = true
	opts.Degree = cfg.Degree
	opts.Topology = fabric.Topology{Kind: topoKind}
	// Trunk scenarios (trunk-flap) aim the link-flap seam at the
	// inter-switch trunks.
	opts.FaultTrunks = info.Trunks
	// A 1 ms MinRTO keeps RTO-driven recovery (link flaps kill every
	// in-flight packet) well inside the 50-RTT acceptance window; the
	// Linux 200 ms default would dwarf any host-side effect.
	opts.MinRTO = sim.Millisecond
	opts.Shards = cfg.Shards
	opts.Faults = plan
	opts.Watchdog = &wd
	opts.Invariants = true
	opts.Lossless = cfg.Lossless
	switch plan.Name {
	case "pfc-storm":
		// Two leaves, one spine: every cross-rack byte transits the
		// stormed trunk pair, so the forced pauses freeze both directions
		// and the wait graph closes into a pfc cycle. No PFC watchdog —
		// the storm is supposed to wedge the fabric until it clears.
		if topoKind != fabric.TopoLeafSpine {
			return cfg, Config{}, fmt.Errorf("testbed: pfc-storm requires the leafspine topology, not %q", topoKind)
		}
		opts.Topology = fabric.Topology{Kind: fabric.TopoLeafSpine, Leaves: 2, Spines: 1}
		// Trunk pair of leaf 1 (the sender rack): up leaf1->spine0 and
		// down spine0->leaf1, indices 2*(1*spines+0) and +1.
		opts.StormTrunks = []int{2, 3}
	case "pause-loss":
		// Lost XONs wedge ports; the PFC watchdog is the recovery
		// mechanism under test.
		opts.PauseWatchdog = 150 * sim.Microsecond
	}
	return cfg, opts, opts.Validate()
}

// runChaos is RunChaos plus the run's digest recording (what RunVerified
// compares and ResumeChaos checks a checkpoint against).
func runChaos(cfg ChaosConfig) (ChaosResult, snapshot.Recording, error) {
	cfg, opts, err := chaosTestbed(cfg)
	if err != nil {
		return ChaosResult{}, snapshot.Recording{}, err
	}

	tb := New(opts)
	defer tb.Close()
	res := ChaosResult{Scenario: opts.Faults.Name, Seed: cfg.Seed}
	// Collect violations instead of panicking so the result reports them
	// (the chaos tests assert the list is empty — still a loud failure).
	tb.Inv.OnViolation = func(string) {}

	tb.StartNetAppT()

	// Determinism instrumentation: the recorder samples digest frames (and
	// captures checkpoints inside its own ticks, so the capture never
	// perturbs event ordering relative to a same-config run), and the
	// sentinel watches for stalled progress.
	rec := tb.Record(cfg.DigestEvery)
	capture := func() *checkpoint {
		return &checkpoint{Config: cfg, At: tb.Now(), Events: tb.Processed(), Timeline: rec.Timeline}
	}
	if cfg.CheckpointEvery > 0 {
		var lastBucket uint64
		rec.OnFrame = func() {
			if bucket := tb.Processed() / cfg.CheckpointEvery; bucket > lastBucket {
				lastBucket = bucket
				if err := capture().write(cfg.CheckpointPath); err == nil {
					res.Checkpoints++
				}
			}
		}
	}

	var sen *sim.Sentinel
	if cfg.SentinelWindow > 0 {
		sen = tb.StartSentinel(sim.SentinelConfig{
			Window: cfg.SentinelWindow,
			Policy: cfg.SentinelPolicy,
		})
		sen.OnStall(func(*sim.StallReport) {
			if cfg.SnapshotOnStall != "" && res.StallSnapshot == "" {
				if err := capture().write(cfg.SnapshotOnStall); err == nil {
					res.StallSnapshot = cfg.SnapshotOnStall
				}
			}
		})
	}
	// RunUntil clears the engine's stop flag on entry, so a sentinel abort
	// must short-circuit the remaining phases explicitly.
	aborted := func() bool {
		return sen != nil && cfg.SentinelPolicy == sim.SentinelAbort && sen.Report() != nil
	}

	// Fault-free baseline: warmup, then measure up to the fault window.
	tb.RunUntil(opts.Warmup)
	tb.MarkWindow()
	if !aborted() {
		tb.RunUntil(cfg.FaultAt)
		res.BaselineGbps = tb.NetT.Throughput().Gbps()
	}

	// Through the fault window.
	if !aborted() {
		tb.NetT.MarkWindow()
		tb.RunUntil(cfg.FaultAt + cfg.FaultFor)
		res.FaultGbps = tb.NetT.Throughput().Gbps()
	}

	// Probe recovery in 5-RTT windows after the fault clears.
	const probeRTTs = 5
	probe := probeRTTs * BaseRTT
	target := 0.9 * res.BaselineGbps
	res.RecoveryRTTs = -1
	for rtts := 0; rtts < cfg.RecoveryRTTBudget && !aborted(); rtts += probeRTTs {
		tb.NetT.MarkWindow()
		tb.RunFor(probe)
		res.FinalGbps = tb.NetT.Throughput().Gbps()
		if res.FinalGbps >= target {
			res.Recovered = true
			res.RecoveryRTTs = float64(rtts + probeRTTs)
			break
		}
	}

	if w := tb.HCC.Watchdog(); w != nil {
		res.WatchdogTrips = w.Trips.Total()
		res.WatchdogRearms = w.Rearms.Total()
		res.WatchdogState = w.State().String()
		res.TripReason = w.Reason()
		res.MBARetries = w.Retries.Total()
	}
	res.FailedSamples = tb.HCC.FailedSamples.Total()
	res.FaultEvents = len(tb.Injector.Events)
	tb.Inv.Check() // one final audit at quiescence
	res.InvariantChecks = tb.Inv.Checks.Total()
	res.Violations = tb.Inv.Violations
	tb.HCC.Stop()
	tb.Inv.Stop()
	if sen != nil {
		res.Stall = sen.Report()
		sen.Stop()
	}
	recording := rec.Stop()
	res.Frames = recording.Timeline.Len()
	res.ComponentDigests = recording.Final.Digests
	res.Digest = recording.Digest()
	return res, recording, nil
}

// checkpoint is the record a chaos run writes for ResumeChaos, and all
// that a resume reads: the defaulted config the run replays, the capture
// instant, and the digest frames recorded up to it, which the replay is
// checked against.
type checkpoint struct {
	Config   ChaosConfig
	At       sim.Time
	Events   uint64
	Timeline snapshot.Timeline
}

// write stores the record at path as JSON, atomically (a temp file in
// the same directory renamed over path), so a crash mid-write never
// leaves a truncated record.
func (ck *checkpoint) write(path string) error {
	b, err := json.Marshal(ck)
	if err != nil {
		return fmt.Errorf("testbed: encode checkpoint: %w", err)
	}
	tmp := path + ".tmp"
	if err := os.WriteFile(tmp, b, 0o644); err != nil {
		return fmt.Errorf("testbed: write %s: %w", tmp, err)
	}
	if err := os.Rename(tmp, path); err != nil {
		os.Remove(tmp)
		return fmt.Errorf("testbed: rename %s: %w", path, err)
	}
	return nil
}

// decodeCheckpoint parses a checkpoint record and resolves the run it
// records, with every check RunChaos makes before it builds a testbed.
// A record may come from anywhere, so any bytes yield either an error or
// a config that Validate accepts.
func decodeCheckpoint(b []byte) (checkpoint, Config, error) {
	var ck checkpoint
	if err := json.Unmarshal(b, &ck); err != nil {
		return checkpoint{}, Config{}, fmt.Errorf("not a checkpoint record: %w", err)
	}
	_, opts, err := chaosTestbed(ck.Config)
	if err != nil {
		return checkpoint{}, Config{}, err
	}
	return ck, opts, nil
}

// ReplayReport is the outcome of a verified replay from a checkpoint.
type ReplayReport struct {
	// Result is the completed run (replayed past the checkpoint to the
	// end, or to the same sentinel abort the original hit).
	Result ChaosResult
	// Verified reports that every digest frame recorded in the checkpoint
	// matched the replay; FramesChecked is how many frames were compared.
	Verified      bool
	FramesChecked int
	// Divergence names the first mismatching component. It is nil when
	// the frames match, and also when the record holds no frame to
	// compare, in which case Verified is false.
	Divergence *snapshot.Divergence
}

// ResumeChaos resumes the run recorded in a checkpoint file. Resumption
// is replay-based — pending events have no serializable form, but a chaos
// run is a deterministic function of its recorded configuration — so the
// run is re-executed from its initial conditions and the recorded digest
// timeline is verified frame by frame against the replay before the
// completed result is returned. The replay writes no file.
func ResumeChaos(path string) (ReplayReport, error) {
	b, err := os.ReadFile(path)
	if err != nil {
		return ReplayReport{}, fmt.Errorf("testbed: %w", err)
	}
	ck, _, err := decodeCheckpoint(b)
	if err != nil {
		return ReplayReport{}, fmt.Errorf("testbed: checkpoint %s: %w", path, err)
	}
	res, rec, err := runChaos(ck.Config)
	if err != nil {
		return ReplayReport{}, fmt.Errorf("testbed: replay %s: %w", path, err)
	}
	rep := ReplayReport{Result: res}
	rep.FramesChecked = min(len(ck.Timeline.Frames), rec.Timeline.Len())
	if div, found := snapshot.FirstDivergence(&ck.Timeline, &rec.Timeline); found {
		rep.Divergence = &div
	} else {
		rep.Verified = rep.FramesChecked > 0
	}
	return rep, nil
}

// ChaosScenarios returns the built-in scenario names (the vocabulary of
// RunChaos and `hostcc-bench -chaos`).
func ChaosScenarios() []string { return faults.BuiltinNames() }

// String renders the result as a one-line summary.
func (r ChaosResult) String() string {
	rec := "did NOT recover"
	if r.Recovered {
		rec = fmt.Sprintf("recovered in %.0f RTTs", r.RecoveryRTTs)
	}
	return fmt.Sprintf(
		"%s: baseline %.1f Gbps, during fault %.1f Gbps, %s (final %.1f Gbps); watchdog trips=%d rearms=%d retries=%d; violations=%d",
		r.Scenario, r.BaselineGbps, r.FaultGbps, rec, r.FinalGbps,
		r.WatchdogTrips, r.WatchdogRearms, r.MBARetries, len(r.Violations))
}
