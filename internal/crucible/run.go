package crucible

import (
	"fmt"
	"sort"
	"strings"

	"repro/internal/apps"
	"repro/internal/faults"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/testbed"
)

// digestEvery is the digest-frame recording period for the determinism
// oracle. Both executions of a scenario record with the same period, so
// the timelines are comparable frame for frame.
const digestEvery = 250 * sim.Microsecond

// Oracle names, in the order they are evaluated. A Verdict's signature
// is the sorted subset that failed.
const (
	OraclePanic       = "panic"
	OracleInvariant   = "invariant"
	OracleLiveness    = "liveness"
	OracleDeterminism = "determinism"
	OracleGoodput     = "goodput-floor"
	OracleVictim      = "victim-p999"
)

// Failure is one failed oracle with its diagnostic.
type Failure struct {
	Oracle string `json:"oracle"`
	Detail string `json:"detail"`
}

// Verdict is the oracle battery's judgment of one scenario.
type Verdict struct {
	Failures []Failure `json:"failures,omitempty"`

	// Observables from the first execution (the second exists only to
	// feed the determinism oracle).
	BaselineGbps    float64 `json:"baseline_gbps"`
	FinalGbps       float64 `json:"final_gbps"`
	Recovered       bool    `json:"recovered"`
	VictimP999Ns    float64 `json:"victim_p999_ns,omitempty"`
	InvariantChecks int64   `json:"invariant_checks"`
	StallClass      string  `json:"stall_class,omitempty"`
	Digest          uint64  `json:"digest"`
	Frames          int     `json:"frames"`
}

// Pass reports whether every oracle held.
func (v Verdict) Pass() bool { return len(v.Failures) == 0 }

// FailedOracles lists the failed oracle names, sorted and deduplicated.
func (v Verdict) FailedOracles() []string {
	seen := map[string]bool{}
	var names []string
	for _, f := range v.Failures {
		if !seen[f.Oracle] {
			seen[f.Oracle] = true
			names = append(names, f.Oracle)
		}
	}
	sort.Strings(names)
	return names
}

// Signature is the canonical failure fingerprint — the sorted failed
// oracle names joined with "+", or "pass". The shrinker only accepts
// transforms that preserve it, so a minimized repro fails for the same
// reason as the original draw, not some easier-to-reach one.
func (v Verdict) Signature() string {
	names := v.FailedOracles()
	if len(names) == 0 {
		return "pass"
	}
	return strings.Join(names, "+")
}

// String renders the verdict as a one-line summary.
func (v Verdict) String() string {
	if v.Pass() {
		return fmt.Sprintf("pass (baseline %.1f Gbps, digest %016x)", v.BaselineGbps, v.Digest)
	}
	parts := make([]string, 0, len(v.Failures))
	for _, f := range v.Failures {
		parts = append(parts, f.Oracle+": "+f.Detail)
	}
	return "FAIL " + v.Signature() + " — " + strings.Join(parts, "; ")
}

// outcome captures everything one execution of a scenario produced that
// an oracle might judge.
type outcome struct {
	panicMsg   string
	violations []string
	stallClass string
	stallDiag  string
	baseline   float64
	final      float64
	recovered  bool
	p999       float64
	invChecks  int64

	rec snapshot.Recording // digest frames and final state
}

// faultSpan returns the first window opening and last window clearing of
// the plan on the scenario clock.
func faultSpan(plan faults.Plan) (start, end sim.Time) {
	for i, inj := range plan.Injections {
		if i == 0 || inj.At < start {
			start = inj.At
		}
	}
	return start, plan.End()
}

// sentinelWindow sizes the liveness watch so that no injected fault
// window can outlast it: a stall that trips the sentinel is then a
// genuine failure to drain after the fault cleared, not the fault
// itself. Scenarios whose windows exceed the result (handcrafted repros)
// declare their expected stall via permittedStalls.
func sentinelWindow(plan faults.Plan) sim.Time {
	var maxDur sim.Time
	for _, inj := range plan.Injections {
		if inj.Duration > maxDur {
			maxDur = inj.Duration
		}
	}
	w := 2*maxDur + 200*sim.Microsecond
	if w < 500*sim.Microsecond {
		w = 500 * sim.Microsecond
	}
	return w
}

// permittedStalls lists the stall classes the scenario legitimately
// produces: a fault window longer than the sentinel watch is *supposed*
// to read as wedged while it holds.
func (s Scenario) permittedStalls(window sim.Time) map[string]bool {
	m := map[string]bool{}
	for _, inj := range s.Faults {
		if sim.Time(inj.DurationNs) < window {
			continue
		}
		switch inj.Kind {
		case "pause-storm":
			m["pfc-cycle"] = true
			m["deadlock"] = true
		case "pcie-stall":
			m["deadlock"] = true
			m["starvation"] = true
		case "link-flap", "pause-loss":
			m["starvation"] = true
			m["deadlock"] = true
		}
	}
	return m
}

// runOnce executes the scenario once and collects every observable the
// oracles judge. Panics (the canary's credit-pool overflow, or any real
// modeling bug) are recovered into the outcome so the battery can report
// them as an oracle failure instead of killing the search.
func runOnce(sc Scenario, opts testbed.Config, plan faults.Plan) (o *outcome) {
	o = &outcome{}
	var rec *testbed.Recorder
	defer func() {
		if r := recover(); r != nil {
			o.panicMsg = fmt.Sprint(r)
			if rec != nil {
				o.rec.Timeline = rec.Timeline // the frames recorded before the panic
			}
		}
	}()

	tb := testbed.New(opts)
	// Collect violations instead of panicking: a broken conservation law
	// is a finding, not a crash.
	tb.Inv.OnViolation = func(string) {}
	if sc.Canary == CanaryPCIeExtraCredit {
		tb.Receiver.Link.ArmCanaryExtraCredit()
	}
	tb.StartNetAppT()
	var victim *apps.NetAppL
	if sc.Oracles.VictimP999Ns > 0 {
		victim = tb.StartNetAppL(4096, 0, nil)
	}

	rec = tb.Record(digestEvery)

	window := sentinelWindow(plan)
	sen := tb.StartSentinel(sim.SentinelConfig{Window: window, Policy: sim.SentinelAbort})
	// RunUntil clears the engine's stop flag on entry, so a sentinel
	// abort must short-circuit the remaining phases explicitly.
	aborted := func() bool { return sen.Report() != nil }
	faultStart, faultEnd := faultSpan(plan)

	// Phases: warmup, fault-free baseline, through the fault windows,
	// drain to the horizon, then recovery probes for the goodput oracle.
	tb.E.RunUntil(opts.Warmup)
	tb.MarkWindow()
	if !aborted() && faultStart > opts.Warmup {
		tb.E.RunUntil(faultStart)
		o.baseline = tb.NetT.Throughput().Gbps()
	}
	if !aborted() {
		tb.NetT.MarkWindow()
		tb.E.RunUntil(faultEnd)
	}
	horizon := opts.Warmup + opts.Measure
	if !aborted() && tb.E.Now() < horizon {
		tb.E.RunUntil(horizon)
	}
	if sc.Oracles.GoodputFloorPct > 0 {
		budget := sc.Oracles.RecoveryRTTBudget
		if budget <= 0 {
			budget = 150
		}
		target := sc.Oracles.GoodputFloorPct / 100 * o.baseline
		const probeRTTs = 5
		for rtts := 0; rtts < budget && !aborted(); rtts += probeRTTs {
			tb.NetT.MarkWindow()
			tb.E.RunFor(probeRTTs * testbed.BaseRTT)
			o.final = tb.NetT.Throughput().Gbps()
			if o.final >= target {
				o.recovered = true
				break
			}
		}
	} else {
		o.final = tb.NetT.Throughput().Gbps()
		o.recovered = true
	}

	if victim != nil {
		o.p999 = victim.Latency.Quantile(0.999)
	}
	tb.Inv.Check() // one final audit at quiescence
	o.invChecks = tb.Inv.Checks.Total()
	o.violations = tb.Inv.Violations
	if rep := sen.Report(); rep != nil {
		o.stallClass = rep.Class.String()
		o.stallDiag = strings.SplitN(rep.String(), "\n", 2)[0]
	}
	tb.HCC.Stop()
	tb.Inv.Stop()
	sen.Stop()
	o.rec = rec.Stop()
	return o
}

// Run executes the scenario's full oracle battery: two independent
// executions (the second feeds the determinism oracle) judged against
// every armed oracle. The returned error covers only invalid scenarios;
// failures of a valid scenario are reported in the Verdict.
func Run(sc Scenario) (Verdict, error) {
	opts, err := sc.testbedConfig()
	if err != nil {
		return Verdict{}, err
	}
	plan, _ := sc.Plan() // testbedConfig already validated it

	o1 := runOnce(sc, opts, plan)
	o2 := runOnce(sc, opts, plan)

	v := Verdict{
		BaselineGbps:    o1.baseline,
		FinalGbps:       o1.final,
		Recovered:       o1.recovered,
		VictimP999Ns:    o1.p999,
		InvariantChecks: o1.invChecks,
		StallClass:      o1.stallClass,
		Digest:          o1.rec.Digest(),
		Frames:          o1.rec.Timeline.Len(),
	}
	fail := func(oracle, detail string) {
		v.Failures = append(v.Failures, Failure{Oracle: oracle, Detail: detail})
	}

	if o1.panicMsg != "" {
		fail(OraclePanic, o1.panicMsg)
	}
	if len(o1.violations) > 0 {
		fail(OracleInvariant, fmt.Sprintf("%d violation(s), first: %s", len(o1.violations), o1.violations[0]))
	}
	if o1.stallClass != "" && !sc.permittedStalls(sentinelWindow(plan))[o1.stallClass] {
		fail(OracleLiveness, o1.stallClass+" — "+o1.stallDiag)
	}

	// Determinism: two executions of the same scenario must agree on
	// everything. A panic must reproduce verbatim; panic-free runs must
	// match digest for digest (snapshot.Compare, the verified-run check).
	if o1.panicMsg != o2.panicMsg {
		fail(OracleDeterminism, fmt.Sprintf("panic diverges between runs: %q vs %q", o1.panicMsg, o2.panicMsg))
	} else if o1.panicMsg == "" {
		if div := snapshot.Compare(&o1.rec, &o2.rec); div != nil {
			fail(OracleDeterminism, "digest recordings diverge: "+div.String())
		}
	}

	if o1.panicMsg == "" && sc.Oracles.GoodputFloorPct > 0 && !o1.recovered {
		fail(OracleGoodput, fmt.Sprintf("goodput %.2f Gbps never reached %.0f%% of baseline %.2f Gbps within the budget",
			o1.final, sc.Oracles.GoodputFloorPct, o1.baseline))
	}
	if o1.panicMsg == "" && sc.Oracles.VictimP999Ns > 0 && o1.p999 > float64(sc.Oracles.VictimP999Ns) {
		fail(OracleVictim, fmt.Sprintf("victim P99.9 %.0f ns exceeds bound %d ns", o1.p999, sc.Oracles.VictimP999Ns))
	}
	return v, nil
}
