package hostcc

import (
	"bytes"
	"encoding/json"
	"fmt"
	"math"
	"strings"
	"testing"
	"time"

	"repro/internal/testbed"
)

// quick returns options for a fast smoke-scale run.
func quick(extra ...Option) []Option {
	opts := []Option{
		WithWarmup(500 * time.Microsecond),
		WithMeasure(2 * time.Millisecond),
		WithMinRTO(5 * time.Millisecond),
	}
	return append(opts, extra...)
}

func TestNewValidatesOptions(t *testing.T) {
	if _, err := New(WithFlows(-1)); err == nil {
		t.Fatal("negative flows accepted")
	}
	if _, err := New(WithWireLoss(1.5)); err == nil {
		t.Fatal("loss probability above 1 accepted")
	}
	if _, err := New(quick()...); err != nil {
		t.Fatalf("default options rejected: %v", err)
	}
}

// TestBadInputsReturnErrors drives invalid inputs through every public
// entry point that accepts a config: each must come back as an error,
// never a panic.
func TestBadInputsReturnErrors(t *testing.T) {
	newErr := func(opts ...Option) func() error {
		return func() error { _, err := New(opts...); return err }
	}
	chaosErr := func(cfg ChaosConfig) func() error {
		return func() error { _, err := RunChaos(cfg); return err }
	}
	losslessErr := func(cfg LosslessStudyConfig) func() error {
		return func() error { _, err := RunLosslessStudy(cfg); return err }
	}
	scaleOutErr := func(cfg ScaleOutConfig) func() error {
		return func() error { _, err := RunScaleOut(cfg); return err }
	}
	for _, tc := range []struct {
		name string
		run  func() error
	}{
		{"MTU within headers", newErr(WithMTU(10))},
		{"fixed level above the MBA table", newErr(WithFixedLevel(9))},
		{"fault plan with negative duration", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultOneShot(FaultLinkFlap, Millisecond, -Microsecond)}}))},
		{"fault plan with period within duration", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultPeriodic(FaultPCIeStall, Millisecond, Millisecond, Microsecond, 2)}}))},
		{"fault plan whose last periodic window overflows the clock", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultPeriodic(FaultPCIeStall, Millisecond, Microsecond, 1<<62, 3)}}))},
		{"fault plan whose one-shot window overflows the clock", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultOneShot(FaultLinkFlap, 1<<62, 1<<62)}}))},
		{"MinRTO whose deadline overflows the clock", newErr(WithMinRTO(math.MaxInt64))},
		{"negative MinRTO", newErr(WithMinRTO(-time.Millisecond))},
		{"NaN wire loss", newErr(WithWireLoss(math.NaN()))},
		{"fault plan with a NaN probability", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMSRFail, Millisecond, Millisecond, math.NaN())}}))},
		{"fault plan with a NaN MApp burst", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultOneShot(FaultMAppBurst, Millisecond, Millisecond).WithMagnitude(math.NaN())}}))},
		{"fault plan with a NaN MSR latency", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMSRLatency, Millisecond, Millisecond, 1).WithMagnitude(math.NaN())}}))},
		{"fault plan with a negative MSR latency", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMSRLatency, Millisecond, Millisecond, 1).WithMagnitude(-5e6)}}))},
		{"fault plan with an infinite MSR latency", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMSRLatency, Millisecond, Millisecond, 1).WithMagnitude(math.Inf(1))}}))},
		{"fault plan whose MSR latency overflows the clock", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMSRLatency, Millisecond, Millisecond, 1).WithMagnitude(math.Nextafter(1<<63, 0))}}))},
		{"fault plan with a NaN MBA delay", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMBADelay, Millisecond, Millisecond, 1).WithMagnitude(math.NaN())}}))},
		{"fault plan with a negative MBA delay", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMBADelay, Millisecond, Millisecond, 1).WithMagnitude(-5e6)}}))},
		{"fault plan with an infinite MBA delay", newErr(WithFaultPlan(&FaultPlan{
			Injections: []FaultInjection{FaultProbabilistic(FaultMBADelay, Millisecond, Millisecond, 1).WithMagnitude(math.Inf(1))}}))},
		{"warmup plus measure overflows the clock", newErr(WithWarmup(math.MaxInt64), WithMeasure(time.Millisecond))},
		{"NaN link rate", newErr(WithLinkRate(math.NaN()))},
		{"infinite link rate", newErr(WithLinkRate(math.Inf(1)))},
		{"sample interval whose first tick overflows the clock", newErr(WithSampleInterval(math.MaxInt64))},
		{"more hosts than host IDs", newErr(WithSenders(65535))},
		{"infinite host congestion", newErr(WithHostCongestion(math.Inf(1)))},
		{"host congestion past the bound", newErr(WithHostCongestion(testbed.MaxDegree + 1))},
		{"NaN host congestion", newErr(WithHostCongestion(math.NaN()))},
		{"negative target bandwidth", newErr(WithTargetBandwidth(-1))},
		{"NaN occupancy threshold", newErr(WithOccupancyThreshold(math.NaN()))},
		{"negative sample interval", newErr(WithSampleInterval(-1))},
		{"chaos with negative fault duration", chaosErr(ChaosConfig{Scenario: "link-flap", FaultFor: -1})},
		{"chaos with negative fault start", chaosErr(ChaosConfig{Scenario: "link-flap", FaultAt: -1})},
		{"chaos with a digest period below the floor", chaosErr(ChaosConfig{Scenario: "link-flap", DigestEvery: testbed.MinPeriod - 1})},
		{"chaos with a negative digest period", chaosErr(ChaosConfig{Scenario: "link-flap", DigestEvery: -1})},
		{"chaos with a sentinel window below the floor", chaosErr(ChaosConfig{Scenario: "link-flap", SentinelWindow: testbed.MinPeriod - 1})},
		{"chaos with a negative sentinel window", chaosErr(ChaosConfig{Scenario: "link-flap", SentinelWindow: -1})},
		{"scale-out with a digest period below the floor", scaleOutErr(ScaleOutConfig{DigestEvery: testbed.MinPeriod - 1})},
		{"scale-out with a negative digest period", scaleOutErr(ScaleOutConfig{DigestEvery: -1})},
		{"lossless with negative RPC size", losslessErr(LosslessStudyConfig{RPCSize: -1})},
		{"lossless with negative RPC count", losslessErr(LosslessStudyConfig{RPCCount: -1})},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				if r := recover(); r != nil {
					t.Fatalf("panicked instead of returning an error: %v", r)
				}
			}()
			if err := tc.run(); err == nil {
				t.Fatal("accepted")
			}
		})
	}
}

// TestExtremeLinkRateRuns covers link rates Validate accepts at either
// extreme. A huge one's bandwidth-delay product once sized the event
// heap's pre-allocation at terabytes: the pre-size is capped, and the
// run carries traffic. A tiny one's serialization time once overflowed
// the clock: it saturates, and the run completes.
func TestExtremeLinkRateRuns(t *testing.T) {
	for _, gbps := range []float64{1e12, 1e-17} {
		t.Run(fmt.Sprint(gbps), func(t *testing.T) {
			x, err := New(WithLinkRate(gbps), WithWarmup(200*time.Microsecond), WithMeasure(200*time.Microsecond))
			if err != nil {
				t.Fatal(err)
			}
			if res := x.Run(); gbps > 1 && res.ThroughputGbps <= 0 {
				t.Fatalf("no throughput: %+v", res.Metrics)
			}
		})
	}
}

func TestFunctionalOptionsRun(t *testing.T) {
	x, err := New(quick(WithHostCongestion(3), WithHostCC())...)
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if res.ThroughputGbps <= 0 {
		t.Fatalf("no throughput: %+v", res.Metrics)
	}
	if res.Timeline != nil {
		t.Fatal("timeline recorded without WithTelemetry")
	}
}

func TestObserve(t *testing.T) {
	x, err := New(quick()...)
	if err != nil {
		t.Fatal(err)
	}
	if err := x.Observe("no/such/instrument", func(Sample) {}); err == nil {
		t.Fatal("unknown instrument accepted")
	}
	if len(x.Instruments()) == 0 {
		t.Fatal("no instruments registered")
	}
	var got Sample
	if err := x.Observe("receiver/nic/arrivals", func(s Sample) { got = s }); err != nil {
		t.Fatal(err)
	}
	x.Run()
	if got.Name != "receiver/nic/arrivals" || got.Kind != "counter" {
		t.Fatalf("bad sample: %+v", got)
	}
	if got.Value <= 0 {
		t.Fatalf("no arrivals observed: %+v", got)
	}
}

func TestTelemetryTimeline(t *testing.T) {
	x, err := New(quick(WithHostCongestion(3), WithHostCC(), WithTelemetry())...)
	if err != nil {
		t.Fatal(err)
	}
	res := x.Run()
	if res.Timeline == nil {
		t.Fatal("WithTelemetry produced no timeline")
	}
	if res.Timeline.Spans() == 0 || res.Timeline.Tracks() == 0 {
		t.Fatalf("empty timeline: %d spans, %d tracks",
			res.Timeline.Spans(), res.Timeline.Tracks())
	}

	var buf bytes.Buffer
	if err := res.Timeline.WriteChromeTrace(&buf); err != nil {
		t.Fatal(err)
	}
	if !json.Valid(buf.Bytes()) {
		t.Fatal("chrome trace is not valid JSON")
	}
	out := buf.String()
	for _, want := range []string{
		`"nic-queue"`, `"iio-mem"`, `"cpu-rx"`, // per-hop packet spans
		"receiver/iio/occupancy", "receiver/mba/level", // counter tracks
		"hostcc-sample", // decision-audit spans
	} {
		if !strings.Contains(out, want) {
			t.Errorf("chrome trace missing %s", want)
		}
	}
}

// TestTelemetryDoesNotPerturb runs the same experiment with and without
// the tracer and requires bit-identical metrics: telemetry only reads
// simulation state, so it must not change event order.
func TestTelemetryDoesNotPerturb(t *testing.T) {
	run := func(tel bool) Metrics {
		opts := quick(WithHostCongestion(3), WithHostCC(), WithFlows(4))
		if tel {
			opts = append(opts, WithTelemetry())
		}
		x, err := New(opts...)
		if err != nil {
			t.Fatal(err)
		}
		return x.Run().Metrics
	}
	if off, on := run(false), run(true); off != on {
		t.Fatalf("telemetry perturbed the run:\noff: %+v\non:  %+v", off, on)
	}
}

// TestSchemeRegistry pins the public scheme registry: the full name
// set in stable order, resolvable by name, each handing out a working
// CC selector.
func TestSchemeRegistry(t *testing.T) {
	want := []string{"dctcp", "reno", "cubic", "dcqcn", "delay", "bbr", "hpcc"}
	schemes := Schemes()
	if len(schemes) != len(want) {
		t.Fatalf("got %d schemes, want %d", len(schemes), len(want))
	}
	for i, s := range schemes {
		if s.Name() != want[i] {
			t.Fatalf("scheme %d is %q, want %q", i, s.Name(), want[i])
		}
		if s.Summary() == "" {
			t.Fatalf("scheme %q has no summary", s.Name())
		}
		if s.CC().String() != s.Name() {
			t.Fatalf("scheme %q CC selector names itself %q", s.Name(), s.CC().String())
		}
		if s.RequiresLossless() != (s.Name() == "dcqcn") {
			t.Fatalf("scheme %q lossless flag wrong", s.Name())
		}
	}
	if _, err := SchemeByName("bbr"); err != nil {
		t.Fatal(err)
	}
	if _, err := SchemeByName("vegas"); err == nil {
		t.Fatal("unknown scheme resolved")
	}
}

// TestWithScheme: the registry path drives an experiment end to end,
// and an unknown name surfaces as a New error.
func TestWithScheme(t *testing.T) {
	if _, err := New(quick(WithScheme("vegas"))...); err == nil {
		t.Fatal("unknown scheme accepted by New")
	}
	x, err := New(quick(WithScheme("reno"))...)
	if err != nil {
		t.Fatal(err)
	}
	if res := x.Run(); res.ThroughputGbps <= 0 {
		t.Fatalf("no throughput under reno: %+v", res.Metrics)
	}
	// A lossless scheme configures its fabric automatically.
	if _, err := New(quick(WithScheme("dcqcn"))...); err != nil {
		t.Fatalf("dcqcn did not self-configure a lossless fabric: %v", err)
	}
}

// TestEvalMini drives the public evaluation harness: a one-scheme
// matrix with both hostCC arms, replay-verified.
func TestEvalMini(t *testing.T) {
	if testing.Short() {
		t.Skip("full testbed cells; skipped in -short")
	}
	rep, err := Eval(EvalMatrix{
		Schemes:    []string{"dctcp"},
		Topologies: []string{"star"},
		Workloads:  []string{"hostbound"},
	}, EvalWindows(500*time.Microsecond, 4*time.Millisecond))
	if err != nil {
		t.Fatal(err)
	}
	if len(rep.Cells) != 2 {
		t.Fatalf("got %d cells, want 2", len(rep.Cells))
	}
	for i, c := range rep.Cells {
		if !c.Verified {
			t.Fatalf("cell %d not replay-verified", i)
		}
		if c.GoodputGbps <= 0 {
			t.Fatalf("cell %d reports no goodput", i)
		}
	}
	if rep.Cells[1].GoodputVsOffPct == 0 {
		t.Fatal("on arm carries no vs-off comparison")
	}
	if _, err := Eval(EvalMatrix{Schemes: []string{"vegas"}}); err == nil {
		t.Fatal("Eval accepted an unknown scheme")
	}
}
