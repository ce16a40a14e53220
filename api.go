// api.go is the core public API: functional options into an Experiment,
// stable Metrics/Timeline result types, and an Observe hook over the
// telemetry registry. The scheme registry lives in scheme.go and the
// evaluation harness in eval.go; hostcc.go re-exports the study runners.
package hostcc

import (
	"fmt"
	"io"
	"time"

	"repro/internal/core"
	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/telemetry"
	"repro/internal/testbed"
	"repro/internal/transport"
)

// CC selects the network congestion control protocol for WithCC. The zero
// value keeps the default (DCTCP).
type CC struct {
	factory transport.CCFactory
	name    string
}

// String returns the protocol name.
func (c CC) String() string {
	if c.name == "" {
		return "dctcp"
	}
	return c.name
}

// Built-in congestion control protocols.
var (
	// CCDCTCP is DCTCP (the paper's default; gets the full hostCC
	// architecture including the ECN echo).
	CCDCTCP = CC{factory: transport.NewDCTCP(), name: "dctcp"}
	// CCReno is loss-based NewReno (ignores ECN; benefits from the
	// host-local response alone).
	CCReno = CC{factory: transport.NewReno(), name: "reno"}
	// CCCubic is loss-based CUBIC.
	CCCubic = CC{factory: transport.NewCubic(), name: "cubic"}
	// CCDCQCN is DCQCN rate-based congestion control (the protocol PFC
	// fabrics deploy): CNP-driven multiplicative decrease with timer- and
	// byte-counter recovery. Pair with WithLossless — without a PFC
	// fabric no CNPs are generated and the sender never slows.
	CCDCQCN = CC{factory: transport.NewDCQCN(), name: "dcqcn"}
)

// CCDelay returns a Swift-like delay-based congestion control targeting
// the given RTT (the §6 extension; pair with the delay signal).
func CCDelay(target time.Duration) CC {
	return CC{factory: transport.NewDelayCC(sim.Time(target.Nanoseconds())), name: "delay"}
}

// HostCCMode selects which hostCC responses are active (the Figure 18
// ablation axis).
type HostCCMode int

// hostCC modes for WithHostCCMode.
const (
	// HostCCFull runs the host-local MBA response and the ECN echo.
	HostCCFull HostCCMode = iota
	// HostCCEchoOnly only echoes host congestion to the network CC.
	HostCCEchoOnly
	// HostCCLocalOnly only runs the host-local MBA response.
	HostCCLocalOnly
	// HostCCOff disables hostCC (signals are still sampled).
	HostCCOff
)

// Option configures an Experiment (see New).
type Option func(*Experiment)

// WithSeed sets the deterministic simulation seed (default 42).
func WithSeed(seed int64) Option { return func(x *Experiment) { x.cfg.Seed = seed } }

// WithMTU sets the network MTU in bytes (default 4096).
func WithMTU(bytes int) Option { return func(x *Experiment) { x.cfg.MTU = bytes } }

// WithDDIO enables or disables Data Direct I/O at every host (default
// off, the paper's primary configuration).
func WithDDIO(enabled bool) Option { return func(x *Experiment) { x.cfg.DDIO = enabled } }

// WithFlows sets the number of NetApp-T throughput flows (default 4).
func WithFlows(n int) Option { return func(x *Experiment) { x.cfg.Flows = n } }

// WithSenders sets the number of sending hosts (default 1; 2 for incast).
func WithSenders(n int) Option { return func(x *Experiment) { x.cfg.Senders = n } }

// WithReceivers sets the number of receiving hosts (default 1). Every
// receiver runs hostCC and the configured host congestion; NetApp-T
// flows fan in round-robin across receivers.
func WithReceivers(n int) Option { return func(x *Experiment) { x.cfg.Receivers = n } }

// WithLeafSpine replaces the single-switch star with a leaf–spine
// fabric: `leaves` top-of-rack switches fully meshed to `spines` spine
// switches over trunk links with their own queues and ECN marking
// (0, 0 selects the defaults: 2 leaves, 2 spines). Hosts are placed
// round-robin across racks, so most traffic crosses the spine.
func WithLeafSpine(leaves, spines int) Option {
	return func(x *Experiment) { x.cfg.Topology = fabric.LeafSpine(leaves, spines) }
}

// WithDumbbell replaces the single-switch star with the classic
// two-switch dumbbell: receivers on one switch, senders on the other,
// one trunk bottleneck between them.
func WithDumbbell() Option {
	return func(x *Experiment) { x.cfg.Topology = fabric.Dumbbell() }
}

// WithLossless converts the fabric and NICs to PFC lossless operation:
// switch ingresses pause their upstream instead of dropping, NIC rx
// buffers pause the leaf instead of overflowing, and the default
// congestion control becomes DCQCN (override with WithCC). The watchdog
// duration, when positive, force-releases any pause asserted longer
// than that (0 leaves stuck pauses wedged — the storm failure mode).
func WithLossless(watchdog time.Duration) Option {
	return func(x *Experiment) {
		x.cfg.Lossless = true
		x.cfg.PauseWatchdog = sim.Time(watchdog.Nanoseconds())
	}
}

// WithHostCongestion sets the degree of host congestion: MApp units
// generating CPU-to-memory traffic at the receiver (default 0; the
// paper's headline scenario uses 3; at most 64, i.e. 512 MApp cores).
func WithHostCongestion(degree float64) Option {
	return func(x *Experiment) { x.cfg.Degree = degree }
}

// WithCC selects the network congestion control protocol.
func WithCC(cc CC) Option {
	return func(x *Experiment) { x.cfg.CC = cc.factory }
}

// WithHostCC enables the hostCC module in full mode.
func WithHostCC() Option {
	return func(x *Experiment) {
		x.cfg.HostCC = true
		x.cfg.Mode = core.ModeFull
	}
}

// WithHostCCMode enables the hostCC module in a specific response mode
// (ablations); WithHostCCMode(HostCCOff) is the same as the default.
func WithHostCCMode(m HostCCMode) Option {
	return func(x *Experiment) {
		x.cfg.HostCC = m != HostCCOff
		x.cfg.Mode = core.Mode(m)
	}
}

// WithLinkRate sets every fabric link's rate and each NIC's line rate, in
// gigabits per second (default 100).
func WithLinkRate(gbps float64) Option {
	return func(x *Experiment) { x.cfg.LinkRate = sim.Gbps(gbps) }
}

// WithTargetBandwidth sets hostCC's target network bandwidth B_T in
// gigabits per second (default 80).
func WithTargetBandwidth(gbps float64) Option {
	return func(x *Experiment) { x.cfg.BT = sim.Gbps(gbps) }
}

// WithOccupancyThreshold sets hostCC's IIO occupancy threshold I_T in
// cache lines (default 70, or 50 with DDIO).
func WithOccupancyThreshold(lines float64) Option {
	return func(x *Experiment) { x.cfg.IT = lines }
}

// WithSampleInterval sets hostCC's signal sampling period (default 2µs).
func WithSampleInterval(d time.Duration) Option {
	return func(x *Experiment) { x.cfg.SampleInterval = sim.Time(d.Nanoseconds()) }
}

// WithFixedLevel disables the dynamic response and hard-codes the MBA
// throttle level (the Figure 9 calibration experiment).
func WithFixedLevel(level int) Option {
	return func(x *Experiment) { x.cfg.FixedLevel = level }
}

// WithMinRTO sets the transport's minimum retransmission timeout
// (default 200ms, the Linux default; throughput experiments lower it so
// the startup transient settles within an affordable warmup).
func WithMinRTO(d time.Duration) Option {
	return func(x *Experiment) { x.cfg.MinRTO = sim.Time(d.Nanoseconds()) }
}

// WithWarmup sets the simulated warmup before the measurement window
// (default 4ms).
func WithWarmup(d time.Duration) Option {
	return func(x *Experiment) { x.cfg.Warmup = sim.Time(d.Nanoseconds()) }
}

// WithMeasure sets the simulated measurement window (default 16ms).
func WithMeasure(d time.Duration) Option {
	return func(x *Experiment) { x.cfg.Measure = sim.Time(d.Nanoseconds()) }
}

// WithWireLoss injects independent random packet loss on every fabric
// link with the given probability (failure injection; default 0).
func WithWireLoss(prob float64) Option {
	return func(x *Experiment) { x.cfg.WireLossProb = prob }
}

// WithFaultPlan arms a deterministic fault-injection plan against the
// receiver's hardware seams (build plans with FaultOneShot, FaultPeriodic,
// FaultProbabilistic and the Fault* kinds).
func WithFaultPlan(p *FaultPlan) Option {
	return func(x *Experiment) { x.cfg.Faults = p }
}

// WithWatchdog arms hostCC's signal/actuation failsafe. The zero
// WatchdogConfig selects all defaults.
func WithWatchdog(cfg WatchdogConfig) Option {
	return func(x *Experiment) { x.cfg.Watchdog = &cfg }
}

// WithInvariants runs the datapath invariant checker during the run
// (packet conservation, PCIe credit accounting, MBA level bounds);
// violations panic.
func WithInvariants() Option {
	return func(x *Experiment) { x.cfg.Invariants = true }
}

// WithTelemetry enables the event tracer: per-hop packet-lifecycle spans
// and counter tracks, returned as Result.Timeline. Telemetry reads
// simulation state and never perturbs event order — a run produces
// bit-identical results with telemetry on or off. Instrument registration
// (Observe, Instruments) is always available; only span/track recording
// is gated on this option.
func WithTelemetry() Option {
	return func(x *Experiment) { x.cfg.Telemetry = true }
}

// Experiment is one configured experiment: a receiver under optional host
// congestion, one or more senders, a switch, and the hostCC module.
// Construct with New, then Run.
type Experiment struct {
	cfg testbed.Config
	tb  *testbed.Testbed
	err error // first option error (e.g. unknown scheme name)

	observers []struct {
		name string
		fn   func(Sample)
	}
}

// New builds an experiment from functional options, validating the
// resulting configuration.
//
//	x, err := hostcc.New(hostcc.WithHostCongestion(3), hostcc.WithHostCC())
//	if err != nil { ... }
//	res := x.Run()
func New(opts ...Option) (*Experiment, error) {
	x := &Experiment{cfg: testbed.DefaultConfig()}
	for _, opt := range opts {
		opt(x)
	}
	if x.err != nil {
		return nil, x.err
	}
	if err := x.cfg.Validate(); err != nil {
		return nil, err
	}
	x.tb = testbed.New(x.cfg)
	return x, nil
}

// Testbed exposes the fully constructed experiment for advanced use:
// attaching custom apps or packet hooks, sampling mid-run, driving the
// engine clock directly. The Experiment's own Run must not be combined
// with manual testbed driving.
func (x *Experiment) Testbed() *Testbed { return x.tb }

// Instruments returns the sorted names of every registered telemetry
// instrument (counters, gauges, histograms) across all devices.
func (x *Experiment) Instruments() []string { return x.tb.Reg.Names() }

// Sample is one instrument reading, delivered to Observe callbacks.
type Sample struct {
	Name  string  // instrument name, e.g. "receiver/iio/occupancy"
	Kind  string  // "counter", "gauge" or "histogram"
	Unit  string  // e.g. "bytes", "lines", "pkts"
	Help  string  // one-line description
	Value float64 // current value (histograms report their sample count)
}

// Observe registers fn to receive the named instrument's final reading
// when Run completes. It returns an error if no such instrument is
// registered (see Instruments for the catalogue).
func (x *Experiment) Observe(instrument string, fn func(Sample)) error {
	if _, ok := x.tb.Reg.Get(instrument); !ok {
		return fmt.Errorf("hostcc: unknown instrument %q", instrument)
	}
	x.observers = append(x.observers, struct {
		name string
		fn   func(Sample)
	}{instrument, fn})
	return nil
}

// Metrics summarizes one measurement window. It is a stable result type:
// field-for-field identical to the internal testbed's metrics.
type Metrics struct {
	ThroughputGbps float64 // NetApp-T goodput
	DropRatePct    float64 // receiver NIC drops / arrivals
	SwitchDropPct  float64 // switch drops / NIC arrivals (incast runs)

	MemUtilNet   float64 // network-side memory bandwidth / theoretical
	MemUtilMApp  float64 // MApp memory bandwidth / theoretical
	MemUtilTotal float64

	MAppGBps     float64 // MApp memory bandwidth
	MAppTputGbps float64 // MApp application throughput

	AvgIS     float64 // window-average IIO occupancy (lines)
	AvgBSGbps float64 // window-average PCIe bandwidth

	MarkedPct    float64 // packets CE-marked by hostCC / NIC arrivals
	ResponseLvl  int     // MBA level at window end
	NetTimeouts  int64   // RTOs across NetApp-T flows
	NetRetx      int64   // retransmissions across NetApp-T flows
	WindowMicros float64
}

// Timeline is the recorded telemetry of one run (nil unless the
// experiment was built WithTelemetry).
type Timeline struct {
	tl *telemetry.Timeline
}

// WriteChromeTrace writes the timeline in Chrome Trace Event Format
// (load the file at https://ui.perfetto.dev or chrome://tracing): one
// thread track per datapath hop with per-packet spans, plus counter
// tracks for IIO occupancy, MBA level, PCIe credits and the rest.
func (t *Timeline) WriteChromeTrace(w io.Writer) error { return t.tl.WriteChromeTrace(w) }

// Spans returns the number of recorded spans.
func (t *Timeline) Spans() int { return len(t.tl.Spans) }

// Tracks returns the number of recorded counter tracks.
func (t *Timeline) Tracks() int { return len(t.tl.Tracks) }

// Dropped returns the number of spans discarded at the recording cap.
func (t *Timeline) Dropped() int64 { return t.tl.Dropped }

// Result is the outcome of Experiment.Run.
type Result struct {
	Metrics
	// Timeline holds the recorded telemetry (nil without WithTelemetry).
	Timeline *Timeline
}

// Run executes the NetApp-T throughput experiment: warmup, then one
// measurement window. Observe callbacks fire after the window closes.
func (x *Experiment) Run() Result {
	x.tb.StartNetAppT()
	tm := x.tb.RunWindow()
	res := Result{Metrics: Metrics(tm)}
	if x.tb.Tr != nil {
		res.Timeline = &Timeline{tl: x.tb.Tr.Timeline()}
	}
	for _, ob := range x.observers {
		inst, _ := x.tb.Reg.Get(ob.name)
		ob.fn(Sample{
			Name:  inst.Name,
			Kind:  inst.Kind.String(),
			Unit:  inst.Unit,
			Help:  inst.Help,
			Value: inst.Value(),
		})
	}
	return res
}
