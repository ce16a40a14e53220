// Package core implements hostCC, the paper's contribution: a congestion
// control architecture that handles host congestion alongside network
// fabric congestion (§3, §4). It embodies the three key ideas:
//
//  1. Host congestion signals: IIO occupancy (I_S) and PCIe bandwidth
//     (B_S), sampled from hardware counters at sub-µs granularity via MSR
//     reads that are off the NIC-to-memory datapath (§3.1, §4.1).
//
//  2. Sub-RTT host-local congestion response: a four-regime controller
//     (Figure 6) that allocates host resources between network traffic
//     and host-local traffic by adjusting Intel MBA throttle levels
//     (§3.2, §4.2).
//
//  3. Network resource allocation at RTT granularity: when the host is
//     congested, hostCC CE-marks inbound packets at the NetFilter hook
//     position, so the unmodified network congestion control protocol
//     (e.g. DCTCP) reduces the sender's rate exactly as it would for
//     switch congestion (§3.3, §4.3).
//
// The module interacts with the host only through the same interfaces the
// ~800 LOC Linux kernel module uses: MSR reads (with realistic latency),
// MBA MSR writes (22 µs), and a receive hook.
package core

import (
	"fmt"

	"repro/internal/msr"
	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/stats"
	"repro/internal/telemetry"
)

// Mode selects which hostCC responses are active; the ablation of
// Figure 18 exercises the partial modes.
type Mode int

// Modes.
const (
	// ModeFull runs both the host-local response and ECN echo (default).
	ModeFull Mode = iota
	// ModeEchoOnly only echoes host congestion to the network CC.
	ModeEchoOnly
	// ModeLocalOnly only runs the host-local MBA response.
	ModeLocalOnly
	// ModeOff disables hostCC (signals still sampled, for measurement).
	ModeOff
)

func (m Mode) String() string {
	switch m {
	case ModeFull:
		return "full"
	case ModeEchoOnly:
		return "echo-only"
	case ModeLocalOnly:
		return "local-only"
	case ModeOff:
		return "off"
	}
	return "unknown"
}

// LevelController abstracts the host resource allocation mechanism
// (implemented by cpu.MBA). RequestLevel must tolerate repeated calls and
// account for its own write latency.
type LevelController interface {
	RequestLevel(l int)
	Level() int
	NumLevels() int
}

// Config holds hostCC's two parameters plus mechanism constants (§5:
// "hostCC has only two parameters B_T and I_T").
type Config struct {
	// IT is the IIO occupancy threshold: I_S > I_T indicates host
	// congestion. Default 70 with DDIO disabled; 50 enabled (§5, §5.2).
	IT float64
	// BT is the target network bandwidth (default 80 Gbps).
	BT sim.Rate
	// WeightIS is the occupancy signal's EWMA weight (default 1/8; §4.1
	// discusses the aggressiveness/delay trade-off).
	WeightIS float64
	// SampleInterval is the signal sampling period. Two MSR reads cost
	// ~1.2 µs, so the default is 2 µs — still far below the ~44 µs RTT.
	SampleInterval sim.Time
	// Mode selects active responses.
	Mode Mode
	// Watchdog, when non-nil, arms the signal/actuation failsafe (see
	// watchdog.go). The zero WatchdogConfig selects all defaults.
	Watchdog *WatchdogConfig
}

// Validate reports the first invalid parameter of the configuration; New
// panics on a Config it rejects.
func (c Config) Validate() error {
	if c.SampleInterval <= 0 {
		return fmt.Errorf("core: SampleInterval %v must be positive (zero would busy-loop the event queue)", c.SampleInterval)
	}
	if !(c.IT > 0) {
		return fmt.Errorf("core: IT %v must be positive", c.IT)
	}
	if !(c.BT > 0) {
		return fmt.Errorf("core: BT %v must be positive", c.BT)
	}
	if !(c.WeightIS > 0 && c.WeightIS <= 1) {
		return fmt.Errorf("core: WeightIS %v outside (0,1]", c.WeightIS)
	}
	return nil
}

const (
	// weightBS is the bandwidth signal's EWMA weight (§4.1).
	weightBS = 1.0 / 256
	// pcieOverhead converts B_T into its on-PCIe equivalent: with 4K MTU
	// and default TLPs the measured B_S carries ~5% overhead (§5.4
	// compares B_S against 84 Gbps for B_T = 80 Gbps).
	pcieOverhead = 1.05
)

// DefaultConfig returns the paper's default parameters.
func DefaultConfig(ddio bool) Config {
	it := 70.0
	if ddio {
		it = 50.0
	}
	return Config{
		IT:             it,
		BT:             sim.Gbps(80),
		WeightIS:       1.0 / 8,
		SampleInterval: 2 * sim.Microsecond,
		Mode:           ModeFull,
	}
}

// HostCC is one host's congestion-control module.
type HostCC struct {
	e   *sim.Engine
	f   *msr.File
	mba LevelController
	cfg Config

	isEWMA *stats.EWMA
	bsEWMA *stats.EWMA

	lastROCC   uint64
	lastROCCAt sim.Time
	lastRINS   uint64
	lastRINSAt sim.Time
	seeded     bool

	running bool

	// wd is the signal/actuation failsafe (nil when not configured).
	wd *Watchdog

	// ReadLatency records every MSR read's latency (Figure 7).
	ReadLatency *stats.Histogram

	// Counters.
	MarkedPackets stats.Counter
	Samples       stats.Counter
	FailedSamples stats.Counter
	LevelRaises   stats.Counter
	LevelDrops    stats.Counter

	// Telemetry (nil when disabled): signal tracks, the CE-mark track,
	// and per-sample spans forming the decision audit (MSR read → level
	// change).
	tr        *telemetry.Tracer
	trIS      *telemetry.Track
	trBS      *telemetry.Track
	trMarked  *telemetry.Track
	sampleSeq uint64

	// Sampler plumbing; at most one sample is in flight. sampleH starts
	// the next sample and the two MSR read callbacks are method values
	// bound once. The in-flight sample's span ID is sampleSeq-1, and its
	// ROCC half waits in roccVal/roccAt for the RINS read.
	sampleH  sim.HandlerID
	roccDone func(uint64, sim.Time, error)
	rinsDone func(uint64, sim.Time, error)
	roccVal  uint64
	roccAt   sim.Time
}

// New creates a hostCC module reading signals from f and driving mba. It
// panics on a Config that Validate rejects.
func New(e *sim.Engine, f *msr.File, mba LevelController, cfg Config) *HostCC {
	if f == nil {
		panic("core: nil MSR file")
	}
	if cfg.Mode != ModeEchoOnly && cfg.Mode != ModeOff && mba == nil {
		panic("core: host-local response requires a level controller")
	}
	if err := cfg.Validate(); err != nil {
		panic(err)
	}
	h := &HostCC{
		e:           e,
		f:           f,
		mba:         mba,
		cfg:         cfg,
		isEWMA:      stats.NewEWMA(cfg.WeightIS),
		bsEWMA:      stats.NewEWMA(weightBS),
		ReadLatency: stats.NewHistogram(30),
	}
	if cfg.Watchdog != nil {
		h.wd = newWatchdog(e, mba, *cfg.Watchdog)
	}
	h.sampleH = e.Handler(func(uint64, uint64) { h.sample() })
	h.roccDone = h.readROCC
	h.rinsDone = h.readRINS
	return h
}

// SetTracer attaches the hostCC decision-audit telemetry (named under
// prefix): filtered-signal and CE-mark counter tracks, plus one span per
// signal sample covering MSR read through response. Call before Start.
func (h *HostCC) SetTracer(t *telemetry.Tracer, prefix string) {
	h.tr = t
	h.trIS = t.NewTrack(prefix+"/hostcc/is", "lines")
	h.trBS = t.NewTrack(prefix+"/hostcc/bs", "gbps")
	h.trMarked = t.NewTrack(prefix+"/hostcc/marked", "pkts")
}

// RegisterInstruments registers hostCC's metrics under prefix.
func (h *HostCC) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	reg.Gauge(prefix+"/hostcc/is", "lines", "filtered IIO occupancy signal I_S",
		func() float64 { return h.IS() })
	reg.Gauge(prefix+"/hostcc/bs", "bytes/s", "filtered PCIe bandwidth signal B_S",
		func() float64 { return float64(h.BS()) })
	reg.Gauge(prefix+"/hostcc/level", "level", "current host-local response level",
		func() float64 { return float64(h.Level()) })
	reg.Counter(prefix+"/hostcc/samples", "samples", "signal samples completed",
		func() float64 { return float64(h.Samples.Total()) })
	reg.Counter(prefix+"/hostcc/failed-samples", "samples", "signal samples aborted by MSR read faults",
		func() float64 { return float64(h.FailedSamples.Total()) })
	reg.Counter(prefix+"/hostcc/level-raises", "events", "host-local response level raises",
		func() float64 { return float64(h.LevelRaises.Total()) })
	reg.Counter(prefix+"/hostcc/level-drops", "events", "host-local response level drops",
		func() float64 { return float64(h.LevelDrops.Total()) })
	reg.Counter(prefix+"/hostcc/marked", "pkts", "inbound packets CE-marked by the host",
		func() float64 { return float64(h.MarkedPackets.Total()) })
	reg.Histogram(prefix+"/hostcc/read-latency", "ns", "MSR read latency (Figure 7)",
		h.ReadLatency)
}

// Watchdog returns the failsafe, or nil when not configured.
func (h *HostCC) Watchdog() *Watchdog { return h.wd }

// Start begins signal sampling and response.
func (h *HostCC) Start() {
	if h.running {
		panic("core: hostCC started twice")
	}
	h.running = true
	if h.wd != nil {
		h.wd.start()
	}
	h.sample()
}

// Stop halts sampling after the in-flight sample completes.
func (h *HostCC) Stop() {
	h.running = false
	if h.wd != nil {
		h.wd.stop()
	}
}

// sample performs one signal collection: two dependent MSR reads (ROCC,
// then RINS) with TSC timestamps, exactly as §4.1 describes. A failed
// read aborts the sample — no partial snapshot is folded into the signal
// state — and the failure is reported to the watchdog (when armed).
func (h *HostCC) sample() {
	if !h.running {
		return
	}
	h.tr.RangeBegin(telemetry.HopSample, h.sampleSeq, h.e.Now())
	h.sampleSeq++
	h.f.Read(msr.IIOOccupancy, h.roccDone)
}

// readROCC retires the sample's first read and issues the second.
func (h *HostCC) readROCC(rocc uint64, lat sim.Time, err error) {
	h.ReadLatency.Add(float64(lat))
	if err != nil {
		h.sampleFailed()
		return
	}
	h.roccVal, h.roccAt = rocc, h.f.ReadTSC()
	h.f.Read(msr.IIOInsertions, h.rinsDone)
}

// readRINS retires the sample's second read and folds the snapshot in.
func (h *HostCC) readRINS(rins uint64, lat sim.Time, err error) {
	h.ReadLatency.Add(float64(lat))
	if err != nil {
		h.sampleFailed()
		return
	}
	h.ingest(h.roccVal, h.roccAt, rins, h.f.ReadTSC())
	h.tr.RangeEnd(telemetry.HopSample, h.sampleSeq-1, h.e.Now(), "sampled")
	h.e.ScheduleAfter(h.cfg.SampleInterval, h.sampleH, 0, 0)
}

// sampleFailed accounts one failed signal collection and keeps the
// sampling loop alive: the signal EWMAs are left untouched and the next
// sample is scheduled normally (the kernel module's rdmsr wrapper does
// the same — a fault is logged, the sample skipped).
func (h *HostCC) sampleFailed() {
	h.FailedSamples.Inc()
	h.tr.RangeEnd(telemetry.HopSample, h.sampleSeq-1, h.e.Now(), "read-failed")
	if h.wd != nil {
		h.wd.noteReadFailure()
	}
	h.e.ScheduleAfter(h.cfg.SampleInterval, h.sampleH, 0, 0)
}

// ingest folds one counter snapshot into the signal EWMAs and triggers
// the response.
func (h *HostCC) ingest(rocc uint64, tRocc sim.Time, rins uint64, tRins sim.Time) {
	h.Samples.Inc()
	moved := !h.seeded || rocc != h.lastROCC || rins != h.lastRINS
	if h.seeded {
		if dt := tRocc - h.lastROCCAt; dt > 0 {
			// Average occupancy: ΔROCC / (Δt × F_IIO), §4.1.
			is := float64(rocc-h.lastROCC) / (dt.Seconds() * msr.FIIOHz)
			h.isEWMA.Update(is)
		}
		if dt := tRins - h.lastRINSAt; dt > 0 {
			// PCIe bandwidth: insertion rate × cacheline size.
			bs := float64(rins-h.lastRINS) * 64 / dt.Seconds()
			h.bsEWMA.Update(bs)
		}
	}
	h.lastROCC, h.lastROCCAt = rocc, tRocc
	h.lastRINS, h.lastRINSAt = rins, tRins
	h.seeded = true
	h.trIS.Set(h.e.Now(), h.isEWMA.Value())
	h.trBS.Set(h.e.Now(), h.bsEWMA.Value()*8/1e9)
	if h.wd != nil {
		// Counters that stop moving while the filtered bandwidth says
		// traffic was flowing are a stuck sensor, not an idle host.
		loaded := h.bsEWMA.Value() > h.wd.cfg.LoadFloorBytes
		h.wd.noteSample(moved, loaded)
	}
	h.respond()
}

// IS returns the filtered IIO occupancy signal.
func (h *HostCC) IS() float64 { return h.isEWMA.Value() }

// BS returns the filtered PCIe bandwidth signal (bytes/sec).
func (h *HostCC) BS() sim.Rate { return sim.Rate(h.bsEWMA.Value()) }

// Congested reports whether the host congestion signal exceeds its
// threshold (IIO occupancy > I_T).
func (h *HostCC) Congested() bool { return h.IS() > h.cfg.IT }

// targetBS is B_T expressed in on-PCIe bytes (incl. TLP overhead).
func (h *HostCC) targetBS() sim.Rate {
	return sim.Rate(float64(h.cfg.BT) * pcieOverhead)
}

// BelowTarget reports whether network traffic is under its target
// bandwidth (B_S < B_T).
func (h *HostCC) BelowTarget() bool { return h.BS() < h.targetBS() }

// Level returns the current host-local response level.
func (h *HostCC) Level() int {
	if h.mba == nil {
		return 0
	}
	return h.mba.Level()
}

// respond applies the four regimes of Figure 6 to the current signals.
// While the watchdog is in fallback the response is bypassed: its inputs
// are exactly the signals the watchdog distrusts, so the level stays
// pinned at the conservative fallback.
func (h *HostCC) respond() {
	if h.cfg.Mode == ModeOff || h.cfg.Mode == ModeEchoOnly || h.mba == nil {
		return
	}
	if h.wd != nil && h.wd.State() == WatchdogFallback {
		return
	}
	cur := h.mba.Level()
	act := decide(h.IS(), h.cfg.IT, float64(h.BS()), float64(h.targetBS()))
	switch act {
	case Raise:
		// Regime 3: reduce host-local traffic's resources (more
		// backpressure), in addition to the ECN echo.
		if cur+1 < h.mba.NumLevels() {
			h.requestLevel(cur + 1)
			h.LevelRaises.Inc()
		}
	case Lower:
		// Regime 1: network traffic met its target and the host is not
		// congested — return resources to host-local traffic.
		if cur > 0 {
			h.requestLevel(cur - 1)
			h.LevelDrops.Inc()
		}
	case Hold:
		// Regime 2 (congested, target met): echo only; level unchanged.
		// Regime 4 (not congested, below target): hold, letting network
		// traffic grow into the target before host-local traffic does.
	}
}

// requestLevel issues a level change and registers the intent with the
// watchdog for actuation read-back (a silently dropped MBA write is
// re-issued with backoff).
func (h *HostCC) requestLevel(l int) {
	if h.tr != nil {
		// The audit instant ties the decision to the signals it was made
		// on; the MBA's write span then shows when it took effect.
		h.tr.Instant(telemetry.HopMBAWrite, "hostcc-level-request", h.e.Now(),
			telemetry.KV{Key: "level", Val: float64(l)},
			telemetry.KV{Key: "is", Val: h.IS()},
			telemetry.KV{Key: "bs_gbps", Val: float64(h.BS()) * 8 / 1e9})
	}
	if h.wd != nil {
		h.wd.noteRequest(l)
	}
	h.mba.RequestLevel(l)
}

// ReceiveHook returns the NetFilter-position hook implementing the ECN
// echo: while the host congestion signal exceeds I_T, inbound ECT packets
// are CE-marked before transport delivery, exactly as a congested switch
// would mark them (§4.3). Packets already CE-marked by the fabric pass
// through unchanged.
func (h *HostCC) ReceiveHook() func(*packet.Packet) {
	return func(p *packet.Packet) {
		if h.cfg.Mode == ModeOff || h.cfg.Mode == ModeLocalOnly {
			return
		}
		if !p.IsData() || p.ECN != packet.ECT0 {
			return
		}
		if h.Congested() {
			p.ECN = packet.CE
			p.MarkedByHost = true
			h.MarkedPackets.Inc()
			h.trMarked.Set(h.e.Now(), float64(h.MarkedPackets.Total()))
		}
	}
}
