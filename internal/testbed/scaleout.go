package testbed

import (
	"fmt"

	"repro/internal/fabric"
	"repro/internal/sim"
	"repro/internal/snapshot"
	"repro/internal/transport"
)

// ScaleOutConfig parameterizes a scale-out run: many senders fanning
// flows across several hostCC-equipped receivers through a multi-switch
// fabric. Where ChaosConfig studies fault recovery, ScaleOutConfig
// studies scale — the run is fault-free and the interesting outputs are
// aggregate goodput, in-fabric congestion (trunk queues, switch drops
// and marks), and the determinism proof (two runs, identical digest
// timelines).
type ScaleOutConfig struct {
	// Topology names the fabric shape ("star", "leafspine", "dumbbell";
	// "" = leafspine, the scale-out default).
	Topology string
	// Leaves / Spines size a leaf–spine fabric (0 keeps the topology
	// defaults: 2 leaves, 2 spines).
	Leaves, Spines int

	// Senders is the sending-host count (0 = 32). Receivers defaults to
	// one per 16 senders (min 2, so cross-rack fan-in actually fans);
	// Flows defaults to one per sender.
	Senders   int
	Receivers int
	Flows     int

	// Scheme selects the transport congestion control by public scheme
	// name ("" = dctcp). Lossless schemes (dcqcn) run on their native PFC
	// fabric with the pause watchdog armed, as in the evaluation harness.
	Scheme string

	// FluidHosts, when > 0, enables the hybrid fluid/packet tier with
	// that many virtual background hosts. FluidFlows sets the background
	// flow count (0 = 4 × FluidHosts); FluidPromotable gives that many
	// lead flows packet-level twins that promote under congestion.
	FluidHosts      int
	FluidFlows      int
	FluidPromotable int

	Seed int64
	// Shards partitions the run across parallel engine shards (0/1 =
	// classic serial engine). Requires a multi-switch topology.
	Shards int
	// Degree of host congestion at every receiver (default 2x).
	Degree float64
	// Warmup / Measure bound the run (defaults 2 ms / 8 ms — shorter
	// than the figure runners because the event population scales with
	// Senders).
	Warmup  sim.Time
	Measure sim.Time

	// DigestEvery is the digest-frame recording period (0 = 500 µs).
	DigestEvery sim.Time
	// VerifyReplay runs the config twice through RunVerified; a
	// divergence is returned as an error naming the most upstream
	// divergent component.
	VerifyReplay bool
}

func (c ScaleOutConfig) withDefaults() ScaleOutConfig {
	if c.Topology == "" {
		c.Topology = "leafspine"
	}
	if c.Scheme == "" {
		c.Scheme = "dctcp"
	}
	if c.Senders == 0 {
		c.Senders = 32
	}
	if c.Receivers == 0 {
		c.Receivers = max(2, c.Senders/16)
	}
	if c.Flows == 0 {
		c.Flows = c.Senders
	}
	if c.Seed == 0 {
		c.Seed = 42
	}
	if c.Degree == 0 {
		c.Degree = 2
	}
	if c.Warmup == 0 {
		c.Warmup = 2 * sim.Millisecond
	}
	if c.Measure == 0 {
		c.Measure = 8 * sim.Millisecond
	}
	if c.DigestEvery == 0 {
		c.DigestEvery = 500 * sim.Microsecond
	}
	return c
}

// ScaleOutResult summarizes one scale-out run.
type ScaleOutResult struct {
	Topology  string
	Switches  int
	Trunks    int
	Senders   int
	Receivers int
	Flows     int
	Scheme    string
	Seed      int64
	Shards    int

	// Fluid tier outputs (zero without FluidHosts): background flow
	// count, their aggregate goodput over the whole run, and how many
	// promote/demote transitions the run saw.
	FluidFlows       int
	FluidGoodputGbps float64
	Promotions       uint64
	Demotions        uint64

	// Aggregate NetApp-T goodput over the measurement window, and the
	// in-fabric congestion it produced.
	ThroughputGbps float64
	SwitchDrops    int64
	SwitchMarks    int64
	NetTimeouts    int64
	NetRetx        int64

	// MaxPending / HeapCap report the engine's peak pending-event count
	// against its reserved capacity — the Reserve-sizing audit. Sharded
	// runs report the maximum across shards. Events is the total events
	// processed (summed across shards).
	MaxPending int
	HeapCap    int
	Events     uint64

	// Digest is the combined final-state hash; ComponentDigests the
	// per-component breakdown; Frames the digest frames recorded;
	// Verified whether a second run reproduced every frame (false when
	// VerifyReplay is off).
	Digest           uint64
	ComponentDigests []snapshot.Digest
	Frames           int
	Verified         bool
}

// String renders the result as a one-line summary.
func (r ScaleOutResult) String() string {
	v := ""
	if r.Verified {
		v = ", replay verified"
	}
	shape := r.Topology
	if r.Shards > 1 {
		shape = fmt.Sprintf("%s x%d shards", r.Topology, r.Shards)
	}
	fl := ""
	if r.FluidFlows > 0 {
		fl = fmt.Sprintf("; fluid %d flows %.1f Gbps (%d promote, %d demote)",
			r.FluidFlows, r.FluidGoodputGbps, r.Promotions, r.Demotions)
	}
	return fmt.Sprintf(
		"%s %s (%d switches, %d trunks): %d senders -> %d receivers, %d flows: %.1f Gbps; switch drops=%d marks=%d rto=%d retx=%d%s; digest %#016x over %d frames%s",
		shape, r.Scheme, r.Switches, r.Trunks, r.Senders, r.Receivers, r.Flows,
		r.ThroughputGbps, r.SwitchDrops, r.SwitchMarks, r.NetTimeouts, r.NetRetx,
		fl, r.Digest, r.Frames, v)
}

// RunScaleOut executes one scale-out run (twice under VerifyReplay) and
// returns the aggregate metrics. The run is a deterministic function of
// cfg: same config, same digest timeline, frame for frame.
func RunScaleOut(cfg ScaleOutConfig) (ScaleOutResult, error) {
	cfg = cfg.withDefaults()
	res, div, err := RunVerified(cfg.VerifyReplay, func() (ScaleOutResult, snapshot.Recording, error) {
		return runScaleOut(cfg)
	})
	if err == nil && div != nil {
		err = fmt.Errorf("testbed: scale-out replay diverged: %s", div)
	}
	res.Verified = err == nil && cfg.VerifyReplay
	return res, err
}

// runScaleOut is one execution: build, load, record, measure.
func runScaleOut(cfg ScaleOutConfig) (ScaleOutResult, snapshot.Recording, error) {
	kind, err := fabric.ParseTopologyKind(cfg.Topology)
	if err != nil {
		return ScaleOutResult{}, snapshot.Recording{}, err
	}
	topo := fabric.Topology{Kind: kind, Leaves: cfg.Leaves, Spines: cfg.Spines}
	scheme, err := transport.SchemeByName(cfg.Scheme)
	if err != nil {
		return ScaleOutResult{}, snapshot.Recording{}, err
	}

	opts := DefaultConfig()
	opts.Seed = cfg.Seed
	opts.CC = scheme.Factory()
	if scheme.Lossless {
		// DCQCN runs on its native lossless fabric, watchdog armed, the
		// same pairing the evaluation harness uses.
		opts.Lossless = true
		opts.PauseWatchdog = 150 * sim.Microsecond
	}
	opts.HostCC = true
	opts.Degree = cfg.Degree
	opts.Topology = topo
	opts.Senders = cfg.Senders
	opts.Receivers = cfg.Receivers
	opts.Flows = cfg.Flows
	opts.Warmup = cfg.Warmup
	opts.Measure = cfg.Measure
	// Incast at scale recovers by RTO; the Linux 200 ms default would
	// park most flows for the entire measurement window.
	opts.MinRTO = sim.Millisecond
	opts.Shards = cfg.Shards
	if cfg.FluidHosts > 0 {
		opts.FluidBackground = &FluidBackground{
			Hosts:      cfg.FluidHosts,
			Flows:      cfg.FluidFlows,
			Promotable: cfg.FluidPromotable,
		}
	}
	if err := opts.Validate(); err != nil {
		return ScaleOutResult{}, snapshot.Recording{}, err
	}

	tb := New(opts)
	defer tb.Close()
	res := ScaleOutResult{
		Topology:  kind.String(),
		Switches:  topo.Switches(),
		Trunks:    len(tb.Trunks),
		Senders:   opts.Senders,
		Receivers: opts.Receivers,
		Flows:     opts.Flows,
		Scheme:    scheme.Name,
		Seed:      opts.Seed,
		Shards:    opts.Shards,
	}
	tb.StartNetAppT()
	rec := tb.Record(cfg.DigestEvery)

	m := tb.RunWindow()
	res.ThroughputGbps = m.ThroughputGbps
	res.NetTimeouts = m.NetTimeouts
	res.NetRetx = m.NetRetx
	res.SwitchDrops = tb.Fabric.Drops()
	res.SwitchMarks = tb.Fabric.Marks()
	res.MaxPending = tb.MaxPendingEvents()
	res.HeapCap = tb.EventHeapCap()
	res.Events = tb.Processed()
	if tb.FluidNet != nil {
		res.FluidFlows = tb.FluidNet.Flows()
		elapsed := tb.Now().Seconds()
		if elapsed > 0 {
			delivered := tb.FluidNet.DeliveredBytes()
			if tb.FluidTwins != nil {
				delivered += float64(tb.FluidTwins.DeliveredBytes())
			}
			res.FluidGoodputGbps = delivered * 8 / elapsed / 1e9
		}
		res.Promotions = tb.FluidNet.Promotions()
		res.Demotions = tb.FluidNet.Demotions()
	}

	for _, h := range tb.HCCs {
		h.Stop()
	}
	recording := rec.Stop()
	res.Frames = recording.Timeline.Len()
	res.ComponentDigests = recording.Final.Digests
	res.Digest = recording.Digest()
	return res, recording, nil
}
