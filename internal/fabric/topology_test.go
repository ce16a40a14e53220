package fabric

import (
	"math"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TestSwitchConfigValidate: the validation gaps closed in the bugfix
// sweep — a zero/negative ECN threshold CE-marks every ECT packet
// (DCTCP collapses to one-segment windows) and a threshold at or above
// the buffer can never mark before drop-tail loss. Both used to be
// silently accepted.
func TestSwitchConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     SwitchConfig
		wantErr string // "" = valid
	}{
		{"default", DefaultSwitchConfig(), ""},
		{"zero-buffer", SwitchConfig{ECNThresholdBytes: 1}, "PortBufferBytes"},
		{"negative-buffer", SwitchConfig{PortBufferBytes: -1, ECNThresholdBytes: 1}, "PortBufferBytes"},
		{"zero-ecn", SwitchConfig{PortBufferBytes: 1 << 20}, "ECNThresholdBytes"},
		{"negative-ecn", SwitchConfig{PortBufferBytes: 1 << 20, ECNThresholdBytes: -5}, "ECNThresholdBytes"},
		{"ecn-at-buffer", SwitchConfig{PortBufferBytes: 1 << 20, ECNThresholdBytes: 1 << 20}, "below PortBufferBytes"},
		{"ecn-above-buffer", SwitchConfig{PortBufferBytes: 1 << 20, ECNThresholdBytes: 2 << 20}, "below PortBufferBytes"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestNewSwitchRejectsInvalidConfig: constructing a switch with a
// misconfiguration must fail loudly, not mark-every-packet quietly.
func TestNewSwitchRejectsInvalidConfig(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("NewSwitch accepted a zero ECN threshold")
		}
	}()
	NewSwitch(sim.NewEngine(1), SwitchConfig{PortBufferBytes: 1 << 20})
}

// TestLinkConfigValidate: zero/negative rates and out-of-range loss
// probabilities are rejected before they become divide-by-zero
// serialization times or always-lost links.
func TestLinkConfigValidate(t *testing.T) {
	cases := []struct {
		name    string
		cfg     LinkConfig
		wantErr string
	}{
		{"default", DefaultLinkConfig(), ""},
		{"zero-rate", LinkConfig{}, "Rate"},
		{"negative-rate", LinkConfig{Rate: -1}, "Rate"},
		{"negative-delay", LinkConfig{Rate: sim.Gbps(100), Delay: -1}, "Delay"},
		{"loss-below", LinkConfig{Rate: sim.Gbps(100), LossProb: -0.1}, "LossProb"},
		{"loss-above", LinkConfig{Rate: sim.Gbps(100), LossProb: 1.1}, "LossProb"},
		{"loss-nan", LinkConfig{Rate: sim.Gbps(100), LossProb: math.NaN()}, "LossProb"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.cfg.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid config rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestTopologyValidate covers the topology-level checks: unknown kinds,
// nonsensical shapes, and invalid embedded switch/trunk configs.
func TestTopologyValidate(t *testing.T) {
	cases := []struct {
		name    string
		topo    Topology
		wantErr string
	}{
		{"zero-is-star", Topology{}, ""},
		{"star", Star(), ""},
		{"leafspine-default", LeafSpine(0, 0), ""},
		{"leafspine-4x3", LeafSpine(4, 3), ""},
		{"dumbbell", Dumbbell(), ""},
		{"unknown-kind", Topology{Kind: TopologyKind(99)}, "unknown topology kind"},
		{"negative-leaves", Topology{Kind: TopoLeafSpine, Leaves: -2}, "negative"},
		{"negative-spines", Topology{Kind: TopoLeafSpine, Spines: -1}, "negative"},
		{"one-leaf", LeafSpine(1, 2), "at least 2 leaves"},
		{"bad-switch", Topology{Kind: TopoStar, Switch: SwitchConfig{PortBufferBytes: 1024, ECNThresholdBytes: 4096}}, "below PortBufferBytes"},
		{"bad-trunk", Topology{Kind: TopoDumbbell, Trunk: LinkConfig{Rate: -1}}, "Rate"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			err := c.topo.Validate()
			if c.wantErr == "" {
				if err != nil {
					t.Fatalf("valid topology rejected: %v", err)
				}
				return
			}
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

func TestParseTopologyKind(t *testing.T) {
	good := map[string]TopologyKind{
		"":           TopoStar,
		"star":       TopoStar,
		"leafspine":  TopoLeafSpine,
		"leaf-spine": TopoLeafSpine,
		"dumbbell":   TopoDumbbell,
	}
	for name, want := range good {
		k, err := ParseTopologyKind(name)
		if err != nil || k != want {
			t.Errorf("ParseTopologyKind(%q) = %v, %v; want %v", name, k, err, want)
		}
		if name != "" && k.String() != strings.ReplaceAll(name, "-", "") {
			t.Errorf("String() round-trip: %q -> %q", name, k.String())
		}
	}
	if _, err := ParseTopologyKind("torus"); err == nil {
		t.Error("unknown topology name accepted")
	}
}

// serial places a whole fabric on one engine (nil pool: links allocate).
func serial(e *sim.Engine) Placement {
	return Placement{Engines: []*sim.Engine{e}, Pools: []*packet.Pool{nil}, SwitchShard: func(int) int { return 0 }}
}

// sharded places switch i on shard i%n of a fresh n-shard group.
func sharded(n int) Placement {
	g := sim.NewShardGroup(1, n)
	p := Placement{Group: g, SwitchShard: func(i int) int { return i % n }}
	for i := 0; i < n; i++ {
		p.Engines = append(p.Engines, g.Shard(i))
		p.Pools = append(p.Pools, packet.NewPool(0))
	}
	return p
}

// TestBuildRejectsBadHosts: rack bounds, zero host IDs and placements
// that cannot host the topology fail at build time with the offender
// named.
func TestBuildRejectsBadHosts(t *testing.T) {
	sink := func(p *packet.Packet) {}
	racks := []HostPort{{ID: 1, Rack: 0, Deliver: sink}, {ID: 2, Rack: 1, Deliver: sink}}
	onePool := sharded(2)
	onePool.Pools = onePool.Pools[:1]
	offShard := sharded(2)
	offShard.SwitchShard = func(i int) int { return i + 1 }
	noGroup := sharded(2)
	noGroup.Group = nil
	cases := []struct {
		name    string
		place   Placement
		topo    Topology
		hosts   []HostPort
		tr      *telemetry.Tracer
		wantErr string
	}{
		{"rack-beyond-star", serial(sim.NewEngine(1)), Star(), []HostPort{{ID: 1, Rack: 1, Deliver: sink}}, nil, "rack 1"},
		{"zero-host-id", serial(sim.NewEngine(1)), Dumbbell(), []HostPort{{ID: 0, Rack: 0, Deliver: sink}}, nil, "zero ID"},
		{"unknown-kind", serial(sim.NewEngine(1)), Topology{Kind: TopologyKind(7)}, nil, nil, "unknown topology kind"},
		{"pools-per-shard", onePool, LeafSpine(2, 2), racks, nil, "1 pools for 2 shards"},
		{"switch-off-shard", offShard, LeafSpine(2, 2), racks, nil, "switch 1 assigned to shard 2 outside [0,2)"},
		{"star-split", sharded(2), Star(), racks[:1], nil, "not star"},
		{"tracer-split", sharded(2), LeafSpine(2, 2), racks, telemetry.NewTracer(), "tracer"},
		{"no-group", noGroup, Dumbbell(), racks, nil, "shard group"},
	}
	for _, c := range cases {
		t.Run(c.name, func(t *testing.T) {
			_, err := Build(c.place, c.topo, DefaultLinkConfig(), c.hosts, c.tr)
			if err == nil || !strings.Contains(err.Error(), c.wantErr) {
				t.Fatalf("err = %v, want mention of %q", err, c.wantErr)
			}
		})
	}
}

// TestBuildShardMaps: the shard maps are filled on every placement —
// all zero on one shard, and on two shards every access link shares its
// leaf's shard and every trunk lives on its transmitting switch's shard.
func TestBuildShardMaps(t *testing.T) {
	sink := func(p *packet.Packet) {}
	hosts := []HostPort{{ID: 1, Rack: 0, Deliver: sink}, {ID: 2, Rack: 1, Deliver: sink}}
	for _, n := range []int{1, 2} {
		p := sharded(n)
		if n == 1 {
			p = serial(sim.NewEngine(1))
		}
		fb, err := Build(p, LeafSpine(2, 2), DefaultLinkConfig(), hosts, nil)
		if err != nil {
			t.Fatal(err)
		}
		if len(fb.SwitchShards) != 4 || len(fb.AccessShards) != 4 || len(fb.TrunkShards) != 8 {
			t.Fatalf("%d shards: maps sized %d/%d/%d, want 4/4/8", n,
				len(fb.SwitchShards), len(fb.AccessShards), len(fb.TrunkShards))
		}
		for i, s := range fb.SwitchShards {
			if s != i%n {
				t.Errorf("%d shards: switch %d on shard %d, want %d", n, i, s, i%n)
			}
		}
		for i, s := range fb.AccessShards {
			if want := fb.SwitchShards[hosts[i/2].Rack]; s != want {
				t.Errorf("%d shards: access link %d on shard %d, want its leaf's %d", n, i, s, want)
			}
		}
		for i, s := range fb.TrunkShards {
			if want := fb.SwitchShards[fb.TrunkPorts[i].From]; s != want {
				t.Errorf("%d shards: trunk %d on shard %d, want its sender's %d", n, i, s, want)
			}
		}
	}
}

// TestLeafSpineRouting: packets between hosts in different racks must
// traverse exactly one spine (two trunk hops), intra-rack packets none,
// and every spine must carry traffic for some destination (the
// deterministic ECMP spread).
func TestLeafSpineRouting(t *testing.T) {
	e := sim.NewEngine(1)
	lcfg := DefaultLinkConfig()
	got := make(map[packet.HostID]int)
	mkHost := func(id packet.HostID, rack int) HostPort {
		return HostPort{ID: id, Rack: rack, Deliver: func(p *packet.Packet) { got[id]++ }}
	}
	hosts := []HostPort{
		mkHost(1, 0), mkHost(2, 0),
		mkHost(3, 1), mkHost(4, 1),
	}
	fb, err := Build(serial(e), LeafSpine(2, 2), lcfg, hosts, nil)
	if err != nil {
		t.Fatal(err)
	}

	send := func(from int, to packet.HostID) {
		fb.HostSend(from)(dataPkt(to, 1000, packet.NotECT))
		e.Run()
	}

	trunkBytes := func() int64 {
		var n int64
		for _, tr := range fb.Trunks {
			n += tr.Bytes.Total()
		}
		return n
	}

	// Intra-rack: no trunk traffic.
	send(0, 2)
	if got[2] != 1 {
		t.Fatalf("intra-rack packet not delivered (got %v)", got)
	}
	if trunkBytes() != 0 {
		t.Fatalf("intra-rack packet crossed a trunk")
	}

	// Cross-rack: exactly two trunk hops (leaf->spine, spine->leaf).
	before := trunkBytes()
	send(0, 3)
	if got[3] != 1 {
		t.Fatalf("cross-rack packet not delivered (got %v)", got)
	}
	if trunkBytes() == before {
		t.Fatalf("cross-rack packet avoided the trunks")
	}

	// ECMP spread: destinations 3 and 4 hash to different spines.
	send(1, 4)
	if got[4] != 1 {
		t.Fatalf("second cross-rack packet not delivered (got %v)", got)
	}
	used := 0
	for _, tr := range fb.Trunks {
		if tr.Bytes.Total() > 0 {
			used++
		}
	}
	// Host 3 (ID 3) picks spine 1, host 4 (ID 4) picks spine 0: four
	// distinct trunks carried traffic (two per spine path).
	if used < 4 {
		t.Fatalf("ECMP did not spread across spines: %d trunks used", used)
	}
}

// TestInjectUnknownHostPanics: a packet for a host with no route is a
// wiring bug, not a droppable event.
func TestInjectUnknownHostPanics(t *testing.T) {
	e := sim.NewEngine(1)
	fb, err := Build(serial(e), Star(), DefaultLinkConfig(),
		[]HostPort{{ID: 1, Rack: 0, Deliver: func(*packet.Packet) {}}}, nil)
	if err != nil {
		t.Fatal(err)
	}
	defer func() {
		if recover() == nil {
			t.Fatal("Inject for an unknown host did not panic")
		}
	}()
	fb.Switches[0].Inject(dataPkt(99, 100, packet.NotECT))
}
