package fabric

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// TopologyKind selects the fabric shape compiled by Build.
type TopologyKind int

const (
	// TopoStar is the paper's setup: every host on one switch.
	TopoStar TopologyKind = iota
	// TopoLeafSpine is a two-tier Clos: hosts attach to leaf switches,
	// leaves interconnect through spines over trunk links. Cross-rack
	// traffic picks its spine statically by destination host (ECMP-style
	// hashing, deterministic).
	TopoLeafSpine
	// TopoDumbbell is two switches joined by one trunk pair — the classic
	// shared-bottleneck CC evaluation shape.
	TopoDumbbell
)

// String returns the name accepted by ParseTopologyKind.
func (k TopologyKind) String() string {
	switch k {
	case TopoStar:
		return "star"
	case TopoLeafSpine:
		return "leafspine"
	case TopoDumbbell:
		return "dumbbell"
	}
	return fmt.Sprintf("TopologyKind(%d)", int(k))
}

// ParseTopologyKind parses a topology name ("star", "leafspine",
// "dumbbell").
func ParseTopologyKind(name string) (TopologyKind, error) {
	switch name {
	case "star", "":
		return TopoStar, nil
	case "leafspine", "leaf-spine":
		return TopoLeafSpine, nil
	case "dumbbell":
		return TopoDumbbell, nil
	}
	return 0, fmt.Errorf("fabric: unknown topology %q (want star, leafspine or dumbbell)", name)
}

// Topology describes a fabric to compile with Build. The zero value is
// the single-switch star.
type Topology struct {
	Kind TopologyKind

	// Leaves and Spines shape the leaf–spine fabric (ignored otherwise;
	// zero values default to 2 leaves × 2 spines).
	Leaves int
	Spines int

	// Switch parameterizes every switch. The zero value selects
	// DefaultSwitchConfig.
	Switch SwitchConfig

	// Trunk parameterizes the inter-switch links. The zero value inherits
	// the access-link config passed to Build.
	Trunk LinkConfig
}

// Star returns the single-switch topology (the default).
func Star() Topology { return Topology{Kind: TopoStar} }

// LeafSpine returns a two-tier Clos with the given shape (0 defaults to
// 2 leaves × 2 spines).
func LeafSpine(leaves, spines int) Topology {
	return Topology{Kind: TopoLeafSpine, Leaves: leaves, Spines: spines}
}

// Dumbbell returns the two-switch shared-bottleneck topology.
func Dumbbell() Topology { return Topology{Kind: TopoDumbbell} }

// Racks returns how many distinct host attachment points (HostPort.Rack
// values) the topology offers.
func (t Topology) Racks() int {
	switch t.Kind {
	case TopoLeafSpine:
		if t.Leaves == 0 {
			return 2
		}
		return t.Leaves
	case TopoDumbbell:
		return 2
	}
	return 1
}

// Switches returns how many switches Build will create.
func (t Topology) Switches() int {
	switch t.Kind {
	case TopoLeafSpine:
		return t.Racks() + t.spines()
	case TopoDumbbell:
		return 2
	}
	return 1
}

func (t Topology) spines() int {
	if t.Spines == 0 {
		return 2
	}
	return t.Spines
}

// String returns the topology's kind name.
func (t Topology) String() string { return t.Kind.String() }

// Validate reports the first invalid topology parameter. Zero values are
// not errors — Build fills defaults — so this catches only parameters no
// default can repair.
func (t Topology) Validate() error {
	switch t.Kind {
	case TopoStar, TopoLeafSpine, TopoDumbbell:
	default:
		return fmt.Errorf("fabric: unknown topology kind %d", int(t.Kind))
	}
	if t.Leaves < 0 || t.Spines < 0 {
		return fmt.Errorf("fabric: negative leaf–spine shape %dx%d", t.Leaves, t.Spines)
	}
	if t.Kind == TopoLeafSpine && t.Leaves == 1 {
		return fmt.Errorf("fabric: leaf–spine needs at least 2 leaves")
	}
	if t.Kind == TopoDumbbell && (t.Leaves != 0 || t.Spines != 0) {
		return fmt.Errorf("fabric: dumbbell shape is fixed at 2 switches; leaves/spines %dx%d must be zero",
			t.Leaves, t.Spines)
	}
	if t.Switch != (SwitchConfig{}) {
		if err := t.Switch.Validate(); err != nil {
			return err
		}
	}
	if t.Trunk != (LinkConfig{}) {
		if err := t.Trunk.Validate(); err != nil {
			return err
		}
	}
	return nil
}

// HostPort is one host's attachment to the fabric: its ID, the rack
// (leaf index) it lives in, and its wire-delivery function. Pause, when
// non-nil and the fabric is built with PFC enabled, receives the leaf
// switch's XOFF/XON toward this host (wire it to the host NIC's transmit
// pause).
type HostPort struct {
	ID      packet.HostID
	Rack    int
	Deliver func(*packet.Packet)
	Pause   func(bool)
}

// TrunkPort locates one directed trunk's transmitting port: the switch
// that owns the output port, the switch indices it connects (into
// Fabric.Switches), and a display name like "leaf0->spine1". Parallel to
// Fabric.Trunks.
type TrunkPort struct {
	Sw       *Switch
	Port     PortID
	From, To int
	Name     string
}

// hostPortRef locates the leaf output port facing one host.
type hostPortRef struct {
	sw   *Switch
	port PortID
}

// Fabric is a compiled topology: switches, per-host access links and
// inter-switch trunks, with forwarding tables installed.
type Fabric struct {
	Topo Topology
	// Switches in deterministic order: leaves (rack order) first, then
	// spines.
	Switches []*Switch
	// Access holds every host access link, up link before down link, in
	// host order — the layout testbed.Links has always had.
	Access []*Link
	// Trunks holds the inter-switch links: for leaf–spine, the
	// (leaf→spine, spine→leaf) pair for each leaf×spine in row-major
	// order; for the dumbbell, the left→right and right→left pair.
	Trunks []*Link
	// TrunkPorts locates the transmitting switch port of each trunk,
	// index-parallel to Trunks (pause injection and instrumentation).
	TrunkPorts []TrunkPort

	// SwitchShards, AccessShards and TrunkShards record which shard owns
	// each switch, access link and trunk link (index-parallel to Switches,
	// Access and Trunks; all zero on a one-shard placement). A component
	// must be mutated — fault injection included — only from its owning
	// shard.
	SwitchShards []int
	AccessShards []int
	TrunkShards  []int

	sends       []func(*packet.Packet)
	hostPorts   []hostPortRef
	accessDelay sim.Time
}

// HostSend returns the transmit function of host i (index into the hosts
// slice given to Build) — wire this into host.SetOutput.
func (f *Fabric) HostSend(i int) func(*packet.Packet) { return f.sends[i] }

// HostPauser returns a pause-assertion function for host i's leaf port:
// calling it models the host NIC emitting a PFC pause frame upstream,
// which (after the access link's flight time) gates the leaf's queue
// toward that host. Wire it into the NIC's rx-buffer pause hook. Only
// meaningful on a PFC-enabled fabric.
func (f *Fabric) HostPauser(i int) func(bool) {
	ref := f.hostPorts[i]
	delay := f.accessDelay
	return func(on bool) { ref.sw.PausePortFrom(ref.port, delay, on) }
}

// Drops sums drop-tail losses across every switch.
func (f *Fabric) Drops() int64 {
	var n int64
	for _, s := range f.Switches {
		n += s.Drops.Total()
	}
	return n
}

// Marks sums CE marks across every switch.
func (f *Fabric) Marks() int64 {
	var n int64
	for _, s := range f.Switches {
		n += s.Marks.Total()
	}
	return n
}

// SwitchName returns the display name of switch i: "switch" for the
// single-switch star (matching the pre-topology testbed), otherwise
// "leafN"/"spineN" ("swN" for the dumbbell).
func (f *Fabric) SwitchName(i int) string {
	switch f.Topo.Kind {
	case TopoLeafSpine:
		if i < f.Topo.Racks() {
			return fmt.Sprintf("leaf%d", i)
		}
		return fmt.Sprintf("spine%d", i-f.Topo.Racks())
	case TopoDumbbell:
		return fmt.Sprintf("sw%d", i)
	}
	return "switch"
}

// Placement says where a fabric's components run. Switch i lives on
// shard SwitchShard(i), and the hosts behind a leaf on the leaf's shard,
// so access links never cross shards; only trunks can.
type Placement struct {
	// Engines and Pools hold each shard's engine and packet pool, one per
	// shard. Every link recycles into its own shard's pool (a pool is only
	// ever touched by its shard; Pool.Put adopts packets allocated
	// elsewhere).
	Engines []*sim.Engine
	Pools   []*packet.Pool
	// SwitchShard maps a switch index (leaves first, then spines) to the
	// shard that owns it.
	SwitchShard func(i int) int
	// Group synchronizes the shards (nil on one shard). A trunk whose
	// endpoints land on different shards becomes a Group boundary
	// exporting its propagation delay as lookahead.
	Group *sim.ShardGroup
}

// check reports a placement that cannot host the topology.
func (p Placement) check(topo Topology, tr *telemetry.Tracer) error {
	n := len(p.Engines)
	if len(p.Pools) != n {
		return fmt.Errorf("fabric: %d pools for %d shards", len(p.Pools), n)
	}
	for i := 0; i < topo.Switches(); i++ {
		if s := p.SwitchShard(i); s < 0 || s >= n {
			return fmt.Errorf("fabric: switch %d assigned to shard %d outside [0,%d)", i, s, n)
		}
	}
	if n == 1 {
		return nil
	}
	// The star has a single switch and therefore no boundaries to cut; it
	// is rejected rather than silently run serialized.
	if topo.Kind == TopoStar {
		return fmt.Errorf("fabric: sharded build needs a multi-switch topology, not star")
	}
	if tr != nil {
		return fmt.Errorf("fabric: a tracer is one shared timeline and cannot span %d shards", n)
	}
	if p.Group == nil || p.Group.Shards() != n {
		return fmt.Errorf("fabric: %d shards need a shard group of the same size", n)
	}
	return nil
}

// Build compiles the topology onto the placement: switches are created
// leaves-first, hosts attach in slice order (up link, then down link,
// then switch port — the exact construction order of the pre-topology
// star, so star digests are unchanged), trunks attach after the hosts,
// and static shortest-path routes are installed last. The construction
// makes no engine calls beyond handler registration, so it is
// digest-deterministic, and a one-shard placement runs on its plain
// engine with no shard group at all. PFC pause propagation across a
// cross-shard trunk rides its own control boundary with the trunk's
// delay, so the pause frame's flight time and the lookahead are both
// preserved. The tracer (nil disables it) requires a single shard.
func Build(p Placement, topo Topology, access LinkConfig, hosts []HostPort, tr *telemetry.Tracer) (*Fabric, error) {
	if err := topo.Validate(); err != nil {
		return nil, err
	}
	if err := access.Validate(); err != nil {
		return nil, err
	}
	if err := p.check(topo, tr); err != nil {
		return nil, err
	}
	swcfg := topo.Switch
	if swcfg == (SwitchConfig{}) {
		swcfg = DefaultSwitchConfig()
	}
	trunkCfg := topo.Trunk
	if trunkCfg == (LinkConfig{}) {
		trunkCfg = access
	}
	racks := topo.Racks()
	seen := make(map[packet.HostID]bool, len(hosts))
	for i, h := range hosts {
		if h.Rack < 0 || h.Rack >= racks {
			return nil, fmt.Errorf("fabric: host %d rack %d outside [0,%d)", h.ID, h.Rack, racks)
		}
		if h.ID == 0 {
			return nil, fmt.Errorf("fabric: host at index %d has zero ID", i)
		}
		if seen[h.ID] {
			return nil, fmt.Errorf("fabric: duplicate host ID %d", h.ID)
		}
		seen[h.ID] = true
	}
	pfcOn := swcfg.PFC.Enabled
	if pfcOn {
		// A "lossless" fabric with too little headroom silently loses
		// packets after XOFF — reject the configuration rather than let
		// the contradiction surface as unexplained drops.
		const maxFrame = 9216 // jumbo-frame allowance
		for _, lc := range []struct {
			name string
			cfg  LinkConfig
		}{{"access", access}, {"trunk", trunkCfg}} {
			if need := headroomFor(lc.cfg, maxFrame); swcfg.PFC.HeadroomBytes < need {
				return nil, fmt.Errorf("fabric: PFC HeadroomBytes %d below the %d needed for lossless %s links (2xBDP + frames)",
					swcfg.PFC.HeadroomBytes, need, lc.name)
			}
		}
	}

	f := &Fabric{Topo: topo, sends: make([]func(*packet.Packet), len(hosts)), accessDelay: access.Delay}
	for i := 0; i < topo.Switches(); i++ {
		shard := p.SwitchShard(i)
		sw := NewSwitch(p.Engines[shard], swcfg)
		if tr != nil {
			sw.SetTracer(tr, f.SwitchName(i))
		}
		f.Switches = append(f.Switches, sw)
		f.SwitchShards = append(f.SwitchShards, shard)
	}
	leaves := f.Switches[:racks]

	// Host access links, in host order. With PFC on, the up link's
	// delivery is ingress-tracked so the leaf can XOFF the host NIC, and
	// the leaf's port toward the host is recorded so the NIC can pause
	// the leaf in turn (HostPauser).
	for i, h := range hosts {
		sw := leaves[h.Rack]
		shard := f.SwitchShards[h.Rack]
		e, pool := p.Engines[shard], p.Pools[shard]
		var up *Link
		if pfcOn {
			pauseNIC := h.Pause
			if pauseNIC == nil {
				pauseNIC = func(bool) {}
			}
			ig := sw.NewIngress(fmt.Sprintf("host%d", h.ID), access.Delay, pauseNIC)
			up = NewLink(e, access, func(pkt *packet.Packet) { sw.InjectFrom(ig, pkt) })
		} else {
			up = NewLink(e, access, sw.Inject)
		}
		up.SetPool(pool)
		down := NewLink(e, access, h.Deliver)
		down.SetPool(pool)
		port := sw.AttachPort(h.ID, down)
		f.hostPorts = append(f.hostPorts, hostPortRef{sw: sw, port: port})
		f.sends[i] = up.Send
		f.Access = append(f.Access, up, down)
		f.AccessShards = append(f.AccessShards, shard, shard)
	}

	// trunk wires one directed inter-switch link from switch a to switch
	// b. The link lives on a's shard; when the endpoints straddle shards,
	// delivery crosses a boundary. With PFC on, b tracks the trunk as an
	// ingress whose XOFF pauses a's port — pause propagation across tiers,
	// and the loop a pfc-cycle verdict names.
	trunk := func(a, b int) PortID {
		aSw, bSw := f.Switches[a], f.Switches[b]
		sa, sb := f.SwitchShards[a], f.SwitchShards[b]
		name := f.SwitchName(a)
		var ig *Ingress
		var ln *Link
		if pfcOn {
			ln = NewLink(p.Engines[sa], trunkCfg, func(pkt *packet.Packet) { bSw.InjectFrom(ig, pkt) })
		} else {
			ln = NewLink(p.Engines[sa], trunkCfg, bSw.Inject)
		}
		ln.SetPool(p.Pools[sa])
		port := aSw.AttachTrunk(ln)
		if sa != sb {
			ln.BindBoundary(p.Group, sa, sb)
		}
		if pfcOn {
			if sa == sb {
				ig = bSw.NewIngress(name, trunkCfg.Delay,
					func(on bool) { aSw.PortPause(port, on) })
			} else {
				// The pause frame crosses back over its own boundary with the
				// trunk's flight delay (registered as lookahead like any other
				// boundary); the ingress itself asserts with zero local delay.
				pb := p.Group.Connect(sb, sa, trunkCfg.Delay, func(a0, _ uint64, _ any) {
					aSw.PortPause(port, a0 != 0)
				})
				be := p.Engines[sb]
				ig = bSw.NewIngress(name, 0, func(on bool) {
					v := uint64(0)
					if on {
						v = 1
					}
					pb.Send(be.Now()+trunkCfg.Delay, v, 0, nil)
				})
			}
		}
		f.Trunks = append(f.Trunks, ln)
		f.TrunkShards = append(f.TrunkShards, sa)
		f.TrunkPorts = append(f.TrunkPorts, TrunkPort{Sw: aSw, Port: port, From: a, To: b,
			Name: name + "->" + f.SwitchName(b)})
		return port
	}

	// Trunks and routes.
	switch topo.Kind {
	case TopoLeafSpine:
		spines := f.Switches[racks:]
		// leafUp[l][s] is leaf l's port toward spine s; spineDown[s][l]
		// is spine s's port toward leaf l.
		leafUp := make([][]PortID, racks)
		spineDown := make([][]PortID, len(spines))
		for s := range spineDown {
			spineDown[s] = make([]PortID, racks)
		}
		for l := range leaves {
			leafUp[l] = make([]PortID, len(spines))
			for s := range spines {
				leafUp[l][s] = trunk(l, racks+s)
				spineDown[s][l] = trunk(racks+s, l)
			}
		}
		for _, h := range hosts {
			// Deterministic ECMP: all traffic to one destination takes
			// one spine, chosen by destination ID.
			spine := int(h.ID) % len(spines)
			for s := range spines {
				spines[s].SetRoute(h.ID, spineDown[s][h.Rack])
			}
			for l := range leaves {
				if l != h.Rack {
					leaves[l].SetRoute(h.ID, leafUp[l][spine])
				}
			}
		}
	case TopoDumbbell:
		left, right := f.Switches[0], f.Switches[1]
		lrPort := trunk(0, 1)
		rlPort := trunk(1, 0)
		for _, h := range hosts {
			if h.Rack == 0 {
				right.SetRoute(h.ID, rlPort)
			} else {
				left.SetRoute(h.ID, lrPort)
			}
		}
	}
	return f, nil
}
