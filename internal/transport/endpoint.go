package transport

import (
	"fmt"

	"repro/internal/packet"
	"repro/internal/sim"
	"repro/internal/telemetry"
)

// Endpoint is the per-host transport layer: it demultiplexes inbound
// packets to connections and creates receiver-side connections for
// listening ports (no handshake is modeled; connections are implicitly
// established, which is sufficient for the evaluation workloads).
type Endpoint struct {
	e    *sim.Engine
	id   packet.HostID
	net  Network
	cfg  Config
	cons map[packet.FlowID]*Conn
	lis  map[uint16]func(*Conn)

	nextPort uint16

	// StrayPackets counts packets with no connection or listener.
	StrayPackets int64
}

// NewEndpoint creates the transport layer for host id.
func NewEndpoint(e *sim.Engine, id packet.HostID, net Network, cfg Config) *Endpoint {
	if net == nil {
		panic("transport: nil network")
	}
	return &Endpoint{
		e:        e,
		id:       id,
		net:      net,
		cfg:      cfg,
		cons:     make(map[packet.FlowID]*Conn),
		lis:      make(map[uint16]func(*Conn)),
		nextPort: 10000,
	}
}

// Config returns the endpoint's connection configuration.
func (ep *Endpoint) Config() Config { return ep.cfg }

// Dial creates a connection to dst:port from an ephemeral source port.
func (ep *Endpoint) Dial(dst packet.HostID, port uint16) *Conn {
	ep.nextPort++
	return ep.DialFrom(ep.nextPort, dst, port)
}

// DialFrom creates a connection with an explicit source port.
func (ep *Endpoint) DialFrom(srcPort uint16, dst packet.HostID, dstPort uint16) *Conn {
	flow := packet.FlowID{Src: ep.id, Dst: dst, SrcPort: srcPort, DstPort: dstPort}
	if _, dup := ep.cons[flow]; dup {
		panic(fmt.Sprintf("transport: duplicate connection %v", flow))
	}
	c := newConn(ep.e, ep.net, flow, ep.cfg)
	ep.cons[flow] = c
	return c
}

// Listen accepts inbound flows on port; accept is invoked once per new
// flow with the receiver-side connection.
func (ep *Endpoint) Listen(port uint16, accept func(*Conn)) {
	if _, dup := ep.lis[port]; dup {
		panic(fmt.Sprintf("transport: duplicate listener on port %d", port))
	}
	ep.lis[port] = accept
}

// Receive demultiplexes one packet (called from the host's receive path,
// after hooks such as hostCC's ECN marker have run).
func (ep *Endpoint) Receive(p *packet.Packet) {
	// A packet addressed flow A->B is processed by B's connection whose
	// flow identifier is B->A.
	key := p.Flow.Reverse()
	if c, ok := ep.cons[key]; ok {
		c.Receive(p)
		return
	}
	if accept, ok := ep.lis[p.Flow.DstPort]; ok && p.IsData() {
		c := newConn(ep.e, ep.net, key, ep.cfg)
		ep.cons[key] = c
		accept(c)
		c.Receive(p)
		return
	}
	ep.StrayPackets++
}

// Conns returns all connections in sorted flow order (diagnostics).
// The stable order keeps any sim-visible use — iterating connections to
// schedule work or fold non-commutative state — deterministic despite
// the map-backed connection table.
func (ep *Endpoint) Conns() []*Conn {
	out := make([]*Conn, 0, len(ep.cons))
	for _, f := range ep.sortedFlows() {
		out = append(out, ep.cons[f])
	}
	return out
}

// RegisterInstruments registers endpoint-wide transport metrics under
// prefix, aggregated over all connections at read time.
func (ep *Endpoint) RegisterInstruments(reg *telemetry.Registry, prefix string) {
	sum := func(read func(*Conn) int64) func() float64 {
		return func() float64 {
			var t int64
			for _, c := range ep.cons {
				t += read(c)
			}
			return float64(t)
		}
	}
	reg.Counter(prefix+"/transport/retransmits", "pkts", "retransmitted packets",
		sum(func(c *Conn) int64 { return c.Retransmits.Total() }))
	reg.Counter(prefix+"/transport/timeouts", "events", "retransmission timeouts fired",
		sum(func(c *Conn) int64 { return c.Timeouts.Total() }))
	reg.Counter(prefix+"/transport/marked-acks", "acks", "ACKs carrying ECN-echo",
		sum(func(c *Conn) int64 { return c.MarkedAcks.Total() }))
	reg.Counter(prefix+"/transport/acked-bytes", "bytes", "bytes cumulatively ACKed",
		sum(func(c *Conn) int64 { return c.AckedBytes.Total() }))
	reg.Counter(prefix+"/transport/delivered-bytes", "bytes", "payload bytes delivered in order",
		sum(func(c *Conn) int64 { return c.DeliveredData.Total() }))
}
