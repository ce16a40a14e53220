// Package packet defines the packet model shared by the NIC, fabric,
// transport and hostCC receive hook. Simulated packets carry structured
// header fields; payload bytes are never materialized.
package packet

import (
	"fmt"

	"repro/internal/sim"
)

// HostID identifies a host (an endpoint attached to the fabric).
type HostID uint16

// ECN is the two-bit Explicit Congestion Notification field from the IP
// header (RFC 3168). hostCC's host-local response marks CE on packets it
// delivers to the transport layer, exactly as a congested switch would.
type ECN uint8

// ECN codepoints.
const (
	NotECT ECN = 0 // transport is not ECN-capable
	ECT1   ECN = 1
	ECT0   ECN = 2 // ECN-capable transport (set by DCTCP senders)
	CE     ECN = 3 // congestion experienced
)

func (e ECN) String() string {
	switch e {
	case NotECT:
		return "NotECT"
	case ECT0:
		return "ECT(0)"
	case ECT1:
		return "ECT(1)"
	case CE:
		return "CE"
	}
	return fmt.Sprintf("ECN(%d)", uint8(e))
}

// Flags are transport header flags.
type Flags uint16

// Transport flag bits.
const (
	FlagSYN Flags = 1 << iota
	FlagACK
	FlagFIN
	FlagECE // ECN-echo: receiver reflects CE back to the sender
	FlagCWR // congestion window reduced
	FlagPSH
	// FlagCNP marks a Congestion Notification Packet (RoCEv2/DCQCN): the
	// receiver NIC's hardware echo of a CE mark, consumed by the sender's
	// rate-based congestion control without touching the byte stream.
	FlagCNP
)

func (f Flags) Has(bit Flags) bool { return f&bit != 0 }

func (f Flags) String() string {
	s := ""
	for _, fb := range []struct {
		bit  Flags
		name string
	}{
		{FlagSYN, "SYN"}, {FlagACK, "ACK"}, {FlagFIN, "FIN"},
		{FlagECE, "ECE"}, {FlagCWR, "CWR"}, {FlagPSH, "PSH"},
		{FlagCNP, "CNP"},
	} {
		if f.Has(fb.bit) {
			if s != "" {
				s += "|"
			}
			s += fb.name
		}
	}
	if s == "" {
		return "-"
	}
	return s
}

// FlowID is the connection 4-tuple. It is comparable and used as a map key
// by hosts and switches for demultiplexing (the gopacket Flow/Endpoint
// idiom, reduced to what the simulation needs).
type FlowID struct {
	Src, Dst         HostID
	SrcPort, DstPort uint16
}

// Reverse returns the flow in the opposite direction (for ACKs).
func (f FlowID) Reverse() FlowID {
	return FlowID{Src: f.Dst, Dst: f.Src, SrcPort: f.DstPort, DstPort: f.SrcPort}
}

func (f FlowID) String() string {
	return fmt.Sprintf("%d:%d>%d:%d", f.Src, f.SrcPort, f.Dst, f.DstPort)
}

// HeaderLen is the simulated header overhead per packet: Ethernet (18,
// including FCS) + IPv4 (20) + TCP with timestamps (32).
const HeaderLen = 70

// SackBlock reports one received out-of-order byte range [Lo, Hi).
type SackBlock struct{ Lo, Hi uint64 }

// MaxSackBlocks is the most SACK blocks carried per ACK (as in TCP with
// timestamps).
const MaxSackBlocks = 3

// Packet is one simulated datagram. Payload content is not materialized;
// PayloadLen carries its size. Sequence numbers are byte offsets, as in TCP.
type Packet struct {
	Flow  FlowID
	Seq   uint64 // first payload byte carried (data segments)
	Ack   uint64 // cumulative ACK (when FlagACK)
	Flags Flags
	ECN   ECN

	// SACK carries selective acknowledgment ranges on ACKs.
	SACK []SackBlock

	PayloadLen int

	// Timestamps for tracing and delay-based congestion control.
	SentAt sim.Time // transport send time at the sender
	EchoTS sim.Time // on ACKs: SentAt of the newest segment being acked

	// MarkedByHost records that CE was applied by the hostCC receive hook
	// rather than by a switch; used only for accounting/ablation figures.
	MarkedByHost bool

	// In-band network telemetry (INT), the HPCC feedback channel.
	// Switches stamp data packets in INTUtil/INTHops as they forward
	// them; receivers echo the maximum observed since the last ACK in
	// INTEchoUtil/INTEchoHops. Separate stamp and echo fields keep
	// reverse-path switches from overwriting the echo on ACKs. Hosts
	// never stamp — host-internal congestion is invisible to INT.
	INTUtil     float64 // max per-hop utilization stamped so far (data path)
	INTHops     uint8   // hops that stamped this packet (data path)
	INTEchoUtil float64 // on ACKs: max stamped utilization being echoed
	INTEchoHops uint8   // on ACKs: hop count behind the echo (0 = none)

	// poolState tracks the packet's lifecycle for double-release
	// detection; see Pool. poolDebug adds release provenance in
	// -race/-tags packetdebug builds and is empty otherwise.
	poolState uint8
	poolDebug
}

// WireLen is the size of the packet on the wire in bytes.
func (p *Packet) WireLen() int { return HeaderLen + p.PayloadLen }

// IsData reports whether the packet carries payload bytes.
func (p *Packet) IsData() bool { return p.PayloadLen > 0 }

// End returns the sequence number just past the carried payload.
func (p *Packet) End() uint64 { return p.Seq + uint64(p.PayloadLen) }

func (p *Packet) String() string {
	return fmt.Sprintf("%v seq=%d ack=%d len=%d %v %v",
		p.Flow, p.Seq, p.Ack, p.PayloadLen, p.Flags, p.ECN)
}
