package packet

import (
	"strings"
	"testing"
)

func TestFlowReverse(t *testing.T) {
	f := FlowID{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20}
	r := f.Reverse()
	want := FlowID{Src: 2, Dst: 1, SrcPort: 20, DstPort: 10}
	if r != want {
		t.Fatalf("Reverse = %v, want %v", r, want)
	}
	if f.Reverse().Reverse() != f {
		t.Fatal("double reverse is not identity")
	}
}

func TestPacketHelpers(t *testing.T) {
	p := &Packet{Seq: 100, PayloadLen: 4026}
	if p.End() != 4126 {
		t.Fatalf("End = %d", p.End())
	}
	if !p.IsData() {
		t.Fatal("data packet reported as non-data")
	}
	if p.WireLen() != 4026+HeaderLen {
		t.Fatalf("WireLen = %d", p.WireLen())
	}
	ack := &Packet{Flags: FlagACK}
	if ack.IsData() {
		t.Fatal("pure ACK reported as data")
	}
}

func TestStringFormats(t *testing.T) {
	if got := CE.String(); got != "CE" {
		t.Errorf("CE.String() = %q", got)
	}
	if got := ECN(7).String(); !strings.Contains(got, "7") {
		t.Errorf("unknown ECN: %q", got)
	}
	f := FlagSYN | FlagACK
	if got := f.String(); got != "SYN|ACK" {
		t.Errorf("flags = %q", got)
	}
	if got := Flags(0).String(); got != "-" {
		t.Errorf("no flags = %q", got)
	}
	p := &Packet{Flow: FlowID{Src: 1, Dst: 2}, Flags: FlagACK, ECN: ECT0}
	if !strings.Contains(p.String(), "ACK") {
		t.Errorf("packet string: %q", p.String())
	}
}
