package trace

import (
	"bytes"
	"strings"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func pkt(seq uint64, data int, ecn packet.ECN) *packet.Packet {
	return &packet.Packet{
		Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20},
		Seq:        seq,
		Flags:      packet.FlagACK,
		ECN:        ecn,
		PayloadLen: data,
	}
}

func TestCaptureAndRecords(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewPacketLog(e, 100)
	sim.NewTimer(e, func() { l.Capture(pkt(0, 1000, packet.ECT0)) }).ResetAt(10)
	sim.NewTimer(e, func() { l.Capture(pkt(1000, 1000, packet.CE)) }).ResetAt(20)
	e.Run()
	recs := l.Records()
	if len(recs) != 2 || l.Len() != 2 {
		t.Fatalf("records = %d", len(recs))
	}
	if recs[0].At != 10 || recs[1].At != 20 {
		t.Fatalf("timestamps: %v %v", recs[0].At, recs[1].At)
	}
	if recs[1].Pkt.ECN != packet.CE {
		t.Fatal("packet fields lost")
	}
}

func TestCaptureClones(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewPacketLog(e, 10)
	p := pkt(0, 500, packet.ECT0)
	l.Capture(p)
	p.ECN = packet.CE // datapath mutates after capture (e.g. hostCC)
	if l.Records()[0].Pkt.ECN != packet.ECT0 {
		t.Fatal("capture did not clone; later mutation leaked into the log")
	}
}

func TestRingOverwritesOldest(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewPacketLog(e, 3)
	for i := 0; i < 5; i++ {
		l.Capture(pkt(uint64(i*1000), 1000, packet.ECT0))
	}
	recs := l.Records()
	if len(recs) != 3 {
		t.Fatalf("retained %d, want 3", len(recs))
	}
	if recs[0].Pkt.Seq != 2000 || recs[2].Pkt.Seq != 4000 {
		t.Fatalf("wrong retention order: %d..%d", recs[0].Pkt.Seq, recs[2].Pkt.Seq)
	}
	if l.Captured != 5 {
		t.Fatalf("captured = %d", l.Captured)
	}
}

func TestSerializeRoundTrip(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewPacketLog(e, 100)
	sim.NewTimer(e, func() {
		l.Capture(pkt(0, 4026, packet.ECT0))
		ack := &packet.Packet{
			Flow:  packet.FlowID{Src: 2, Dst: 1, SrcPort: 20, DstPort: 10},
			Ack:   4026,
			Flags: packet.FlagACK | packet.FlagECE,
			SACK:  []packet.SackBlock{{Lo: 8052, Hi: 12078}},
		}
		l.Capture(ack)
	}).ResetAt(5)
	e.Run()

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatal(err)
	}
	recs, err := Read(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(recs) != 2 {
		t.Fatalf("parsed %d records", len(recs))
	}
	if recs[0].At != 5 || recs[0].Pkt.PayloadLen != 4026 {
		t.Fatalf("record 0: %+v", recs[0])
	}
	if len(recs[1].Pkt.SACK) != 1 || recs[1].Pkt.SACK[0].Hi != 12078 {
		t.Fatalf("SACK lost: %+v", recs[1].Pkt.SACK)
	}
}

func TestReadRejectsGarbage(t *testing.T) {
	if _, err := Read(strings.NewReader("not a capture")); err == nil {
		t.Fatal("garbage accepted")
	}
	var buf bytes.Buffer
	buf.Write(magic[:])
	buf.WriteString("short")
	if _, err := Read(&buf); err == nil {
		t.Fatal("truncated record accepted")
	}
}

func TestSummarize(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewPacketLog(e, 10)
	sim.NewTimer(e, func() { l.Capture(pkt(0, 1000, packet.ECT0)) }).ResetAt(100)
	sim.NewTimer(e, func() { l.Capture(pkt(1000, 1000, packet.CE)) }).ResetAt(200)
	sim.NewTimer(e, func() {
		l.Capture(&packet.Packet{Flow: packet.FlowID{Src: 2, Dst: 1}, Flags: packet.FlagACK, Ack: 2000})
	}).ResetAt(300)
	e.Run()
	s := Summarize(l.Records())
	if s.Packets != 3 || s.Data != 2 || s.Acks != 1 || s.CEMarked != 1 {
		t.Fatalf("summary: %+v", s)
	}
	if s.Last-s.First != 200 {
		t.Fatalf("span: %v", s.Last-s.First)
	}
	if !strings.Contains(s.String(), "3 pkts") {
		t.Fatalf("string: %q", s.String())
	}
}

func TestValidation(t *testing.T) {
	e := sim.NewEngine(1)
	defer func() {
		if recover() == nil {
			t.Error("zero capacity did not panic")
		}
	}()
	NewPacketLog(e, 0)
}
