package trace

import (
	"bytes"
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

// TestCaptureDoesNotAliasRecycledPackets drives captured packets through
// a packet.Pool recycle: after a captured packet is Put and its memory is
// reused for an unrelated packet, the log's records must still read as
// originally captured. This is the contract that lets the datapath hand
// pooled packets to a capture hook and recycle them immediately after.
func TestCaptureDoesNotAliasRecycledPackets(t *testing.T) {
	e := sim.NewEngine(1)
	pool := packet.NewPool(4)
	l := NewPacketLog(e, 16)

	const rounds = 12
	for i := 0; i < rounds; i++ {
		p := pool.Get()
		p.Flow = packet.FlowID{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20}
		p.Seq = uint64(i * 1000)
		p.PayloadLen = 1000
		p.ECN = packet.ECT0
		l.Capture(p)
		// Recycle and immediately scribble over the same memory via a
		// fresh Get — with a 4-slot pool this reuses recent packets.
		pool.Put(p)
		q := pool.Get()
		q.Seq = 0xDEAD
		q.ECN = packet.CE
		q.PayloadLen = 1
		pool.Put(q)
	}

	recs := l.Records()
	if len(recs) != rounds {
		t.Fatalf("retained %d records, want %d", len(recs), rounds)
	}
	for i, r := range recs {
		if r.Pkt.Seq != uint64(i*1000) || r.Pkt.ECN != packet.ECT0 || r.Pkt.PayloadLen != 1000 {
			t.Fatalf("record %d aliased recycled memory: seq=%d ecn=%v len=%d",
				i, r.Pkt.Seq, r.Pkt.ECN, r.Pkt.PayloadLen)
		}
	}
}

// TestWraparoundRoundTripUnderRecycling combines both hazards: the ring
// wraps (overwriting oldest records) while the source packets are being
// pool-recycled, then the log is serialized and parsed back. The parsed
// records must match the retained window exactly, in capture order.
func TestWraparoundRoundTripUnderRecycling(t *testing.T) {
	e := sim.NewEngine(1)
	pool := packet.NewPool(2)
	const capacity = 5
	l := NewPacketLog(e, capacity)

	const total = 13
	capture := e.Handler(func(i, _ uint64) {
		p := pool.Get()
		p.Flow = packet.FlowID{Src: 3, Dst: 4, SrcPort: 7, DstPort: 8}
		p.Seq = i
		p.Ack = i * 2
		p.PayloadLen = 100 + int(i)
		p.Flags = packet.FlagACK
		l.Capture(p)
		pool.Put(p)
	})
	for i := 0; i < total; i++ {
		e.Schedule(sim.Time(i*10), capture, uint64(i), 0)
	}
	e.Run()

	if l.Captured != total || l.Len() != capacity {
		t.Fatalf("captured=%d len=%d", l.Captured, l.Len())
	}

	var buf bytes.Buffer
	if _, err := l.WriteTo(&buf); err != nil {
		t.Fatalf("WriteTo: %v", err)
	}
	parsed, err := Read(&buf)
	if err != nil {
		t.Fatalf("Read: %v", err)
	}
	if len(parsed) != capacity {
		t.Fatalf("parsed %d records, want %d", len(parsed), capacity)
	}
	for i, r := range parsed {
		wantSeq := uint64(total - capacity + i)
		if r.Pkt.Seq != wantSeq {
			t.Fatalf("parsed[%d].Seq = %d, want %d (oldest-first order)", i, r.Pkt.Seq, wantSeq)
		}
		if want := sim.Time(wantSeq * 10); r.At != want {
			t.Fatalf("parsed[%d].At = %v, want %v", i, r.At, want)
		}
		if r.Pkt.PayloadLen != 100+int(wantSeq) || r.Pkt.Ack != wantSeq*2 {
			t.Fatalf("parsed[%d] header mismatch: %+v", i, r.Pkt)
		}
	}
}
