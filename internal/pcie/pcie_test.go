package pcie

import (
	"testing"

	"repro/internal/packet"
	"repro/internal/sim"
)

func mkPkt(size int) *packet.Packet {
	return &packet.Packet{PayloadLen: size - packet.HeaderLen}
}

func TestSegmentation(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, DefaultConfig(), func(*TLP) {})
	p := mkPkt(4096 + packet.HeaderLen) // wire = 4166
	tlps := l.Segment(p)
	if len(tlps) != 9 { // ceil(4166/512)
		t.Fatalf("got %d TLPs, want 9", len(tlps))
	}
	total := 0
	for i, tlp := range tlps {
		total += tlp.DataBytes
		if tlp.WireBytes != tlp.DataBytes+26 {
			t.Fatalf("TLP %d wire bytes %d", i, tlp.WireBytes)
		}
		if tlp.First != (i == 0) || tlp.Last != (i == len(tlps)-1) {
			t.Fatalf("TLP %d first/last flags wrong", i)
		}
		if want := (tlp.WireBytes + 63) / 64; tlp.Lines != want {
			t.Fatalf("TLP %d lines = %d, want %d", i, tlp.Lines, want)
		}
	}
	if total != p.WireLen() {
		t.Fatalf("TLP data sums to %d, want %d", total, p.WireLen())
	}
}

func TestCreditsConsumeAndRelease(t *testing.T) {
	e := sim.NewEngine(1)
	var got []*TLP
	l := NewLink(e, DefaultConfig(), func(tlp *TLP) { got = append(got, tlp) })
	tlps := l.Segment(mkPkt(4096 + packet.HeaderLen))

	sent := 0
	for _, tlp := range tlps {
		if !l.TrySend(tlp) {
			break
		}
		sent++
	}
	// The packet has 9 TLPs (8 full at 8 lines + final 304B at 5 lines =
	// 69 lines), all fitting within the 93-line pool.
	if sent != 9 {
		t.Fatalf("sent %d TLPs before stalling, want 9", sent)
	}
	if l.Credits() != 93-69 {
		t.Fatalf("credits = %d, want 24", l.Credits())
	}
	// A second packet must stall after three TLPs (24 - 3x8 = 0).
	tlps2 := l.Segment(mkPkt(4096 + packet.HeaderLen))
	sent2 := 0
	for _, tlp := range tlps2 {
		if !l.TrySend(tlp) {
			break
		}
		sent2++
	}
	if sent2 != 3 {
		t.Fatalf("second packet sent %d TLPs, want 3", sent2)
	}
	if l.Stalls.Total() != 1 {
		t.Fatalf("stalls = %d", l.Stalls.Total())
	}

	woke := false
	l.NotifyCredits(func() { woke = true })
	l.ReleaseCredits(8)
	if !woke {
		t.Fatal("credit release did not wake waiter")
	}
	e.Run()
	if len(got) != 12 {
		t.Fatalf("delivered %d TLPs, want 12", len(got))
	}
}

func TestSerializationAndLatency(t *testing.T) {
	e := sim.NewEngine(1)
	var at []sim.Time
	cfg := DefaultConfig()
	l := NewLink(e, cfg, func(*TLP) { at = append(at, e.Now()) })
	tlps := l.Segment(mkPkt(1024 + packet.HeaderLen)) // 1094B: 3 TLPs
	for _, tlp := range tlps {
		if !l.TrySend(tlp) {
			t.Fatal("unexpected stall")
		}
	}
	e.Run()
	if len(at) != 3 {
		t.Fatalf("delivered %d", len(at))
	}
	// First TLP: 512B wire at 128Gbps = 32ns, plus the 60ns link latency.
	want0 := cfg.Rate.TimeFor(512) + cfg.Latency
	if at[0] != want0 {
		t.Fatalf("first TLP at %v, want %v", at[0], want0)
	}
	// Deliveries are serialized back-to-back, strictly increasing.
	if !(at[0] < at[1] && at[1] < at[2]) {
		t.Fatalf("deliveries not serialized: %v", at)
	}
}

func TestThroughputBoundedByLineRate(t *testing.T) {
	e := sim.NewEngine(1)
	delivered := 0
	var l *Link
	l = NewLink(e, DefaultConfig(), func(tlp *TLP) {
		delivered += tlp.WireBytes
		l.ReleaseCredits(tlp.Lines) // instant replenish: best case
	})
	var feed func()
	again := e.Handler(func(_, _ uint64) { feed() })
	feed = func() {
		if e.Now() > 1*sim.Millisecond {
			return
		}
		for _, tlp := range l.Segment(mkPkt(4096 + packet.HeaderLen)) {
			if !l.TrySend(tlp) {
				l.NotifyCredits(feed)
				return
			}
		}
		e.ScheduleAfter(0, again, 0, 0)
	}
	feed()
	e.RunUntil(1 * sim.Millisecond)
	rate := sim.Rate(float64(delivered) / e.Now().Seconds())
	if rate.Gbps() > 128.1 {
		t.Fatalf("delivered %.1f Gbps > 128 raw", rate.Gbps())
	}
	if rate.Gbps() < 120 {
		t.Fatalf("delivered %.1f Gbps; expected near line rate with instant credits", rate.Gbps())
	}
}

func TestCreditOverflowPanics(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, DefaultConfig(), func(*TLP) {})
	defer func() {
		if recover() == nil {
			t.Error("over-release did not panic")
		}
	}()
	l.ReleaseCredits(1)
}

func TestOversizedTLPPanics(t *testing.T) {
	e := sim.NewEngine(1)
	l := NewLink(e, DefaultConfig(), func(*TLP) {})
	defer func() {
		if recover() == nil {
			t.Error("oversized TLP did not panic")
		}
	}()
	l.TrySend(&TLP{Lines: 94, WireBytes: 94 * 64})
}
