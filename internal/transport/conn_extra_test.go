package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

// jitterPipe delivers packets with random extra delay, causing reordering.
type jitterPipe struct {
	*pipe
	jitter sim.Time
}

func (jp *jitterPipe) Transmit(p *packet.Packet) {
	if jp.tap != nil {
		jp.tap(p)
	}
	d := jp.delay + sim.Time(jp.rng.Int63n(int64(jp.jitter)+1))
	jp.e.ScheduleAfter(d, jp.arriveH, jp.inflight.Put(p), 0)
}

// Property: arbitrary reordering never corrupts the byte stream — all
// bytes delivered exactly once even when packets arrive out of order.
func TestDeliveryUnderReorderingProperty(t *testing.T) {
	f := func(seed int64, jitterUs uint8, sizeKB uint8) bool {
		e := sim.NewEngine(seed)
		base := newPipe(e, 5*sim.Microsecond)
		base.rng = rand.New(rand.NewSource(seed))
		jp := &jitterPipe{pipe: base, jitter: sim.Time(jitterUs%50+1) * sim.Microsecond}
		// Endpoints must transmit via the jitter pipe.
		sender := NewEndpoint(e, 1, jp, testCfg(NewDCTCP()))
		receiver := NewEndpoint(e, 2, jp, testCfg(NewDCTCP()))
		jp.eps[1] = sender
		jp.eps[2] = receiver
		var got int64
		receiver.Listen(5000, func(c *Conn) {
			c.OnData(func(n int) { got += int64(n) })
		})
		total := (int(sizeKB%128) + 1) * 1024
		sender.Dial(2, 5000).Send(total)
		e.RunUntil(30 * sim.Second)
		return got == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 30, Rand: rand.New(rand.NewSource(23))}); err != nil {
		t.Fatal(err)
	}
}

func TestSACKRepairsBurstLossWithoutTimeout(t *testing.T) {
	// Drop a contiguous burst mid-window: SACK-guided recovery must
	// repair every hole without an RTO.
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	var got int64
	receiver.Listen(5000, func(c *Conn) {
		c.OnData(func(n int) { got += int64(n) })
	})
	c := sender.Dial(2, 5000)
	n := 0
	var maxSeq uint64
	pp.filter = func(p *packet.Packet) bool {
		if !p.IsData() {
			return false
		}
		if p.Seq < maxSeq {
			return false // retransmission: let it through
		}
		maxSeq = p.End()
		n++
		return n >= 10 && n < 18 // burst of 8 originals
	}
	total := 60 * cfg.MSS
	c.Send(total)
	e.RunUntil(cfg.MinRTO) // must finish before an RTO could help
	if got != int64(total) {
		t.Fatalf("delivered %d of %d before min RTO", got, total)
	}
	if c.Timeouts.Total() != 0 {
		t.Fatalf("burst repaired only via %d timeouts", c.Timeouts.Total())
	}
	if c.Retransmits.Total() < 8 {
		t.Fatalf("only %d retransmits for an 8-segment burst", c.Retransmits.Total())
	}
}

func TestPacingSpreadsTransmissions(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 50*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	cfg.PacingFactor = 2.0
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	var sendTimes []sim.Time
	pp.tap = func(p *packet.Packet) {
		if p.IsData() {
			sendTimes = append(sendTimes, e.Now())
		}
	}
	c := sender.Dial(2, 5000)
	c.SetInfiniteSource(true)
	e.RunUntil(5 * sim.Millisecond)
	if c.SRTT() == 0 {
		t.Fatal("no RTT estimate")
	}
	// After the first RTT, gaps must respect the pacing rate: count how
	// many consecutive sends are (near-)simultaneous.
	bursty := 0
	for i := 1; i < len(sendTimes); i++ {
		if sendTimes[i]-sendTimes[i-1] < 100 && sendTimes[i] > 2*c.SRTT() {
			bursty++
		}
	}
	if frac := float64(bursty) / float64(len(sendTimes)); frac > 0.05 {
		t.Fatalf("%.1f%% of transmissions back-to-back despite pacing", frac*100)
	}

	// Unpaced control: bursts dominate.
	e2 := sim.NewEngine(1)
	pp2 := newPipe(e2, 50*sim.Microsecond)
	cfg2 := testCfg(NewDCTCP())
	cfg2.PacingFactor = 0
	s2 := pp2.attach(1, cfg2)
	r2 := pp2.attach(2, cfg2)
	r2.Listen(5000, func(c *Conn) {})
	var times2 []sim.Time
	pp2.tap = func(p *packet.Packet) {
		if p.IsData() {
			times2 = append(times2, e2.Now())
		}
	}
	c2 := s2.Dial(2, 5000)
	c2.SetInfiniteSource(true)
	e2.RunUntil(5 * sim.Millisecond)
	bursty2 := 0
	for i := 1; i < len(times2); i++ {
		if times2[i]-times2[i-1] < 100 && times2[i] > 2*c2.SRTT() {
			bursty2++
		}
	}
	if bursty2 == 0 {
		t.Fatal("unpaced control shows no bursts; test not discriminating")
	}
}

func TestFlightNeverExceedsReceiveWindow(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	pp.rate = sim.Gbps(10)
	cfg := testCfg(NewDCTCP())
	cfg.RcvWnd = 64 * 1024
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	c := sender.Dial(2, 5000)
	c.SetInfiniteSource(true)
	maxFlight := 0
	tick := sim.NewTicker(e, 10*sim.Microsecond, func() {
		if c.Flight() > maxFlight {
			maxFlight = c.Flight()
		}
	})
	e.RunUntil(20 * sim.Millisecond)
	tick.Stop()
	// One MSS of overshoot is permitted by the send loop.
	if maxFlight > cfg.RcvWnd+cfg.MSS {
		t.Fatalf("flight %d exceeded rcvwnd %d", maxFlight, cfg.RcvWnd)
	}
	if maxFlight < cfg.RcvWnd/2 {
		t.Fatalf("flight %d never approached rcvwnd; window not exercised", maxFlight)
	}
}

func TestImmediateAckOnCEChange(t *testing.T) {
	// DCTCP's delayed-ACK rule: a change in CE state forces an immediate
	// ACK so marking feedback stays accurate.
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	cfg.DelayedAckCount = 100 // delay aggressively unless CE changes
	cfg.DelayedAckTimeout = 10 * sim.Millisecond
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	acks := 0
	pp.tap = func(p *packet.Packet) {
		if !p.IsData() && p.Flags.Has(packet.FlagACK) {
			acks++
		}
	}
	// Mark every 5th data packet CE: each on->off and off->on transition
	// must produce an immediate ACK.
	nData := 0
	pp.markAt = 0
	pp.filter = nil
	markNext := func(p *packet.Packet) {
		if p.IsData() {
			nData++
			if nData%5 == 0 && p.ECN == packet.ECT0 {
				p.ECN = packet.CE
			}
		}
	}
	pp.tapMutate = markNext
	c := sender.Dial(2, 5000)
	c.Send(40 * cfg.MSS)
	e.RunUntil(100 * sim.Millisecond)
	// 40 packets, a CE transition every ~5 packets: at least ~12 ACKs
	// despite DelayedAckCount=100.
	if acks < 10 {
		t.Fatalf("only %d ACKs; CE changes should force immediate ACKs", acks)
	}
}

func TestConnStringAndAccessors(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10)
	ep := pp.attach(1, testCfg(NewDCTCP()))
	c := ep.DialFrom(99, 2, 5000)
	if c.Flow().SrcPort != 99 {
		t.Fatalf("flow = %v", c.Flow())
	}
	if c.CC().Name() != "dctcp" {
		t.Fatalf("cc = %s", c.CC().Name())
	}
	if s := c.String(); s == "" {
		t.Fatal("empty String()")
	}
	if c.ReceivedBytes() != 0 {
		t.Fatal("fresh conn has received bytes")
	}
	defer func() {
		if recover() == nil {
			t.Error("Send(0) did not panic")
		}
	}()
	c.Send(0)
}

// Property: the receiver reassembles any permutation of segments —
// rcvNxt reaches the total once every segment has been delivered,
// regardless of arrival order.
func TestReassemblyPermutationProperty(t *testing.T) {
	f := func(seed int64, nSegs uint8) bool {
		n := int(nSegs%20) + 1
		e := sim.NewEngine(seed)
		pp := newPipe(e, 1)
		pp.attach(1, testCfg(NewDCTCP())) // ACK sink
		ep := pp.attach(2, testCfg(NewDCTCP()))
		var got int64
		ep.Listen(5000, func(c *Conn) {
			c.OnData(func(k int) { got += int64(k) })
		})
		// Build n segments of 100B and deliver them in a random order.
		order := rand.New(rand.NewSource(seed)).Perm(n)
		for _, i := range order {
			ep.Receive(&packet.Packet{
				Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: 9, DstPort: 5000},
				Seq:        uint64(i * 100),
				PayloadLen: 100,
				Flags:      packet.FlagACK,
			})
		}
		e.Run()
		return got == int64(n*100)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Fatal(err)
	}
}

// Duplicate and overlapping segments must not double-deliver bytes.
func TestReassemblyDuplicatesAndOverlaps(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 1)
	pp.attach(1, testCfg(NewDCTCP())) // ACK sink
	ep := pp.attach(2, testCfg(NewDCTCP()))
	var got int64
	ep.Listen(5000, func(c *Conn) {
		c.OnData(func(k int) { got += int64(k) })
	})
	deliver := func(seq uint64, n int) {
		ep.Receive(&packet.Packet{
			Flow:       packet.FlowID{Src: 1, Dst: 2, SrcPort: 9, DstPort: 5000},
			Seq:        seq,
			PayloadLen: n,
			Flags:      packet.FlagACK,
		})
	}
	deliver(0, 100)
	deliver(0, 100)   // exact duplicate
	deliver(50, 100)  // overlaps delivered data
	deliver(200, 100) // gap
	deliver(100, 200) // covers the gap and overlaps the ooo range
	e.Run()
	if got != 300 {
		t.Fatalf("delivered %d bytes, want exactly 300", got)
	}
}
