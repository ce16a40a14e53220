package transport

import (
	"math/rand"
	"testing"
	"testing/quick"

	"repro/internal/packet"
	"repro/internal/sim"
)

func TestBulkTransferDeliversAllBytes(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	sender := pp.attach(1, testCfg(NewDCTCP()))
	receiver := pp.attach(2, testCfg(NewDCTCP()))

	var got int64
	receiver.Listen(5000, func(c *Conn) {
		c.OnData(func(n int) { got += int64(n) })
	})
	c := sender.Dial(2, 5000)
	const total = 1 << 20
	c.Send(total)
	e.Run()
	if got != total {
		t.Fatalf("delivered %d of %d bytes", got, total)
	}
	if c.Retransmits.Total() != 0 || c.Timeouts.Total() != 0 {
		t.Fatalf("lossless path saw %d retransmits, %d timeouts",
			c.Retransmits.Total(), c.Timeouts.Total())
	}
}

// Property: for any loss rate up to 30% and any seed, every byte is
// delivered exactly once, in order.
func TestReliabilityUnderRandomLossProperty(t *testing.T) {
	f := func(seed int64, lossPct uint8, sizeKB uint8) bool {
		loss := float64(lossPct%31) / 100
		total := (int(sizeKB%64) + 1) * 1024
		e := sim.NewEngine(seed)
		pp := newPipe(e, 5*sim.Microsecond)
		pp.lossProb = loss
		pp.rng = rand.New(rand.NewSource(seed))
		sender := pp.attach(1, testCfg(NewDCTCP()))
		receiver := pp.attach(2, testCfg(NewDCTCP()))
		var got int64
		receiver.Listen(5000, func(c *Conn) {
			c.OnData(func(n int) { got += int64(n) })
		})
		c := sender.Dial(2, 5000)
		c.Send(total)
		e.RunUntil(60 * sim.Second) // plenty of RTO retries
		return got == int64(total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40, Rand: rand.New(rand.NewSource(17))}); err != nil {
		t.Fatal(err)
	}
}

func TestFastRetransmitOnTripleDupAck(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewReno())
	cfg.TLP = false
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	var got int64
	receiver.Listen(5000, func(c *Conn) {
		c.OnData(func(n int) { got += int64(n) })
	})
	c := sender.Dial(2, 5000)

	// Drop exactly the 3rd data packet using a one-shot filter.
	n := 0
	origLoss := pp.lossProb
	_ = origLoss
	drop := func(p *packet.Packet) bool {
		if p.IsData() {
			n++
			return n == 3
		}
		return false
	}
	pp.filter = drop
	c.Send(40 * cfg.MSS)
	e.Run()
	if got != int64(40*cfg.MSS) {
		t.Fatalf("delivered %d", got)
	}
	if c.Timeouts.Total() != 0 {
		t.Fatalf("fast retransmit should have avoided the %d timeouts", c.Timeouts.Total())
	}
	if c.Retransmits.Total() == 0 {
		t.Fatal("no retransmission recorded")
	}
}

func TestSingleSegmentLossRequiresRTO(t *testing.T) {
	// A 1-segment message whose packet is lost can only recover via RTO
	// (no dupacks, no TLP with one segment in flight) — the reason small
	// RPCs suffer 200ms tails in Figure 4.
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	var gotAt sim.Time
	receiver.Listen(5000, func(c *Conn) {
		c.OnData(func(int) { gotAt = e.Now() })
	})
	c := sender.Dial(2, 5000)
	n := 0
	pp.filter = func(p *packet.Packet) bool {
		if p.IsData() {
			n++
			return n == 1
		}
		return false
	}
	c.Send(100) // single small segment
	e.Run()
	if c.Timeouts.Total() != 1 {
		t.Fatalf("timeouts = %d, want 1", c.Timeouts.Total())
	}
	if gotAt < cfg.MinRTO {
		t.Fatalf("recovered at %v, before the min RTO %v", gotAt, cfg.MinRTO)
	}
}

func TestTLPRecoversTailLossWithoutRTO(t *testing.T) {
	// Drop the LAST segment of a multi-segment burst: no dupacks arrive,
	// but TLP probes it after ~2 SRTT, far sooner than the RTO.
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	var got int64
	var doneAt sim.Time
	total := 5 * cfg.MSS
	receiver.Listen(5000, func(c *Conn) {
		c.OnData(func(n int) {
			got += int64(n)
			if got == int64(total) {
				doneAt = e.Now()
			}
		})
	})
	c := sender.Dial(2, 5000)
	n := 0
	pp.filter = func(p *packet.Packet) bool {
		if p.IsData() {
			n++
			return n == 5 // the tail segment
		}
		return false
	}
	c.Send(total)
	e.Run()
	if got != int64(total) {
		t.Fatalf("delivered %d of %d", got, total)
	}
	if c.TLPProbes.Total() == 0 {
		t.Fatal("no TLP probe fired")
	}
	if c.Timeouts.Total() != 0 {
		t.Fatalf("TLP should have avoided the RTO (timeouts=%d)", c.Timeouts.Total())
	}
	if doneAt >= cfg.MinRTO {
		t.Fatalf("recovery at %v not faster than min RTO %v", doneAt, cfg.MinRTO)
	}
}

func TestRTOExponentialBackoff(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	pp.attach(2, cfg)
	c := sender.Dial(2, 5000)
	pp.lossProb = 1.0 // blackout
	c.Send(100)
	e.RunUntil(40 * sim.Millisecond)
	// Timeouts at 2, 2+4, 2+4+8, 2+4+8+16ms... => 4 by t=40ms.
	if got := c.Timeouts.Total(); got < 3 || got > 5 {
		t.Fatalf("timeouts = %d in 40ms with 2ms base RTO, want ~4 (backoff)", got)
	}
}

func TestECNMarkEchoedAndSeenByCC(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	pp.rate = sim.Gbps(10) // create queueing
	pp.markAt = 3 * 4096   // mark above ~3 packets
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	c := sender.Dial(2, 5000)
	c.SetInfiniteSource(true)
	e.RunUntil(20 * sim.Millisecond)
	if pp.marked == 0 {
		t.Fatal("pipe never marked; test misconfigured")
	}
	if c.MarkedAcks.Total() == 0 {
		t.Fatal("no ECE-marked ACKs at the sender")
	}
	d := c.CC().(*dctcp)
	if d.Alpha() <= 0 {
		t.Fatal("DCTCP alpha stayed zero despite marks")
	}
	if d.Alpha() > 1 {
		t.Fatalf("alpha = %v out of range", d.Alpha())
	}
}

func TestDCTCPKeepsQueueShorterThanReno(t *testing.T) {
	run := func(cc CCFactory) int {
		e := sim.NewEngine(1)
		pp := newPipe(e, 10*sim.Microsecond)
		pp.rate = sim.Gbps(10)
		pp.markAt = 3 * 4096
		cfg := testCfg(cc)
		sender := pp.attach(1, cfg)
		receiver := pp.attach(2, cfg)
		receiver.Listen(5000, func(c *Conn) {})
		c := sender.Dial(2, 5000)
		c.SetInfiniteSource(true)
		maxQ := 0
		tick := sim.NewTicker(e, 50*sim.Microsecond, func() {
			if pp.qBytes > maxQ {
				maxQ = pp.qBytes
			}
		})
		e.RunUntil(30 * sim.Millisecond)
		tick.Stop()
		return maxQ
	}
	dq, rq := run(NewDCTCP()), run(NewReno())
	if dq >= rq {
		t.Fatalf("DCTCP max queue %d not below Reno %d", dq, rq)
	}
}

func TestThroughputReachesBottleneck(t *testing.T) {
	for _, cc := range []struct {
		name string
		f    CCFactory
	}{{"dctcp", NewDCTCP()}, {"reno", NewReno()}, {"cubic", NewCubic()}} {
		t.Run(cc.name, func(t *testing.T) {
			e := sim.NewEngine(1)
			pp := newPipe(e, 10*sim.Microsecond)
			pp.rate = sim.Gbps(10)
			// Mark above the path BDP (10Gbps x ~20us = 25KB) so the
			// window can cover the pipe, and cap the queue so loss-based
			// protocols get a loss signal instead of unbounded bloat.
			pp.markAt = 16 * 4096
			pp.bufBytes = 256 << 10
			cfg := testCfg(cc.f)
			sender := pp.attach(1, cfg)
			receiver := pp.attach(2, cfg)
			var got int64
			receiver.Listen(5000, func(c *Conn) {
				c.OnData(func(n int) { got += int64(n) })
			})
			sender.Dial(2, 5000).SetInfiniteSource(true)
			e.RunUntil(20 * sim.Millisecond)
			gbps := float64(got) * 8 / e.Now().Seconds() / 1e9
			if gbps < 7.5 {
				t.Fatalf("%s achieved %.2f Gbps of 10", cc.name, gbps)
			}
		})
	}
}

func TestDelayCCKeepsRTTNearTarget(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	pp.rate = sim.Gbps(10)
	target := 100 * sim.Microsecond
	cfg := testCfg(NewDelayCC(target))
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	c := sender.Dial(2, 5000)
	c.SetInfiniteSource(true)
	e.RunUntil(50 * sim.Millisecond)
	if c.SRTT() > 3*target {
		t.Fatalf("srtt %v far above delay target %v", c.SRTT(), target)
	}
	if c.SRTT() == 0 {
		t.Fatal("no RTT samples")
	}
}

func TestBidirectionalRPC(t *testing.T) {
	// Client sends a request; server replies on the same connection.
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	client := pp.attach(1, cfg)
	server := pp.attach(2, cfg)

	const reqSize, respSize = 32 * 1024, 1000
	server.Listen(5000, func(c *Conn) {
		var got int64
		c.OnData(func(n int) {
			got += int64(n)
			if got == reqSize {
				c.Send(respSize)
			}
		})
	})
	c := client.Dial(2, 5000)
	var gotResp int64
	var doneAt sim.Time
	c.OnData(func(n int) {
		gotResp += int64(n)
		if gotResp == respSize {
			doneAt = e.Now()
		}
	})
	c.Send(reqSize)
	e.Run()
	if gotResp != respSize {
		t.Fatalf("response bytes = %d", gotResp)
	}
	if doneAt <= 0 {
		t.Fatal("RPC never completed")
	}
}

func TestDelayedAcksReduceAckCount(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 10*sim.Microsecond)
	cfg := testCfg(NewDCTCP())
	sender := pp.attach(1, cfg)
	receiver := pp.attach(2, cfg)
	receiver.Listen(5000, func(c *Conn) {})
	acks := 0
	pp.tap = func(p *packet.Packet) {
		if !p.IsData() && p.Flags.Has(packet.FlagACK) {
			acks++
		}
	}
	c := sender.Dial(2, 5000)
	c.Send(100 * cfg.MSS)
	e.Run()
	// ~100 data packets should generate roughly 50 ACKs (plus stragglers).
	if acks > 70 {
		t.Fatalf("%d ACKs for 100 data packets; delayed acks not working", acks)
	}
	if acks < 40 {
		t.Fatalf("only %d ACKs; suspiciously few", acks)
	}
}

func TestStrayPacketsCounted(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 1)
	ep := pp.attach(2, testCfg(NewDCTCP()))
	ep.Receive(&packet.Packet{
		Flow:       packet.FlowID{Src: 9, Dst: 2, SrcPort: 1, DstPort: 4242},
		PayloadLen: 100,
	})
	if ep.StrayPackets != 1 {
		t.Fatalf("stray packets = %d", ep.StrayPackets)
	}
}

func TestDialDuplicatePanics(t *testing.T) {
	e := sim.NewEngine(1)
	pp := newPipe(e, 1)
	ep := pp.attach(1, testCfg(NewDCTCP()))
	ep.DialFrom(100, 2, 5000)
	defer func() {
		if recover() == nil {
			t.Error("duplicate dial did not panic")
		}
	}()
	ep.DialFrom(100, 2, 5000)
}

func TestRenoHalvesOnLossAndSlowStartsOnRTO(t *testing.T) {
	r := newReno(1000)
	r.OnAck(AckEvent{Bytes: 10000, AckSeq: 10000, SndNxt: 20000})
	before := r.Cwnd()
	r.OnLoss(LossFastRetransmit)
	if r.Cwnd() >= before || r.Cwnd() < before/2-1000 {
		t.Fatalf("fast loss: cwnd %d -> %d", before, r.Cwnd())
	}
	r.OnLoss(LossTimeout)
	if r.Cwnd() != 1000 {
		t.Fatalf("timeout should reset cwnd to 1 MSS, got %d", r.Cwnd())
	}
}

func TestDCTCPAlphaTracksMarkingFraction(t *testing.T) {
	d := NewDCTCP()(nil, 1000).(*dctcp)
	// All bytes marked for many windows: alpha -> 1.
	seq := uint64(0)
	for i := 0; i < 200; i++ {
		seq += 10000
		d.OnAck(AckEvent{Bytes: 10000, Marked: true, AckSeq: seq, SndNxt: seq + 10000})
	}
	if d.Alpha() < 0.9 {
		t.Fatalf("alpha = %v after persistent marking, want ->1", d.Alpha())
	}
	// No marks for many windows: alpha -> 0.
	for i := 0; i < 400; i++ {
		seq += 10000
		d.OnAck(AckEvent{Bytes: 10000, Marked: false, AckSeq: seq, SndNxt: seq + 10000})
	}
	if d.Alpha() > 0.01 {
		t.Fatalf("alpha = %v after mark-free windows, want ->0", d.Alpha())
	}
}

func TestCubicRecoversTowardWmax(t *testing.T) {
	e := sim.NewEngine(1)
	c := NewCubic()(e, 1000).(*cubic)
	c.cwnd = 100_000
	c.ssthresh = 50_000 // in CA
	c.OnLoss(LossFastRetransmit)
	after := c.Cwnd()
	if after >= 100_000 {
		t.Fatalf("no multiplicative decrease: %d", after)
	}
	// Feed ACKs over simulated time; window should grow back toward Wmax.
	seq := uint64(0)
	ack := sim.NewTimer(e, func() {
		seq += 10000
		c.OnAck(AckEvent{Bytes: 10000, AckSeq: seq, SndNxt: seq + 10000})
	})
	for i := 0; i < 200; i++ {
		ack.Reset(5 * sim.Millisecond)
		e.Run()
	}
	if c.Cwnd() <= after {
		t.Fatalf("cubic did not grow after loss: %d -> %d", after, c.Cwnd())
	}
}
