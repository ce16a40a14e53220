package transport

import "repro/internal/sim"

// delayCC is a Swift-style delay-based congestion controller (§6 discusses
// extending hostCC to delay-based protocols). Each ACK compares its RTT
// sample against a target; the window grows additively below target and
// shrinks multiplicatively in proportion to the overshoot, clamped per
// RTT.
type delayCC struct {
	e   *sim.Engine
	mss int

	cwnd   int
	target sim.Time

	decreased    bool // a decrease has happened (disambiguates t=0)
	lastDecrease sim.Time
	acc          int
}

// NewDelayCC returns a delay-based factory targeting the given RTT.
func NewDelayCC(target sim.Time) CCFactory {
	if target <= 0 {
		panic("transport: non-positive delay target")
	}
	return func(e *sim.Engine, mss int) CongestionControl {
		return &delayCC{e: e, mss: mss, cwnd: 10 * mss, target: target}
	}
}

func (d *delayCC) Name() string { return "delay" }
func (d *delayCC) Cwnd() int    { return d.cwnd }

const (
	delayBetaMax = 0.5 // max multiplicative decrease per RTT
	delayAI      = 1.0 // additive increase in MSS per RTT
)

func (d *delayCC) OnAck(ev AckEvent) {
	if ev.Bytes <= 0 || ev.RTT <= 0 {
		return
	}
	if ev.RTT <= d.target {
		// Below target: additive increase (delayAI MSS per RTT).
		d.acc += ev.Bytes
		if d.acc >= d.cwnd {
			d.acc -= d.cwnd
			d.cwnd += int(delayAI * float64(d.mss))
		}
		return
	}
	// Above target: at most one multiplicative decrease per RTT,
	// proportional to overshoot.
	if d.decreased && d.e.Now()-d.lastDecrease < ev.RTT {
		return
	}
	d.decreased = true
	d.lastDecrease = d.e.Now()
	over := 1 - float64(d.target)/float64(ev.RTT)
	if over > delayBetaMax {
		over = delayBetaMax
	}
	d.cwnd = maxInt(int(float64(d.cwnd)*(1-over)), 2*d.mss)
	d.acc = 0
}

func (d *delayCC) OnLoss(l LossEvent) {
	if l == LossTimeout {
		d.cwnd = d.mss
		return
	}
	d.cwnd = maxInt(d.cwnd/2, 2*d.mss)
}
