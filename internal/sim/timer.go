package sim

// Timer is a cancellable, resettable one-shot timer, analogous to
// time.Timer but driven by simulated time. It is the building block for
// transport retransmission timers (RTO, TLP) and periodic samplers.
//
// A timer re-armed later (the RTO on every ACK) keeps one wake event
// queued, yet fires at the (at, seq) place a fresh event per re-arm
// would have had: Reset reserves that seq, and an early wake re-queues
// under the reserved key.
//
// The zero value is not usable; create timers with NewTimer.
type Timer struct {
	e   *Engine
	fn  func()
	h   HandlerID
	gen uint64 // incremented on Stop/Reset; digested with the deadline
	at  Time
	seq uint64 // the key (at, seq) reserved by the last Reset
	set bool
	// wakeAt, wakeSeq key the queued wake event; wakeSeq is 0 if none is.
	wakeAt  Time
	wakeSeq uint64
}

// NewTimer returns an unarmed timer that will invoke fn when it fires.
// The timer registers one engine handler at construction, so Reset/Stop
// cycles are allocation-free no matter how often the timer re-arms.
func NewTimer(e *Engine, fn func()) *Timer {
	if fn == nil {
		panic("sim: NewTimer with nil callback")
	}
	t := &Timer{e: e, fn: fn}
	t.h = e.Handler(t.fire)
	return t
}

// fire is the timer's engine handler; arg0 carries the seq the wake was
// queued under. The current wake fires the timer if it is the deadline's
// own key and otherwise re-queues under that key.
func (t *Timer) fire(seq, _ uint64) {
	if seq != t.wakeSeq {
		return // superseded by a wake queued for an earlier deadline
	}
	t.wakeSeq = 0
	switch {
	case !t.set:
	case seq != t.seq:
		t.wake() // early: the deadline moved later since this was queued
	default:
		t.set = false
		t.fn()
	}
}

// wake queues the timer's event under its reserved key.
func (t *Timer) wake() {
	t.wakeAt, t.wakeSeq = t.at, t.seq
	t.e.push(t.at, t.seq, t.h, t.seq, 0)
}

// Reset (re-)arms the timer to fire d from now, replacing any pending firing.
func (t *Timer) Reset(d Time) {
	t.gen++
	t.set = true
	t.at = t.e.Now() + max(d, 0)
	t.seq = t.e.ReserveSeq()
	if t.wakeSeq == 0 || t.at < t.wakeAt {
		t.wake()
	}
}

// ResetAt arms the timer to fire at absolute time at.
func (t *Timer) ResetAt(at Time) {
	t.Reset(at - t.e.Now())
}

// Stop disarms the timer. It reports whether a firing was pending.
func (t *Timer) Stop() bool {
	was := t.set
	t.set = false
	t.gen++
	return was
}

// Pending reports whether the timer is armed.
func (t *Timer) Pending() bool { return t.set }

// Deadline returns the absolute fire time; meaningful only when Pending.
func (t *Timer) Deadline() Time { return t.at }

// Ticker invokes fn every interval until stopped. It is used for the
// hostCC signal sampler and for time-series recorders.
type Ticker struct {
	t        *Timer
	interval Time
	fn       func()
}

// NewTicker starts a ticker whose first tick is one interval from now.
func NewTicker(e *Engine, interval Time, fn func()) *Ticker {
	if interval <= 0 {
		panic("sim: NewTicker with non-positive interval")
	}
	tk := &Ticker{interval: interval, fn: fn}
	tk.t = NewTimer(e, tk.tick)
	tk.t.Reset(interval)
	return tk
}

func (tk *Ticker) tick() {
	tk.fn()
	tk.t.Reset(tk.interval)
}

// SetInterval changes the tick period, effective from the next rearm.
func (tk *Ticker) SetInterval(d Time) {
	if d <= 0 {
		panic("sim: SetInterval with non-positive interval")
	}
	tk.interval = d
}

// Stop halts the ticker.
func (tk *Ticker) Stop() { tk.t.Stop() }
