package sim

import (
	"bytes"
	"slices"
	"testing"

	"repro/internal/snapshot"
)

// Timer edge cases around generation invalidation: events already in the
// engine queue must not fire a timer that was cancelled or re-armed after
// they were scheduled.

func TestTimerCancelThenFireSameTick(t *testing.T) {
	// Stop the timer at the exact instant its firing event runs. The
	// cancel event is scheduled first, so it executes first at t=100;
	// the already-queued firing must then be a no-op.
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	NewTimer(e, func() { tm.Stop() }).ResetAt(100)
	tm.Reset(100)
	e.Run()
	if fires != 0 {
		t.Fatalf("timer fired %d times after same-tick cancel", fires)
	}
	if tm.Pending() {
		t.Fatal("timer still pending after Stop")
	}
}

func TestTimerCancelThenRearm(t *testing.T) {
	// Stop then Reset before the original deadline: only the new deadline
	// fires, exactly once.
	e := NewEngine(1)
	var fired []Time
	tm := NewTimer(e, func() { fired = append(fired, e.Now()) })
	tm.Reset(100)
	NewTimer(e, func() {
		tm.Stop()
		tm.Reset(100) // new deadline 140
	}).ResetAt(40)
	e.Run()
	if len(fired) != 1 || fired[0] != 140 {
		t.Fatalf("fired = %v, want [140]", fired)
	}
}

func TestTimerRearmInsideCallback(t *testing.T) {
	// Re-arming from inside the firing callback must schedule a fresh
	// firing and not be suppressed by the generation check.
	e := NewEngine(1)
	var fired []Time
	var tm *Timer
	tm = NewTimer(e, func() {
		fired = append(fired, e.Now())
		if len(fired) < 3 {
			tm.Reset(50)
		}
	})
	tm.Reset(50)
	e.Run()
	want := []Time{50, 100, 150}
	if len(fired) != len(want) {
		t.Fatalf("fired = %v, want %v", fired, want)
	}
	for i := range want {
		if fired[i] != want[i] {
			t.Fatalf("fired = %v, want %v", fired, want)
		}
	}
	if tm.Pending() {
		t.Fatal("timer pending after final fire without re-arm")
	}
}

func TestTimerZeroDelayFiresAfterCurrentEvent(t *testing.T) {
	// Reset(0) from inside an event runs strictly after that event
	// completes (same instant, later sequence number).
	e := NewEngine(1)
	var order []string
	tm := NewTimer(e, func() { order = append(order, "timer") })
	NewTimer(e, func() {
		tm.Reset(0)
		order = append(order, "event")
	}).ResetAt(10)
	e.Run()
	if len(order) != 2 || order[0] != "event" || order[1] != "timer" {
		t.Fatalf("order = %v, want [event timer]", order)
	}
	if e.Now() != 10 {
		t.Fatalf("now = %v, want 10", e.Now())
	}
}

func TestTimerSameTickOrdering(t *testing.T) {
	// Two timers armed for the same instant fire in arming order (FIFO by
	// engine sequence), and a third armed later at the same instant runs
	// after both.
	e := NewEngine(1)
	var order []string
	a := NewTimer(e, func() { order = append(order, "a") })
	b := NewTimer(e, func() { order = append(order, "b") })
	c := NewTimer(e, func() { order = append(order, "c") })
	a.Reset(20)
	b.Reset(20)
	c.Reset(20)
	// Re-arm a for the same deadline: its firing event is now the newest,
	// so it must run after b and c.
	a.Reset(20)
	e.Run()
	want := []string{"b", "c", "a"}
	if len(order) != 3 {
		t.Fatalf("order = %v, want %v", order, want)
	}
	for i := range want {
		if order[i] != want[i] {
			t.Fatalf("order = %v, want %v", order, want)
		}
	}
}

// lazyTimer is the reference Timer: every Reset schedules a fresh event
// and a generation check drops the superseded ones when they pop, so the
// queue holds one event per re-arm. FuzzTimerOrder holds Timer, which
// keeps one queued event, to the lazy timer's dispatch order.
type lazyTimer struct {
	e   *Engine
	fn  func()
	h   HandlerID
	gen uint64
	at  Time
	set bool
}

func newLazyTimer(e *Engine, fn func()) *lazyTimer {
	t := &lazyTimer{e: e, fn: fn}
	t.h = e.Handler(t.fire)
	return t
}

func (t *lazyTimer) fire(gen, _ uint64) {
	if t.gen != gen || !t.set {
		return
	}
	t.set = false
	t.fn()
}

func (t *lazyTimer) Reset(d Time) {
	t.gen++
	t.set = true
	t.at = t.e.Now() + max(d, 0)
	t.e.Schedule(t.at, t.h, t.gen, 0)
}

func (t *lazyTimer) ResetAt(at Time) { t.Reset(at - t.e.Now()) }

func (t *lazyTimer) Stop() bool {
	was := t.set
	t.set = false
	t.gen++
	return was
}

func (t *lazyTimer) SnapshotState(enc *snapshot.Encoder) {
	enc.Bool(t.set)
	enc.I64(int64(t.at))
	enc.U64(t.gen)
}

type scriptTimer interface {
	Reset(d Time)
	ResetAt(at Time)
	Stop() bool
	SnapshotState(enc *snapshot.Encoder)
}

// dispatch is one line of a timer script's log: a plain handler event
// (kind 'h', idx its scheduling order), a timer callback ('t', idx the
// timer) or a Stop that found its timer armed ('s').
type dispatch struct {
	at   Time
	kind byte
	idx  uint64
}

// timerScript runs a fuzz script on one engine. The script is a stream
// of 3-byte ops (opcode, timer, delay) consumed in order: by the set-up
// call at time 0, then by every handler event and timer callback as it
// runs. Opcode bits 0-1 pick Reset, ResetAt (possibly in the past), Stop
// or scheduling a plain handler event; bit 2 ends the current batch, so
// the next event or callback takes the following ops.
type timerScript struct {
	e      *Engine
	timers []scriptTimer
	ops    []byte
	plainH HandlerID
	plains uint64
	log    []dispatch
}

func newTimerScript(n int, ops []byte, lazy bool) *timerScript {
	s := &timerScript{e: NewEngine(1), ops: ops}
	s.plainH = s.e.Handler(func(idx, _ uint64) {
		s.log = append(s.log, dispatch{s.e.Now(), 'h', idx})
		s.run()
	})
	for i := 0; i < n; i++ {
		fn := func() {
			s.log = append(s.log, dispatch{s.e.Now(), 't', uint64(i)})
			s.run()
		}
		if lazy {
			s.timers = append(s.timers, newLazyTimer(s.e, fn))
		} else {
			s.timers = append(s.timers, NewTimer(s.e, fn))
		}
	}
	return s
}

func (s *timerScript) run() {
	for len(s.ops) >= 3 {
		op, i, d := s.ops[0], int(s.ops[1])%len(s.timers), Time(s.ops[2]%16)
		s.ops = s.ops[3:]
		switch op & 3 {
		case 0:
			s.timers[i].Reset(d)
		case 1:
			s.timers[i].ResetAt(s.e.Now() + d - 4)
		case 2:
			if s.timers[i].Stop() {
				s.log = append(s.log, dispatch{s.e.Now(), 's', uint64(i)})
			}
		case 3:
			s.e.ScheduleAfter(d, s.plainH, s.plains, 0)
			s.plains++
		}
		if op&4 != 0 {
			return
		}
	}
}

// FuzzTimerOrder runs one script against the lazy reference timer and
// against Timer, advancing both engines instant by instant. Every
// dispatch must match in time, kind and index, the final sequence
// counters and timer states must match, and Timer's queue must never
// hold more events than the reference's.
func FuzzTimerOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) == 0 || len(data) > 1024 {
			return
		}
		n := 1 + int(data[0]%8)
		ref, got := newTimerScript(n, data[1:], true), newTimerScript(n, data[1:], false)
		ref.run()
		got.run()
		for {
			at, ok := ref.e.NextEventAt()
			if g, gok := got.e.NextEventAt(); gok && (!ok || g < at) {
				at, ok = g, true
			}
			if !ok {
				break
			}
			ref.e.RunUntil(at)
			got.e.RunUntil(at)
			if got.e.Pending() > ref.e.Pending() {
				t.Fatalf("at %v: %d events pending, reference %d", at, got.e.Pending(), ref.e.Pending())
			}
		}
		if !slices.Equal(got.log, ref.log) {
			t.Fatalf("dispatch log differs:\n got %v\nwant %v", got.log, ref.log)
		}
		if got.e.seq != ref.e.seq {
			t.Fatalf("final seq %d, reference %d", got.e.seq, ref.e.seq)
		}
		for i := range got.timers {
			var a, b snapshot.Encoder
			got.timers[i].SnapshotState(&a)
			ref.timers[i].SnapshotState(&b)
			if !bytes.Equal(a.Bytes(), b.Bytes()) {
				t.Fatalf("timer %d state differs from the reference", i)
			}
		}
	})
}
