package sim

import "testing"

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
