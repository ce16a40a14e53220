package sim

import (
	"math"
	"math/rand"
	"slices"
	"sort"
	"testing"
	"testing/quick"
	"time"
)

func TestEngineRunsEventsInOrder(t *testing.T) {
	e := NewEngine(1)
	var got []Time
	h := e.Handler(func(_, _ uint64) { got = append(got, e.Now()) })
	for _, d := range []Time{50, 10, 30, 10, 70} {
		e.ScheduleAfter(d, h, 0, 0)
	}
	e.Run()
	want := []Time{10, 10, 30, 50, 70}
	if len(got) != len(want) {
		t.Fatalf("ran %d events, want %d", len(got), len(want))
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("event %d at %v, want %v", i, got[i], want[i])
		}
	}
}

func TestEngineFIFOAtSameInstant(t *testing.T) {
	e := NewEngine(1)
	var order []int
	h := e.Handler(func(i, _ uint64) { order = append(order, int(i)) })
	for i := 0; i < 10; i++ {
		e.Schedule(5, h, uint64(i), 0)
	}
	e.Run()
	if len(order) != 10 {
		t.Fatalf("ran %d events, want 10", len(order))
	}
	for i, v := range order {
		if v != i {
			t.Fatalf("same-instant events reordered: %v", order)
		}
	}
}

func TestEngineNestedScheduling(t *testing.T) {
	e := NewEngine(1)
	count := 0
	var step HandlerID
	step = e.Handler(func(_, _ uint64) {
		count++
		if count < 5 {
			e.ScheduleAfter(10, step, 0, 0)
		}
	})
	e.ScheduleAfter(10, step, 0, 0)
	e.Run()
	if count != 5 {
		t.Fatalf("count = %d, want 5", count)
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
}

func TestEngineSchedulingInPastPanics(t *testing.T) {
	e := NewEngine(1)
	noop := e.Handler(func(_, _ uint64) {})
	ran := false
	check := e.Handler(func(_, _ uint64) {
		ran = true
		defer func() {
			if recover() == nil {
				t.Error("scheduling in the past did not panic")
			}
		}()
		e.Schedule(50, noop, 0, 0)
	})
	e.Schedule(100, check, 0, 0)
	e.Run()
	if !ran {
		t.Fatal("checking event never ran")
	}
}

// A negative ScheduleAfter delay clamps to zero: the event runs at the
// current instant, after the event that scheduled it.
func TestEngineNegativeDelayClamps(t *testing.T) {
	e := NewEngine(1)
	var order []string
	var at Time
	late := e.Handler(func(_, _ uint64) { order = append(order, "clamped"); at = e.Now() })
	first := e.Handler(func(_, _ uint64) {
		e.ScheduleAfter(-5, late, 0, 0)
		order = append(order, "scheduler")
	})
	e.Schedule(10, first, 0, 0)
	e.Run()
	if len(order) != 2 || order[0] != "scheduler" || order[1] != "clamped" {
		t.Fatalf("order = %v, want [scheduler clamped]", order)
	}
	if at != 10 {
		t.Fatalf("clamped event ran at %v, want 10", at)
	}
}

func TestEngineRunUntilAdvancesClock(t *testing.T) {
	e := NewEngine(1)
	fired := false
	e.Schedule(100, e.Handler(func(_, _ uint64) { fired = true }), 0, 0)
	e.RunUntil(50)
	if fired {
		t.Fatal("event at 100 fired before deadline 50")
	}
	if e.Now() != 50 {
		t.Fatalf("now = %v, want 50", e.Now())
	}
	e.RunFor(50)
	if !fired {
		t.Fatal("event at 100 did not fire by 100")
	}
}

func TestEngineStop(t *testing.T) {
	e := NewEngine(1)
	n := 0
	h := e.Handler(func(stop, _ uint64) {
		n++
		if stop != 0 {
			e.Stop()
		}
	})
	e.Schedule(1, h, 1, 0)
	e.Schedule(2, h, 0, 0)
	e.Run()
	if n != 1 {
		t.Fatalf("ran %d events after Stop, want 1", n)
	}
	e.Run() // resumes
	if n != 2 {
		t.Fatalf("ran %d events total, want 2", n)
	}
}

// TestEngineRunUntilAfterStop: a Stop under RunUntil leaves the clock at
// the stopping event, so the events queued between it and the deadline
// still run: Step runs the one at 7, and a later RunUntil(10) reaches 10.
func TestEngineRunUntilAfterStop(t *testing.T) {
	e := NewEngine(1)
	var ran []Time
	h := e.Handler(func(stop, _ uint64) {
		ran = append(ran, e.Now())
		if stop != 0 {
			e.Stop()
		}
	})
	e.Schedule(5, h, 1, 0)
	e.Schedule(7, h, 0, 0)
	e.RunUntil(10)
	if e.Now() != 5 {
		t.Fatalf("after a Stop at 5 under RunUntil(10): now %v, want 5", e.Now())
	}
	if !e.Step() || e.Now() != 7 {
		t.Fatalf("Step after the Stop: now %v, want the event at 7 to run", e.Now())
	}
	e.RunUntil(10)
	if e.Now() != 10 || !slices.Equal(ran, []Time{5, 7}) {
		t.Fatalf("now %v with events at %v, want 10 with events at [5 7]", e.Now(), ran)
	}
}

// TestEngineKey: Key is the running event's key inside a handler, the
// last event's after Step or a Stop (where a Stop under RunUntil also
// leaves the clock), and (now, MaxUint64) once a run has reached now.
func TestEngineKey(t *testing.T) {
	e := NewEngine(1)
	type key struct {
		at  Time
		seq uint64
	}
	k := func() key {
		at, seq := e.Key()
		return key{at, seq}
	}
	var inside []key
	h := e.Handler(func(stop, _ uint64) {
		inside = append(inside, k())
		if stop != 0 {
			e.Stop()
		}
	})
	if got := k(); got != (key{0, math.MaxUint64}) {
		t.Fatalf("new engine key %v", got)
	}
	e.Schedule(5, h, 0, 0)  // seq 1
	e.Schedule(5, h, 1, 0)  // seq 2: stops
	e.Schedule(17, h, 0, 0) // seq 3
	e.RunUntil(10)
	if want := []key{{5, 1}, {5, 2}}; !slices.Equal(inside, want) {
		t.Fatalf("keys inside handlers %v, want %v", inside, want)
	}
	if got := k(); got != (key{5, 2}) || e.Now() != 5 {
		t.Fatalf("after a Stop under RunUntil: key %v at now %v, want the stopping event's key at 5", got, e.Now())
	}
	e.Step()
	if got := k(); got != (key{17, 3}) {
		t.Fatalf("after Step: key %v, want {17 3}", got)
	}
	e.RunUntil(20)
	if got := k(); got != (key{20, math.MaxUint64}) {
		t.Fatalf("after RunUntil(20): key %v", got)
	}
}

// fakeLazy is a component with lazy items at fixed times; applied counts
// the items applied so far.
type fakeLazy struct {
	e       *Engine
	at      []Time
	applied int
}

func (f *fakeLazy) retire() {
	now, _ := f.e.Key()
	for f.applied < len(f.at) && f.at[f.applied] < now {
		f.applied++
	}
}

func (f *fakeLazy) NextAt() (Time, bool) {
	f.retire()
	if f.applied == len(f.at) {
		return 0, false
	}
	return f.at[f.applied], true
}

func (f *fakeLazy) Drain() (Time, bool) {
	if f.applied == len(f.at) {
		return 0, false
	}
	f.applied = len(f.at)
	return f.at[len(f.at)-1], true
}

// TestEngineLazyItems: NextEventAt reports a registered component's
// lazy items beside queued events, and Run drains them and moves the
// clock to the latest, unless a Stop ends the run first.
func TestEngineLazyItems(t *testing.T) {
	e := NewEngine(1)
	l := &fakeLazy{e: e, at: []Time{3, 40, 90}}
	e.AddLazy(l)
	h := e.Handler(func(stop, _ uint64) {
		if stop != 0 {
			e.Stop()
		}
	})
	e.Schedule(20, h, 0, 0)
	if at, ok := e.NextEventAt(); !ok || at != 3 {
		t.Fatalf("NextEventAt = %v, %v; want the lazy item at 3", at, ok)
	}
	e.RunUntil(10)
	if at, ok := e.NextEventAt(); !ok || at != 20 {
		t.Fatalf("after RunUntil(10): NextEventAt = %v, %v; want the event at 20", at, ok)
	}
	e.Schedule(50, h, 1, 0)
	e.Run()
	if at, ok := e.NextEventAt(); e.Now() != 50 || !ok || at != 90 || l.applied != 2 {
		t.Fatalf("stopped Run: now %v, next %v (%v), %d items applied; want 50, 90 and 2",
			e.Now(), at, ok, l.applied)
	}
	e.Run()
	if e.Now() != 90 || l.applied != 3 {
		t.Fatalf("Run: now %v with %d items applied; want 90 and 3", e.Now(), l.applied)
	}
	if _, ok := e.NextEventAt(); ok {
		t.Fatal("NextEventAt reports work after a drained Run")
	}
}

func TestEngineDeterminism(t *testing.T) {
	run := func(seed int64) []Time {
		e := NewEngine(seed)
		var ts []Time
		var step HandlerID
		step = e.Handler(func(_, _ uint64) {
			ts = append(ts, e.Now())
			if len(ts) < 100 {
				e.ScheduleAfter(Time(e.Rand().Intn(1000)), step, 0, 0)
			}
		})
		e.ScheduleAfter(0, step, 0, 0)
		e.Run()
		return ts
	}
	a, b := run(42), run(42)
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("runs with same seed diverge at event %d: %v vs %v", i, a[i], b[i])
		}
	}
}

// Property: for any batch of delays, events execute in nondecreasing time
// order and the final clock equals the max delay.
func TestEngineOrderingProperty(t *testing.T) {
	f := func(delays []uint16) bool {
		e := NewEngine(7)
		var seen []Time
		var maxD Time
		h := e.Handler(func(_, _ uint64) { seen = append(seen, e.Now()) })
		for _, d := range delays {
			d := Time(d)
			if d > maxD {
				maxD = d
			}
			e.ScheduleAfter(d, h, 0, 0)
		}
		e.Run()
		if !sort.SliceIsSorted(seen, func(i, j int) bool { return seen[i] < seen[j] }) {
			return false
		}
		return len(delays) == 0 || e.Now() == maxD
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 200, Rand: rand.New(rand.NewSource(3))}); err != nil {
		t.Fatal(err)
	}
}

func TestTimerResetSupersedes(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100)
	NewTimer(e, func() { tm.Reset(200) }).ResetAt(50) // push deadline out
	e.Run()
	if fires != 1 {
		t.Fatalf("timer fired %d times, want 1", fires)
	}
	if e.Now() != 250 {
		t.Fatalf("fired at %v, want 250", e.Now())
	}
}

func TestTimerStop(t *testing.T) {
	e := NewEngine(1)
	fires := 0
	tm := NewTimer(e, func() { fires++ })
	tm.Reset(100)
	if !tm.Pending() {
		t.Fatal("timer not pending after Reset")
	}
	NewTimer(e, func() {
		if !tm.Stop() {
			t.Error("Stop reported no pending firing")
		}
	}).ResetAt(50)
	e.Run()
	if fires != 0 {
		t.Fatalf("stopped timer fired %d times", fires)
	}
	if tm.Stop() {
		t.Fatal("second Stop reported a pending firing")
	}
}

func TestTickerTicksAtInterval(t *testing.T) {
	e := NewEngine(1)
	var ticks []Time
	tk := NewTicker(e, 10, func() { ticks = append(ticks, e.Now()) })
	NewTimer(e, tk.Stop).ResetAt(35)
	e.Run()
	want := []Time{10, 20, 30}
	if len(ticks) != len(want) {
		t.Fatalf("ticks = %v, want %v", ticks, want)
	}
	for i := range want {
		if ticks[i] != want[i] {
			t.Fatalf("ticks = %v, want %v", ticks, want)
		}
	}
}

func TestRateConversions(t *testing.T) {
	r := Gbps(100)
	if got := r.Gbps(); got != 100 {
		t.Fatalf("Gbps roundtrip = %v", got)
	}
	if got := r.GBps(); got != 12.5 {
		t.Fatalf("100Gbps = %v GBps, want 12.5", got)
	}
	// 4KB at 100 Gbps is 327.68ns; TimeFor rounds up.
	if d := r.TimeFor(4096); d != 328 {
		t.Fatalf("TimeFor(4096) = %v, want 328", d)
	}
	if b := r.BytesIn(1 * Microsecond); b != 12500 {
		t.Fatalf("BytesIn(1us) = %v, want 12500", b)
	}
	if d := Rate(0).TimeFor(1); d < Time(1)<<61 {
		t.Fatalf("zero rate should yield huge time, got %v", d)
	}
}

func TestTimeFormattingAndConversions(t *testing.T) {
	cases := []struct {
		t Time
		s string
	}{
		{500, "500ns"},
		{13200, "13.2us"},
		{2 * Millisecond, "2ms"},
		{3 * Second, "3s"},
		{-13200, "-13.2us"},
		{math.MinInt64, "-9.223e+09s"}, // -t overflows back to t
	}
	for _, c := range cases {
		if got := c.t.String(); got != c.s {
			t.Errorf("%d.String() = %q, want %q", int64(c.t), got, c.s)
		}
	}
	if FromDuration(5*time.Millisecond) != 5*Millisecond {
		t.Error("FromDuration mismatch")
	}
	if (2 * Millisecond).Micros() != 2000 {
		t.Error("Micros mismatch")
	}
}
