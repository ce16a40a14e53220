package sim

import "testing"

// BenchmarkEngineScheduleDispatch measures the allocation-free hot path:
// one Schedule + one dispatched event per iteration, with the self-
// rescheduling shape (handler schedules the next event) that dominates
// the simulator's steady state.
func BenchmarkEngineScheduleDispatch(b *testing.B) {
	e := NewEngine(1)
	var h HandlerID
	h = e.Handler(func(arg0, _ uint64) {
		e.ScheduleAfter(1, h, arg0+1, 0)
	})
	e.ScheduleAfter(1, h, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Step()
	}
}

// BenchmarkEngineHeap measures heap push/pop with a realistic standing
// population (hundreds of pending events), which is where heap arity and
// memory layout matter.
func BenchmarkEngineHeap(b *testing.B) {
	e := NewEngine(1)
	h := e.Handler(func(_, _ uint64) {})
	const standing = 512
	for i := 0; i < standing; i++ {
		// Pseudo-random insertion times so the heap actually reorders.
		e.Schedule(Time((i*2654435761)%100000), h, 0, 0)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		e.Schedule(e.Now()+Time((i*2654435761)%100000)+1, h, 0, 0)
		e.Step()
	}
}

// BenchmarkEngineTimerReset measures the Timer Reset/fire cycle used by
// every transport retransmission and delayed-ACK timer.
func BenchmarkEngineTimerReset(b *testing.B) {
	e := NewEngine(1)
	fired := 0
	t := NewTimer(e, func() { fired++ })
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		t.Reset(1)
		e.Step()
	}
	if fired != b.N {
		b.Fatalf("fired %d of %d", fired, b.N)
	}
}

// TestEngineZeroAllocPerEvent is the regression guard behind the
// benchmarks: the Schedule/Step cycle must not allocate in steady state.
func TestEngineZeroAllocPerEvent(t *testing.T) {
	e := NewEngine(1)
	var h HandlerID
	h = e.Handler(func(arg0, _ uint64) {
		e.ScheduleAfter(1, h, arg0+1, 0)
	})
	e.ScheduleAfter(1, h, 0, 0)
	// Warm the heap.
	for i := 0; i < 1000; i++ {
		e.Step()
	}
	if allocs := testing.AllocsPerRun(1000, func() { e.Step() }); allocs != 0 {
		t.Fatalf("Schedule/Step allocates %.1f per event; want 0", allocs)
	}
}

// TestTimerZeroAllocSteadyState guards the Timer Reset/fire cycle.
func TestTimerZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	for i := 0; i < 100; i++ {
		tm.Reset(1)
		e.Step()
	}
	allocs := testing.AllocsPerRun(1000, func() {
		tm.Reset(1)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("Timer Reset/fire allocates %.1f per cycle; want 0", allocs)
	}
}

// TestHeapZeroAllocWarm guards the heap: once the backing array has grown
// to the standing population, push/pop never allocate.
func TestHeapZeroAllocWarm(t *testing.T) {
	e := NewEngine(1)
	h := e.Handler(func(_, _ uint64) {})
	for i := 0; i < 600; i++ {
		e.Schedule(Time((i*2654435761)%100000), h, 0, 0)
	}
	i := 0
	allocs := testing.AllocsPerRun(1000, func() {
		i++
		e.Schedule(e.Now()+Time((i*2654435761)%100000)+1, h, 0, 0)
		e.Step()
	})
	if allocs != 0 {
		t.Fatalf("warm heap push/pop allocates %.1f per cycle; want 0", allocs)
	}
}
