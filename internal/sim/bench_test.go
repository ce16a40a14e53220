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

// BenchmarkEngineHeap measures heap push/pop under a standing population
// of pending events, from about hostbound-3x's peak (164) to far deeper
// than leafspine-128's (836 per shard), to show how the cost per pop
// grows with queue depth. The standing=N shapes draw delays uniformly
// from 100 µs; the datapath shape draws them as a packet run's pushes
// fall: 92% within 1 µs, 6% at a 10 µs link delay and 2% at 1-3 ms
// timers, with leafspine-128's 836 standing.
func BenchmarkEngineHeap(b *testing.B) {
	uniform := func(i int) Time { return Time((i * 2654435761) % 100000) }
	datapath := func(i int) Time {
		switch r := (i * 2654435761) % 100000; {
		case r < 92000:
			return Time(r % 1000)
		case r < 98000:
			return 10*Microsecond + Time(r%64)
		default:
			return Time(r-97000) * Microsecond
		}
	}
	for _, c := range []struct {
		name     string
		standing int
		delay    func(int) Time
	}{
		{"standing=128", 128, uniform},
		{"standing=1024", 1024, uniform},
		{"standing=16384", 16384, uniform},
		{"datapath", 836, datapath},
	} {
		b.Run(c.name, func(b *testing.B) {
			e := NewEngine(1)
			h := e.Handler(func(_, _ uint64) {})
			for i := 0; i < c.standing; i++ {
				// Pseudo-random insertion times so the heap actually reorders.
				e.Schedule(c.delay(i), h, 0, 0)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				e.Schedule(e.Now()+c.delay(i)+1, h, 0, 0)
				e.Step()
			}
		})
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

// BenchmarkEngineTimerRearm measures the transport's RTO shape: a
// standing set of timers, each pushed to a later deadline before it can
// fire, as every ACK re-arms its flow's RTO. One op is one ACK; the
// "pending" metric is the queued events the shape keeps standing.
func BenchmarkEngineTimerRearm(b *testing.B) {
	e := NewEngine(1)
	const timers, rto = 64, 1000
	ts := make([]*Timer, timers)
	for i := range ts {
		ts[i] = NewTimer(e, func() { b.Fatal("a re-armed timer fired") })
	}
	var ack HandlerID
	ack = e.Handler(func(i, _ uint64) {
		ts[i%timers].Reset(rto)
		e.ScheduleAfter(1, ack, i+1, 0)
	})
	e.ScheduleAfter(1, ack, 0, 0)
	b.ReportAllocs()
	b.ResetTimer()
	e.RunUntil(Time(b.N))
	b.ReportMetric(float64(e.Pending()), "pending")
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

// TestTimerZeroAllocSteadyState guards the Timer Reset/fire cycle, and
// the early-wake re-queue of a timer re-armed later on every event
// before it can fire (the transport's RTO on every ACK).
func TestTimerZeroAllocSteadyState(t *testing.T) {
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	fire := func() {
		tm.Reset(1)
		e.Step()
	}

	late := NewEngine(1)
	rto := NewTimer(late, func() { t.Fatal("re-armed timer fired") })
	var ack HandlerID
	ack = late.Handler(func(_, _ uint64) {
		rto.Reset(2)
		late.ScheduleAfter(1, ack, 0, 0)
	})
	late.ScheduleAfter(1, ack, 0, 0)
	rearm := func() { late.Step() }

	for name, cycle := range map[string]func(){"fire": fire, "rearm-later": rearm} {
		for i := 0; i < 100; i++ {
			cycle()
		}
		if allocs := testing.AllocsPerRun(1000, cycle); allocs != 0 {
			t.Fatalf("Timer %s cycle allocates %.1f per event; want 0", name, allocs)
		}
	}
	if late.Pending() != 2 {
		t.Fatalf("re-armed timer keeps %d events queued with the ACK; want 2", late.Pending())
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
