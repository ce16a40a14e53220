package sim

import (
	"reflect"
	"testing"
)

// pingPongTrace runs a two-shard ping-pong (each side echoes back after
// a local timer) and returns the delivery trace.
func pingPongTrace(t *testing.T, delay Time, rounds int) []Time {
	t.Helper()
	g := NewShardGroup(7, 2)
	defer g.Close()
	var trace []Time
	var b01, b10 *Boundary
	left := 0
	b01 = g.Connect(0, 1, delay, func(a0, _ uint64, _ any) {
		e := g.Shard(1)
		trace = append(trace, e.Now())
		if int(a0) < rounds {
			b10.Send(e.Now()+delay, a0+1, 0, nil)
		}
	})
	b10 = g.Connect(1, 0, delay, func(a0, _ uint64, _ any) {
		e := g.Shard(0)
		trace = append(trace, e.Now())
		left++
		if int(a0) < rounds {
			b01.Send(e.Now()+delay, a0+1, 0, nil)
		}
	})
	NewTimer(g.Shard(0), func() { b01.Send(g.Shard(0).Now()+delay, 1, 0, nil) }).ResetAt(0)
	g.RunUntil(Time(rounds+2) * (delay + Millisecond))
	return trace
}

func TestShardPingPongTiming(t *testing.T) {
	const delay = 5 * Microsecond
	trace := pingPongTrace(t, delay, 8)
	if len(trace) != 8 {
		t.Fatalf("got %d deliveries, want 8", len(trace))
	}
	for i, at := range trace {
		want := Time(i+1) * delay
		if at != want {
			t.Fatalf("delivery %d at %v, want %v", i, at, want)
		}
	}
}

// TestShardZeroDelayLockstep: a zero-delay boundary must degrade to
// minimum-lookahead lockstep windows, not deadlock, and deliveries are
// clamped to at most one window late.
func TestShardZeroDelayLockstep(t *testing.T) {
	g := NewShardGroup(1, 2)
	defer g.Close()
	if got := g.Lookahead(); got != farFuture {
		t.Fatalf("unconstrained lookahead = %v, want farFuture", got)
	}
	var arrivals []Time
	b := g.Connect(0, 1, 0, func(_, _ uint64, _ any) {
		arrivals = append(arrivals, g.Shard(1).Now())
	})
	if got := g.Lookahead(); got != DefaultMinLookahead {
		t.Fatalf("zero-delay lookahead = %v, want MinLookahead %v", got, DefaultMinLookahead)
	}
	const n = 50
	tick := 0
	NewTicker(g.Shard(0), Microsecond/2, func() {
		tick++
		if tick <= n {
			b.Send(g.Shard(0).Now(), uint64(tick), 0, nil)
		}
	})
	g.RunUntil(Millisecond) // would hang forever on deadlock
	if len(arrivals) != n {
		t.Fatalf("got %d arrivals, want %d", len(arrivals), n)
	}
	for i, at := range arrivals {
		sent := Time(i+1) * (Microsecond / 2)
		if at < sent {
			t.Fatalf("arrival %d at %v before send %v", i, at, sent)
		}
		if at > sent+DefaultMinLookahead {
			t.Fatalf("arrival %d at %v, > one lockstep window after send %v", i, at, sent)
		}
	}
}

// TestShardTimerOnHorizon: a timer due exactly at a window horizon must
// fire exactly once at its due time — horizon T belongs to the closing
// window (RunUntil is inclusive), and the next window starts after it.
func TestShardTimerOnHorizon(t *testing.T) {
	const delay = 10 * Microsecond
	g := NewShardGroup(3, 2)
	defer g.Close()
	b := g.Connect(0, 1, delay, func(_, _ uint64, _ any) {})
	// Window 1 covers (0, E+L] with E=0: horizon is exactly `delay`.
	NewTimer(g.Shard(0), func() { b.Send(delay, 0, 0, nil) }).ResetAt(0)
	fired := 0
	var firedAt Time
	tm := NewTimer(g.Shard(1), func() { fired++; firedAt = g.Shard(1).Now() })
	tm.ResetAt(delay) // exactly on shard 1's first horizon
	g.RunUntil(Millisecond)
	if fired != 1 {
		t.Fatalf("timer fired %d times, want 1", fired)
	}
	if firedAt != delay {
		t.Fatalf("timer fired at %v, want %v (the horizon)", firedAt, delay)
	}
}

// TestShardHookCadence: coordinator hooks fire at exact multiples of
// their period even when the lookahead windows don't align with them.
func TestShardHookCadence(t *testing.T) {
	g := NewShardGroup(9, 2)
	defer g.Close()
	b := g.Connect(0, 1, 7*Microsecond, func(_, _ uint64, _ any) {})
	NewTicker(g.Shard(0), 3*Microsecond, func() {
		b.Send(g.Shard(0).Now()+7*Microsecond, 0, 0, nil)
	})
	var at []Time
	g.Every(10*Microsecond, func() {
		if g.Now() != g.Shard(0).Now() || g.Now() != g.Shard(1).Now() {
			t.Fatalf("hook ran unquiesced: group %v, shards %v/%v",
				g.Now(), g.Shard(0).Now(), g.Shard(1).Now())
		}
		at = append(at, g.Now())
	})
	g.RunUntil(100 * Microsecond)
	if len(at) != 10 {
		t.Fatalf("hook fired %d times, want 10", len(at))
	}
	for i, ht := range at {
		if want := Time(i+1) * 10 * Microsecond; ht != want {
			t.Fatalf("hook %d at %v, want %v", i, ht, want)
		}
	}
}

// TestShardRunTwiceDeterministic: identical builds produce identical
// delivery traces (and identical RNG draw counts) despite goroutine
// scheduling being out of our control.
func TestShardRunTwiceDeterministic(t *testing.T) {
	run := func() ([4][]Time, [4][]uint64, uint64) {
		g := NewShardGroup(11, 4)
		defer g.Close()
		// Per-shard traces: delivery closures run on their own shard's
		// goroutine, so they must not share mutable state across shards.
		var trace [4][]Time
		var order [4][]uint64
		bs := make([]*Boundary, 4)
		for i := 0; i < 4; i++ {
			src, dst := i, (i+1)%4
			id := uint64(i)
			bs[i] = g.Connect(src, dst, Time(3+i)*Microsecond, func(a0, _ uint64, _ any) {
				e := g.Shard(dst)
				trace[dst] = append(trace[dst], e.Now())
				order[dst] = append(order[dst], id<<32|a0)
				if a0 < 40 {
					bs[dst].Send(e.Now()+bs[dst].Delay()+Time(e.Rand().Intn(5))*Microsecond, a0+1, 0, nil)
				}
			})
		}
		for i := 0; i < 4; i++ {
			e := g.Shard(i)
			i := i
			NewTimer(e, func() { bs[i].Send(e.Now()+bs[i].Delay(), 1, 0, nil) }).ResetAt(Time(i) * Microsecond)
		}
		g.RunUntil(2 * Millisecond)
		return trace, order, g.Exchanged()
	}
	t1, o1, x1 := run()
	t2, o2, x2 := run()
	if x1 == 0 {
		t.Fatal("no cross-shard messages exchanged")
	}
	if x1 != x2 || !reflect.DeepEqual(t1, t2) || !reflect.DeepEqual(o1, o2) {
		t.Fatalf("runs diverged: %d vs %d messages", x1, x2)
	}
}

// TestShardStopFromHook: Stop from a coordinator hook halts at that
// barrier with every shard aligned.
func TestShardStopFromHook(t *testing.T) {
	g := NewShardGroup(5, 2)
	defer g.Close()
	g.Connect(0, 1, Microsecond, func(_, _ uint64, _ any) {})
	NewTicker(g.Shard(0), Microsecond, func() {})
	var h *GroupHook
	h = g.Every(20*Microsecond, func() {
		if g.Now() >= 60*Microsecond {
			g.Stop()
			h.Stop()
		}
	})
	g.RunUntil(Millisecond)
	if g.Now() != 60*Microsecond {
		t.Fatalf("stopped at %v, want 60µs", g.Now())
	}
	if g.Shard(0).Now() != g.Now() || g.Shard(1).Now() != g.Now() {
		t.Fatalf("shards misaligned after stop: %v/%v vs %v",
			g.Shard(0).Now(), g.Shard(1).Now(), g.Now())
	}
	// The group must be restartable after a stop.
	g.RunUntil(Millisecond)
	if g.Now() != Millisecond {
		t.Fatalf("resume ended at %v, want 1ms", g.Now())
	}
}

// TestShardSentinelBarrierWait: a sentinel watching a quiesced-but-
// progressing group must not trip, and a wait graph whose only "waiting"
// nodes are shard barrier waits (Moving=true) classifies as idle, not
// deadlock.
func TestShardSentinelBarrierWait(t *testing.T) {
	g := NewShardGroup(13, 2)
	defer g.Close()
	b := g.Connect(0, 1, 5*Microsecond, func(_, _ uint64, _ any) {})
	var delivered uint64
	b2 := g.Connect(1, 0, 5*Microsecond, func(_, _ uint64, _ any) { delivered++ })
	_ = b2
	NewTicker(g.Shard(0), 10*Microsecond, func() {
		b.Send(g.Shard(0).Now()+5*Microsecond, 0, 0, nil)
	})
	s := NewSentinelOn(g, SentinelConfig{Window: 40 * Microsecond, Policy: SentinelAbort})
	s.AddProbe("exchanged", g.Exchanged)
	s.SetGraphBuilder(func() *WaitGraph {
		w := NewWaitGraph()
		// Barrier waits are not wedged: the shard is demand-less from the
		// graph's perspective (Moving=true), so classification can never
		// report a deadlock out of ordinary windowed synchronization.
		w.AddNodeKind("shard/0", "barrier", true, true, "at barrier")
		w.AddNodeKind("shard/1", "barrier", true, true, "at barrier")
		w.AddEdge("shard/0", "shard/1", "awaits horizon")
		w.AddEdge("shard/1", "shard/0", "awaits horizon")
		return w
	})
	s.Start()
	g.Every(10*Microsecond, s.Check)
	g.RunUntil(500 * Microsecond)
	if g.Now() != 500*Microsecond {
		t.Fatalf("sentinel aborted a healthy sharded run at %v", g.Now())
	}
	if s.Report() != nil {
		t.Fatalf("unexpected stall report: %v", s.Report())
	}
	if s.Checks == 0 {
		t.Fatal("sentinel never checked")
	}
	// Even when forced to classify, pure barrier waits are StallIdle.
	w := NewWaitGraph()
	w.AddNodeKind("shard/0", "barrier", true, true, "at barrier")
	w.AddNodeKind("shard/1", "barrier", true, true, "at barrier")
	w.AddEdge("shard/0", "shard/1", "awaits horizon")
	w.AddEdge("shard/1", "shard/0", "awaits horizon")
	if class, _ := w.Classify(); class != StallIdle {
		t.Fatalf("barrier-wait graph classified as %v, want %v", class, StallIdle)
	}
}
