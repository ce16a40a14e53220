package sim

import (
	"slices"
	"testing"
)

// heap4 is the 4-ary min-heap the radix eventHeap replaced, kept as the
// reference FuzzEventHeapOrder holds the two-tier heap to.
type heap4 struct {
	ev []event
}

func (h *heap4) push(e event) {
	h.ev = append(h.ev, e)
	ev := h.ev
	i := len(ev) - 1
	for i > 0 {
		p := (i - 1) >> 2
		if !evLess(&e, &ev[p]) {
			break
		}
		ev[i] = ev[p]
		i = p
	}
	ev[i] = e
}

func (h *heap4) pop() event {
	ev := h.ev
	root := ev[0]
	n := len(ev) - 1
	last := ev[n]
	h.ev = ev[:n]
	if n > 0 {
		h.siftDown(last)
	}
	return root
}

func (h *heap4) siftDown(e event) {
	ev := h.ev
	n := len(ev)
	i := 0
	for {
		c := i<<2 + 1
		if c >= n {
			break
		}
		m := c
		end := c + 4
		if end > n {
			end = n
		}
		for j := c + 1; j < end; j++ {
			if evLess(&ev[j], &ev[m]) {
				m = j
			}
		}
		if !evLess(&ev[m], &e) {
			break
		}
		ev[i] = ev[m]
		i = m
	}
	ev[i] = e
}

// refEngine runs the engine loop over heap4. The embedded Engine still
// takes every push, so Schedule and Timer run unchanged; sync moves what
// they queued, from wheel slots and radix buckets alike, into heap4
// before the loop looks at the queue. The eventHeap underneath never
// pops, so its last keys stay zero and it accepts every push.
type refEngine struct {
	*Engine
	h heap4
}

func (r *refEngine) sync() {
	q := &r.Engine.q
	if q.n == 0 {
		return
	}
	for _, lists := range [][]uint32{q.wheel[:], q.head[:]} {
		for _, i := range lists {
			for ; i != 0; i = q.ev[i-1].next {
				r.h.push(q.ev[i-1])
			}
		}
	}
	r.Engine.q = eventHeap{ev: q.ev[:0]}
}

func (r *refEngine) Pending() int {
	r.sync()
	return len(r.h.ev)
}

func (r *refEngine) NextEventAt() (Time, bool) {
	r.sync()
	if len(r.h.ev) == 0 {
		return 0, false
	}
	return r.h.ev[0].at, true
}

func (r *refEngine) Step() bool {
	r.sync()
	if len(r.h.ev) == 0 {
		return false
	}
	ev := r.h.pop()
	r.now = ev.at
	r.Processed++
	r.handlers[ev.id-1](ev.arg0, ev.arg1)
	return true
}

func (r *refEngine) RunUntil(deadline Time) {
	for {
		if at, ok := r.NextEventAt(); !ok || at > deadline {
			break
		}
		r.Step()
	}
	r.now = max(r.now, deadline)
}

// queue is the part of the engine whose behaviour depends on the heap.
type queue interface {
	Step() bool
	RunUntil(deadline Time)
	NextEventAt() (Time, bool)
	Pending() int
}

// heapDispatch is one line of a heap script's log: every dispatched
// event, plain or a timer's wake, carries the seq it was queued under
// in arg0.
type heapDispatch struct {
	at         Time
	id         HandlerID
	arg0, arg1 uint64
}

// heapScript runs a FuzzEventHeapOrder script on one engine: q drives
// the queue (the engine itself, or a refEngine around it) and e
// schedules.
type heapScript struct {
	q      queue
	e      *Engine
	plain  HandlerID
	timers [4]*Timer
	log    []heapDispatch
}

func newHeapScript(ref bool) *heapScript {
	s := &heapScript{e: NewEngine(1)}
	s.q = s.e
	if ref {
		s.q = &refEngine{Engine: s.e}
	}
	// A plain event's arg1 is a chain: each nonzero link queues one more
	// event 0 or 1 ns later, from inside the dispatch.
	s.plain = s.e.Handler(func(_, chain uint64) {
		if chain != 0 {
			s.schedule(s.e.Now()+Time(chain&1), chain>>1)
		}
	})
	for i := range s.timers {
		s.timers[i] = NewTimer(s.e, func() {})
	}
	for i, fn := range s.e.handlers {
		id := HandlerID(i + 1)
		s.e.handlers[i] = func(arg0, arg1 uint64) {
			s.log = append(s.log, heapDispatch{s.e.Now(), id, arg0, arg1})
			fn(arg0, arg1)
		}
	}
	return s
}

// schedule queues a plain event whose arg0 is the seq it takes.
func (s *heapScript) schedule(t Time, chain uint64) {
	s.e.Schedule(t, s.plain, s.e.seq+1, chain)
}

// op runs one 2-byte script op. The low three bits of op pick it; its
// high five bits (x) and arg are its parameters.
func (s *heapScript) op(op, arg byte) {
	now, x := s.e.Now(), op>>3
	switch op & 7 {
	case 0: // a nanosecond delta, zero included
		s.schedule(now+Time(arg%16), uint64(x))
	case 1: // far future beside the nanosecond deltas
		s.schedule(now+5*Millisecond+Time(arg), uint64(x))
	case 2: // just below, at or just above the next multiple of 2^k
		k := arg % 48
		s.schedule((now>>k+1)<<k+Time(x%3)-1, 0)
	case 3:
		s.timers[x%4].Reset(Time(arg) << (x / 4))
	case 4:
		if x < 4 {
			s.timers[x].Stop()
			break
		}
		// 1-1,100 ns after the last dispatched instant, clamped to now:
		// across the wheel's edge at +1,023/+1,024 and, once RunUntil
		// has moved the clock on, ahead of the wheel's base.
		var last Time
		if n := len(s.log); n > 0 {
			last = s.log[n-1].at
		}
		s.schedule(max(now, last+1+Time(int(x-4)<<8|int(arg))%1100), 0)
	case 5:
		s.q.RunUntil(now + Time(arg)<<(x%16))
	case 6: // peek, then schedule below the peeked minimum
		if at, ok := s.q.NextEventAt(); ok && at > now {
			s.schedule(now+(at-now)*Time(arg)/256, uint64(x))
		}
	case 7: // run to a deadline short of the earliest event
		if at, ok := s.q.NextEventAt(); ok && at > now {
			s.q.RunUntil(now + (at-1-now)*Time(arg)/255)
		} else {
			s.q.Step()
		}
	}
}

// FuzzEventHeapOrder runs one script on an engine and on a refEngine,
// the same engine loop over the 4-ary heap the event queue once was. Ops
// schedule at nanosecond deltas (zero included, so same-instant ties),
// far in the future, across 2^k boundaries of the clock, and up to
// 1,100 ns past the last dispatched instant, across the wheel's edge;
// re-arm and stop timers; run to deadlines short of the earliest event;
// and peek the earliest event, then schedule below it. Both must dispatch
// the same events in the same order, hold the same number pending after
// every op and every step of the final drain, and end on the same seq.
func FuzzEventHeapOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) > 1024 {
			return
		}
		ref, got := newHeapScript(true), newHeapScript(false)
		check := func(op int) {
			if g, r := got.q.Pending(), ref.q.Pending(); g != r {
				t.Fatalf("after op %d: %d events pending, reference %d", op, g, r)
			}
		}
		ops := 0
		for ; 2*ops+1 < len(data); ops++ {
			ref.op(data[2*ops], data[2*ops+1])
			got.op(data[2*ops], data[2*ops+1])
			check(ops)
		}
		for ref.q.Step() {
			if !got.q.Step() {
				t.Fatal("queue ran dry before the reference's")
			}
			check(ops) // the drain's steps count as one more op
		}
		if got.q.Step() {
			t.Fatal("events left after the reference ran dry")
		}
		if !slices.Equal(got.log, ref.log) {
			t.Fatalf("dispatch log differs:\n got %v\nwant %v", got.log, ref.log)
		}
		if got.e.seq != ref.e.seq {
			t.Fatalf("final seq %d, reference %d", got.e.seq, ref.e.seq)
		}
	})
}

// TestEventHeapRejectsKeyBelowLastPopped checks the radix heap's one
// invariant: a key below the last popped one panics instead of being
// filed into a bucket it cannot sort in. A Timer that misplaced its
// reserved seq would push exactly such a key, due now but older.
func TestEventHeapRejectsKeyBelowLastPopped(t *testing.T) {
	e := NewEngine(1)
	h := e.Handler(func(_, _ uint64) {})
	stale := e.ReserveSeq()
	e.Schedule(10, h, 0, 0)
	e.RunUntil(10)
	defer func() {
		if recover() == nil {
			t.Fatal("a key below the last popped one was queued")
		}
	}()
	e.push(10, stale, h, 0, 0)
}
