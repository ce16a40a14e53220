package sim

import (
	"fmt"
	"math/rand"
)

// HandlerID names a pre-registered event handler (see Engine.Handler).
// The zero value is reserved as "no handler", so a zero Callback is inert.
type HandlerID uint32

// Callback pairs a handler with its scalar arguments. Components that
// notify a caller on completion (the memory controller, the IIO) accept a
// Callback, so a notification costs no allocation.
type Callback struct {
	ID         HandlerID
	Arg0, Arg1 uint64
}

// Set reports whether the callback names a handler.
func (cb Callback) Set() bool { return cb.ID != 0 }

// event is one scheduled occurrence. It is all scalars — no closure, no
// interface — so the heap is a flat []event that the GC never scans and
// push/pop never allocate.
type event struct {
	at         Time
	seq        uint64 // FIFO tie-break for events at the same instant
	id         HandlerID
	arg0, arg1 uint64
}

// eventHeap is a hand-rolled 4-ary min-heap ordered by (at, seq). 4-ary
// beats binary here: one fewer level per ~2x fan-out means fewer cache
// lines touched per pop, and the hot comparison loop over four children
// stays in one or two lines of the backing array. Because (at, seq) is a
// total order (seq is unique), the pop sequence is identical to any other
// min-heap's — heap shape cannot perturb simulation order.
type eventHeap struct {
	ev []event
}

func (h *eventHeap) len() int { return len(h.ev) }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e event) {
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

// pop removes and returns the minimum event. Unlike the old
// container/heap implementation there is no per-pop boxed copy and no
// zeroing write of the vacated slot: events hold no pointers, so the
// shrunken tail needs no clearing for the GC's sake.
func (h *eventHeap) pop() event {
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

// siftDown places e starting at the root, moving smaller children up.
func (h *eventHeap) siftDown(e event) {
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

// Engine is a single-threaded discrete-event scheduler.
//
// All model callbacks run from (*Engine).Run variants on the calling
// goroutine; models therefore never need synchronization. The engine owns a
// seeded RNG so that runs are deterministic and reproducible.
//
// Scheduling is handler-based: register a handler once with Handler, then
// Schedule/ScheduleAfter events carrying two scalar arguments — zero
// allocations per event in steady state. Per-event state that does not fit
// two scalars lives in a Slots table keyed by one of them; a one-off
// callback is a Timer.
type Engine struct {
	now     Time
	seq     uint64
	q       eventHeap
	seed    int64
	src     *countingSource
	rng     *rand.Rand
	stopped bool

	handlers []func(arg0, arg1 uint64)

	// Processed counts events executed so far; useful for perf accounting.
	Processed uint64

	// maxPending is the high-water mark of the event queue — diagnostic
	// only (Reserve sizing audits), deliberately excluded from Snapshot.
	maxPending int
}

// countingSource wraps the standard seeded source and counts draws, making
// RNG state digestible: the sequence is unchanged (every call delegates),
// and a snapshot records only (seed, draws), which determine the
// generator's state. Int63 and Uint64 both advance the underlying
// generator by exactly one step, so the count does not depend on which
// mix of calls consumed the draws.
type countingSource struct {
	src   rand.Source64
	draws uint64
}

func (s *countingSource) Int63() int64 {
	s.draws++
	return s.src.Int63()
}

func (s *countingSource) Uint64() uint64 {
	s.draws++
	return s.src.Uint64()
}

func (s *countingSource) Seed(seed int64) {
	s.src.Seed(seed)
	s.draws = 0
}

// defaultHeapHint pre-sizes the event heap: a loaded testbed keeps a few
// hundred events pending, so starting at 1024 avoids every warm-up
// regrowth without wasting memory on unit-test engines.
const defaultHeapHint = 1024

// NewEngine returns an engine at time zero with a deterministic RNG.
func NewEngine(seed int64) *Engine {
	src := &countingSource{src: rand.NewSource(seed).(rand.Source64)}
	e := &Engine{seed: seed, src: src, rng: rand.New(src)}
	e.q.ev = make([]event, 0, defaultHeapHint)
	return e
}

// Reserve pre-sizes the event heap's backing array for at least n pending
// events (a Config hint from the experiment harness), so warm-up never
// pays heap regrowth copies. It never shrinks.
func (e *Engine) Reserve(n int) {
	if n <= cap(e.q.ev) {
		return
	}
	grown := make([]event, len(e.q.ev), n)
	copy(grown, e.q.ev)
	e.q.ev = grown
}

// Handler registers fn and returns its ID for use with Schedule. Handlers
// are registered once per component at construction time; registration
// order must be deterministic (it is, under the single-threaded engine),
// but IDs carry no meaning across engines and are never serialized.
func (e *Engine) Handler(fn func(arg0, arg1 uint64)) HandlerID {
	if fn == nil {
		panic("sim: Handler with nil func")
	}
	e.handlers = append(e.handlers, fn)
	return HandlerID(len(e.handlers)) // IDs start at 1; 0 means "unset"
}

// Seed returns the seed the engine was created with.
func (e *Engine) Seed() int64 { return e.seed }

// RNGDraws returns how many values have been drawn from the engine RNG's
// source (the replay cursor of the RNG state).
func (e *Engine) RNGDraws() uint64 { return e.src.draws }

// Now returns the current simulation time.
func (e *Engine) Now() Time { return e.now }

// Rand returns the engine's deterministic random source.
func (e *Engine) Rand() *rand.Rand { return e.rng }

// Schedule arranges for handler id to run at absolute time t with the
// given arguments. This is the allocation-free hot path. Scheduling in the
// past is a programming error and panics: silently reordering time would
// corrupt every queueing model built on the engine.
func (e *Engine) Schedule(t Time, id HandlerID, arg0, arg1 uint64) {
	if id == 0 || int(id) > len(e.handlers) {
		panic(fmt.Sprintf("sim: Schedule with unregistered handler %d", id))
	}
	e.push(t, e.reserve(), id, arg0, arg1)
}

// reserve takes the next event's sequence number. A Timer reserves one
// on every re-arm, queued or not, so every seq is as if each re-arm had
// scheduled an event.
func (e *Engine) reserve() uint64 {
	e.seq++
	return e.seq
}

// push queues an event under the key (t, seq), seq taken from reserve.
func (e *Engine) push(t Time, seq uint64, id HandlerID, arg0, arg1 uint64) {
	if t < e.now {
		panic(fmt.Sprintf("sim: scheduling at %v before now %v", t, e.now))
	}
	e.q.push(event{at: t, seq: seq, id: id, arg0: arg0, arg1: arg1})
	if n := len(e.q.ev); n > e.maxPending {
		e.maxPending = n
	}
}

// ScheduleAfter schedules handler id to run d nanoseconds from now.
// Negative delays clamp to zero.
func (e *Engine) ScheduleAfter(d Time, id HandlerID, arg0, arg1 uint64) {
	if d < 0 {
		d = 0
	}
	e.Schedule(e.now+d, id, arg0, arg1)
}

// Invoke schedules a Callback at absolute time t. An unset Callback
// schedules nothing.
func (e *Engine) Invoke(t Time, cb Callback) {
	if cb.Set() {
		e.Schedule(t, cb.ID, cb.Arg0, cb.Arg1)
	}
}

// Dispatch invokes a handler synchronously, without scheduling an event.
// Components use it to run a caller-supplied Callback from inside their
// own event (e.g. a completion notification).
func (e *Engine) Dispatch(id HandlerID, arg0, arg1 uint64) {
	if id == 0 || int(id) > len(e.handlers) {
		panic(fmt.Sprintf("sim: Dispatch with unregistered handler %d", id))
	}
	e.handlers[id-1](arg0, arg1)
}

// Pending reports how many events are queued.
func (e *Engine) Pending() int { return e.q.len() }

// NextEventAt peeks the timestamp of the earliest queued event. The
// second return is false when the queue is empty. ShardGroup uses this
// at barriers to bound the next conservative window.
func (e *Engine) NextEventAt() (Time, bool) {
	if e.q.len() == 0 {
		return 0, false
	}
	return e.q.ev[0].at, true
}

// MaxPending reports the high-water mark of the event queue over the
// engine's lifetime (Reserve sizing audits).
func (e *Engine) MaxPending() int { return e.maxPending }

// HeapCap reports the event heap's backing capacity. Comparing it before
// and after a run detects regrowth — a Reserve hint that was too small —
// with no hot-path cost.
func (e *Engine) HeapCap() int { return cap(e.q.ev) }

// Stop makes the current Run call return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool {
	if e.q.len() == 0 {
		return false
	}
	ev := e.q.pop()
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.Processed++
	e.handlers[ev.id-1](ev.arg0, ev.arg1)
	return true
}

// Run executes events until the queue is empty or Stop is called.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
}

// RunUntil executes events with timestamps <= deadline, then sets the clock
// to the deadline (even if the queue still holds later events).
func (e *Engine) RunUntil(deadline Time) {
	e.stopped = false
	for !e.stopped {
		if e.q.len() == 0 || e.q.ev[0].at > deadline {
			break
		}
		e.Step()
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
