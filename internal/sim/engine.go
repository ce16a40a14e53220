package sim

import (
	"fmt"
	"math"
	"math/bits"
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
// interface — so the queue is a flat []event that the GC never scans and
// push/pop never allocate. next links the event into its bucket (or a
// free slot into the free list) and sits in what would otherwise be
// padding, so an event is still 40 bytes.
type event struct {
	at         Time
	seq        uint64 // FIFO tie-break for events at the same instant
	id         HandlerID
	next       uint32 // slot index + 1 of the next event in the list; 0 ends it
	arg0, arg1 uint64
}

// eventHeap is a monotone radix heap over the 128-bit key (at, seq). A
// queued key always lies above the key popped last, and waits in the
// bucket named by the highest bit where the two differ: buckets 0-63 for
// a seq bit under the same at, 64-127 for an at bit. Every key in a lower
// bucket is smaller than every key in a higher one, so pop takes the
// minimum of the lowest non-empty bucket, makes it the last key, and
// re-links the bucket's other keys into strictly lower buckets; the keys
// in higher buckets still differ from the new last key at the same bit. Because (at,
// seq) is a total order (seq is unique), the pop sequence is the one any
// min-heap would produce.
//
// Events live in one slot array: each bucket is a list threaded through
// event.next, and freed slots are chained the same way for reuse, so
// len(ev) is the peak population and cap(ev) the reserved capacity.
type eventHeap struct {
	ev   []event
	head [128]uint32 // first slot (index + 1) of each bucket; 0 when empty
	mask [2]uint64   // bit b set while bucket b is non-empty
	free uint32      // first free slot (index + 1); 0 when none
	n    int
	// lastAt, lastSeq is the key of the event popped last.
	lastAt  Time
	lastSeq uint64
}

func (h *eventHeap) len() int { return h.n }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket names the highest bit where e's key differs from the last key.
func (h *eventHeap) bucket(e *event) int {
	if x := uint64(e.at ^ h.lastAt); x != 0 {
		return 63 + bits.Len64(x)
	}
	return bits.Len64(e.seq^h.lastSeq) - 1
}

// link threads slot i onto bucket b.
func (h *eventHeap) link(i uint32, b int) {
	h.ev[i-1].next = h.head[b]
	h.head[b] = i
	h.mask[b>>6] |= 1 << (b & 63)
}

// push queues e. A key at or below the last popped one would break the
// bucket order and panics. The engine never asks for one: every event is
// due no earlier than now and takes a fresh seq, or a Timer's reserved
// key, which lies above the wake that re-queues it.
func (h *eventHeap) push(e event) {
	if e.at < h.lastAt || e.at == h.lastAt && e.seq <= h.lastSeq {
		panic(fmt.Sprintf("sim: queueing key (%v, %d) at or below the last popped (%v, %d)",
			e.at, e.seq, h.lastAt, h.lastSeq))
	}
	i := h.free
	if i != 0 {
		h.free = h.ev[i-1].next
		h.ev[i-1] = e
	} else {
		h.ev = append(h.ev, e)
		i = uint32(len(h.ev))
	}
	h.link(i, h.bucket(&e))
	h.n++
}

// min returns the lowest non-empty bucket and the slot (index + 1) of its
// smallest key, or slot 0 when the heap is empty. It only reads: a later
// push may sort below an unpopped minimum, so the last key moves in pop
// alone.
func (h *eventHeap) min() (b int, m uint32) {
	switch {
	case h.mask[0] != 0:
		b = bits.TrailingZeros64(h.mask[0])
	case h.mask[1] != 0:
		b = 64 + bits.TrailingZeros64(h.mask[1])
	default:
		return 0, 0
	}
	m = h.head[b]
	for i := h.ev[m-1].next; i != 0; i = h.ev[i-1].next {
		if evLess(&h.ev[i-1], &h.ev[m-1]) {
			m = i
		}
	}
	return b, m
}

// pop removes slot m, the minimum of bucket b (from min), and makes its
// key the last popped. It returns the freed slot, which holds the event
// until the next push reuses it.
func (h *eventHeap) pop(b int, m uint32) *event {
	e := &h.ev[m-1]
	h.lastAt, h.lastSeq = e.at, e.seq
	i := h.head[b]
	h.head[b] = 0
	h.mask[b>>6] &^= 1 << (b & 63)
	for i != 0 {
		next := h.ev[i-1].next
		if i != m {
			h.link(i, h.bucket(&h.ev[i-1]))
		}
		i = next
	}
	e.next = h.free
	h.free = m
	h.n--
	return e
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
//
// The padding before and after the fields keeps the hot words of the
// shard engines NewShardGroup allocates back to back on cache lines of
// their own, so two shard goroutines never write the same line.
type Engine struct {
	_       [64]byte
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
	_          [64]byte
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

// Reserve pre-sizes the event heap's slot array for at least n pending
// events (a Config hint from the experiment harness), so warm-up never
// pays regrowth copies. It never shrinks.
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
	if n := e.q.len(); n > e.maxPending {
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
	_, m := e.q.min()
	if m == 0 {
		return 0, false
	}
	return e.q.ev[m-1].at, true
}

// MaxPending reports the high-water mark of the event queue over the
// engine's lifetime (Reserve sizing audits).
func (e *Engine) MaxPending() int { return e.maxPending }

// HeapCap reports the event heap's slot capacity. Comparing it before
// and after a run detects regrowth — a Reserve hint that was too small —
// with no hot-path cost.
func (e *Engine) HeapCap() int { return cap(e.q.ev) }

// Stop makes the current Run call return after the current event.
func (e *Engine) Stop() { e.stopped = true }

// Step executes the next event, if any, and reports whether one ran.
func (e *Engine) Step() bool { return e.stepBy(math.MaxInt64) }

// stepBy executes the next event if it is due by deadline and reports
// whether one ran. An event left queued leaves the heap untouched.
func (e *Engine) stepBy(deadline Time) bool {
	b, m := e.q.min()
	if m == 0 || e.q.ev[m-1].at > deadline {
		return false
	}
	ev := e.q.pop(b, m) // read before the handler can push into its slot
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
	for !e.stopped && e.stepBy(deadline) {
	}
	if e.now < deadline {
		e.now = deadline
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
