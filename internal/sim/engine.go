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

// wheelSlots is the near tier's horizon in nanoseconds: a key due within
// it of the last popped instant takes a wheel slot, a later one a radix
// bucket. 90-95% of a packet run's pushes fall within 1,024 ns (PCIe,
// IIO and DRAM stages); most of the rest fall between 4 and 16 µs, where
// the 9 µs link propagation lies.
const wheelSlots = 1024

// eventHeap is a two-tier priority queue over the key (at, seq). Every
// queued key lies above the key popped last, (lastAt, lastSeq).
//
// The near tier is a timing wheel of one-nanosecond slots. A key with at
// in [lastAt, lastAt+wheelSlots) waits in slot at mod wheelSlots, so a
// slot holds a single instant, listed in seq order (a Timer's reserved
// seq can be older than a queued fresh one). The earliest near key heads
// the first non-empty slot at or after lastAt's, circularly. The range
// holds as lastAt grows, because it only grows to a popped key, which no
// queued key precedes.
//
// The far tier is a monotone radix heap with a last key of its own,
// (farAt, farSeq), which only its own pops advance. A key waits in the
// bucket named by the highest bit where it differs from that key:
// buckets 0-63 for a seq bit under the same at, 64-127 for an at bit.
// Every key in a lower bucket is smaller than every key in a higher one,
// so a far pop takes the minimum of the lowest non-empty bucket and
// re-links the bucket's other keys into strictly lower buckets; the keys
// in higher buckets still differ from the new last key at the same bit.
// farMin caches the tier's minimum; a far pop clears it and the next min
// scans the lowest bucket for it, as the bucket stands after any pushes
// in between.
//
// Pop takes the smaller of the two tiers' minima. Because (at, seq) is a
// total order (seq is unique), the pop sequence is the one any min-heap
// would produce.
//
// Events live in one slot array: each wheel slot and bucket is a list
// threaded through event.next, and freed slots are chained the same way
// for reuse, so len(ev) is the peak population and cap(ev) the reserved
// capacity. The hot scalars come before the list heads.
type eventHeap struct {
	ev      []event
	free    uint32 // first free slot (index + 1); 0 when none
	farMin  uint32 // slot (index + 1) of the far tier's minimum; 0 when empty or not yet found
	n       int
	lastAt  Time
	lastSeq uint64
	farAt   Time
	farSeq  uint64
	wsum    uint64                  // bit w set while wmask[w] is non-zero
	mask    [2]uint64               // bit b set while bucket b is non-empty
	wmask   [wheelSlots / 64]uint64 // bit s set while wheel slot s is non-empty
	head    [128]uint32             // first slot (index + 1) of each bucket; 0 when empty
	wheel   [wheelSlots]uint32      // first slot (index + 1) of each instant; 0 when empty
}

func (h *eventHeap) len() int { return h.n }

func evLess(a, b *event) bool {
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// bucket names the highest bit where e's key differs from the far
// tier's last key.
func (h *eventHeap) bucket(e *event) int {
	if x := uint64(e.at ^ h.farAt); x != 0 {
		return 63 + bits.Len64(x)
	}
	return bits.Len64(e.seq^h.farSeq) - 1
}

// link threads slot i onto bucket b.
func (h *eventHeap) link(i uint32, b int) {
	h.ev[i-1].next = h.head[b]
	h.head[b] = i
	h.mask[b>>6] |= 1 << (b & 63)
}

// push queues e. A key at or below the last popped one would break both
// tiers' order and panics. The engine never asks for one: every event is
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
	if e.at-h.lastAt < wheelSlots {
		h.pushNear(i, int(e.at)&(wheelSlots-1), e.seq)
	} else {
		h.link(i, h.bucket(&e))
		if h.farMin != 0 && evLess(&e, &h.ev[h.farMin-1]) {
			h.farMin = i
		}
	}
	h.n++
}

// pushNear inserts slot i into wheel slot s in seq order.
func (h *eventHeap) pushNear(i uint32, s int, seq uint64) {
	p := &h.wheel[s]
	for *p != 0 && h.ev[*p-1].seq < seq {
		p = &h.ev[*p-1].next
	}
	h.ev[i-1].next = *p
	*p = i
	h.wmask[s>>6] |= 1 << (s & 63)
	h.wsum |= 1 << (s >> 6)
}

// min returns the slot (index + 1) of the smallest queued key, or 0 when
// the heap is empty. It moves no key, because a later push may sort below
// an unpopped minimum; it only caches the far tier's minimum, which a far
// pop leaves unknown.
func (h *eventHeap) min() uint32 {
	m := h.farMin
	if m == 0 && h.mask != [2]uint64{} {
		m = h.head[h.lowest()]
		for i := h.ev[m-1].next; i != 0; i = h.ev[i-1].next {
			if evLess(&h.ev[i-1], &h.ev[m-1]) {
				m = i
			}
		}
		h.farMin = m
	}
	if h.wsum != 0 {
		if w := h.wheel[h.firstSlot()]; m == 0 || evLess(&h.ev[w-1], &h.ev[m-1]) {
			m = w
		}
	}
	return m
}

// firstSlot returns the first non-empty wheel slot at or after lastAt's,
// circularly; the wheel must not be empty.
func (h *eventHeap) firstSlot() int {
	s := int(h.lastAt) & (wheelSlots - 1)
	w := s >> 6
	if m := h.wmask[w] >> (s & 63); m != 0 {
		return s + bits.TrailingZeros64(m)
	}
	sum := h.wsum >> (w + 1) << (w + 1)
	if sum == 0 {
		sum = h.wsum // wrap past the last slot
	}
	w = bits.TrailingZeros64(sum)
	return w<<6 + bits.TrailingZeros64(h.wmask[w])
}

// pop removes slot m, the minimum from min, and makes its key the last
// popped. A far pop also makes it the far tier's last key and re-links
// the rest of its bucket lower. pop returns the freed slot, which holds
// the event until the next push reuses it.
func (h *eventHeap) pop(m uint32) *event {
	e := &h.ev[m-1]
	if m == h.farMin {
		h.farMin = 0
		h.farAt, h.farSeq = e.at, e.seq
		b := h.lowest()
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
	} else if s := int(e.at) & (wheelSlots - 1); e.next != 0 {
		h.wheel[s] = e.next
	} else {
		h.wheel[s] = 0
		if h.wmask[s>>6] &^= 1 << (s & 63); h.wmask[s>>6] == 0 {
			h.wsum &^= 1 << (s >> 6)
		}
	}
	h.lastAt, h.lastSeq = e.at, e.seq
	e.next = h.free
	h.free = m
	h.n--
	return e
}

// lowest returns the lowest non-empty bucket; the far tier must not be
// empty.
func (h *eventHeap) lowest() int {
	if h.mask[0] != 0 {
		return bits.TrailingZeros64(h.mask[0])
	}
	return 64 + bits.TrailingZeros64(h.mask[1])
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
	seed    int64
	src     *countingSource
	rng     *rand.Rand
	stopped bool

	// keyAt, keySeq is the key Key reports.
	keyAt  Time
	keySeq uint64

	handlers []func(arg0, arg1 uint64)
	lazy     []Lazy

	// Processed counts events executed so far; useful for perf accounting.
	Processed uint64

	// maxPending is the high-water mark of the event queue — diagnostic
	// only (Reserve sizing audits), deliberately excluded from Snapshot.
	maxPending int

	q eventHeap // last: its hot words lead, its list heads trail
	_ [64]byte
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
	e := &Engine{seed: seed, src: src, rng: rand.New(src), keySeq: math.MaxUint64}
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
	e.push(t, e.ReserveSeq(), id, arg0, arg1)
}

// ReserveSeq takes the next event's sequence number. A Timer reserves
// one on every re-arm, queued or not, and a lazy item (see Lazy) one
// where it would have been scheduled, so every seq is as if each had
// scheduled an event.
func (e *Engine) ReserveSeq() uint64 {
	e.seq++
	return e.seq
}

// Key returns the key lazy items are retired against: an item whose key
// (at, seq) lies below it is due. During a handler it is the running
// event's key, and after Step or a Stop the last event's; once a run has
// reached now with nothing left to run there, it is (now, MaxUint64).
func (e *Engine) Key() (Time, uint64) { return e.keyAt, e.keySeq }

// Lazy is work a component keeps off the event queue. Each item holds a
// key (at, seq), its seq taken from ReserveSeq, and changes only the
// component's own state, which the component brings up to date before
// every read or change of it by applying, in key order, each item below
// Key. So every item takes effect at its place in the event order
// without being an event.
type Lazy interface {
	// NextAt applies the items that are due and returns the earliest
	// time among the rest, false when none is left.
	NextAt() (Time, bool)
	// Drain applies every item and returns the latest one's time, false
	// when none was pending.
	Drain() (Time, bool)
}

// AddLazy registers a component's lazy items. NextEventAt then reports
// them too, so shard barriers fall where they would if each item were an
// event, and Run drains them before it returns.
func (e *Engine) AddLazy(l Lazy) { e.lazy = append(e.lazy, l) }

// push queues an event under the key (t, seq), seq taken from ReserveSeq.
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

// NextEventAt peeks the timestamp of the earliest queued event or
// pending lazy item. The second return is false when there is neither.
// ShardGroup uses this at barriers to bound the next conservative window.
func (e *Engine) NextEventAt() (Time, bool) {
	m := e.q.min()
	at, ok := Time(0), m != 0
	if ok {
		at = e.q.ev[m-1].at
	}
	for _, l := range e.lazy {
		if t, lok := l.NextAt(); lok && (!ok || t < at) {
			at, ok = t, true
		}
	}
	return at, ok
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

// Step executes the next queued event, if any, and reports whether one
// ran. Lazy items are not events: they take effect as their component
// reads its state, or when Run drains them.
func (e *Engine) Step() bool { return e.stepBy(math.MaxInt64) }

// stepBy executes the next event if it is due by deadline and reports
// whether one ran. An event left queued leaves the heap untouched.
func (e *Engine) stepBy(deadline Time) bool {
	m := e.q.min()
	if m == 0 || e.q.ev[m-1].at > deadline {
		return false
	}
	ev := e.q.pop(m) // read before the handler can push into its slot
	if ev.at < e.now {
		panic("sim: time went backwards")
	}
	e.now = ev.at
	e.keyAt, e.keySeq = ev.at, ev.seq
	e.Processed++
	e.handlers[ev.id-1](ev.arg0, ev.arg1)
	return true
}

// Run executes events until the queue is empty or Stop is called. A run
// that empties the queue then drains every lazy item and moves the clock
// to the latest item's time, as if each had been an event.
func (e *Engine) Run() {
	e.stopped = false
	for !e.stopped && e.Step() {
	}
	if e.stopped {
		return
	}
	for _, l := range e.lazy {
		if t, ok := l.Drain(); ok && t > e.now {
			e.now = t
		}
	}
	e.reached(e.now)
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
	if !e.stopped {
		e.reached(deadline)
	}
}

// reached records that every event due by t has run, so lazy items due
// by t are due too. A Stop keeps the last event's key instead: RunUntil
// still moves the clock, but the events after the stopping one have not
// run.
func (e *Engine) reached(t Time) {
	if t >= e.keyAt {
		e.keyAt, e.keySeq = t, math.MaxUint64
	}
}

// RunFor advances the simulation by d.
func (e *Engine) RunFor(d Time) { e.RunUntil(e.now + d) }
