package sim

import "sort"

// ShardGroup couples several Engines into one parallel simulation using
// conservative (lookahead-based) synchronization, the loose coupling
// SimBricks applies between component simulators. Each shard owns its
// device models and runs on its own goroutine; shards interact only
// through Boundaries — timestamped message channels whose minimum delay
// is the group's lookahead L. The coordinator advances the group in
// windows: with every shard quiesced at barrier time T and the earliest
// pending event anywhere at E >= T, no shard can emit a message before E,
// and a message emitted at t arrives at t+delay >= E+L — so every shard
// may safely run to E+L without missing a cross-shard arrival. At the
// barrier the coordinator drains every boundary outbox and schedules the
// messages into their destination engines in a deterministic merge order:
// ascending arrival time, ties broken by boundary creation order and
// per-boundary sequence. Destination-side event seq assignment therefore
// never depends on goroutine interleaving, which is what makes a
// multi-shard run reproduce its digest timeline run over run.
//
// Degenerate boundaries whose delay is below MinLookahead do not shrink
// the window to zero (that would deadlock progress): the window is
// clamped to at least MinLookahead and their messages are delivered at
// max(arrival time, barrier time) — the group degrades to lockstep with
// a bounded delivery skew instead of hanging.
type ShardGroup struct {
	shards []*Engine
	bounds []*Boundary   // creation order (the deterministic tiebreak)
	inBnd  [][]*Boundary // boundaries grouped by destination shard
	hooks  []*GroupHook

	now       Time
	stopped   bool
	workers   []*shardWorker
	scratch   []inflightMsg
	exchanged uint64 // cross-shard messages delivered so far
}

// DefaultMinLookahead is the smallest synchronization window the group
// will use even when a boundary's delay is (near-)zero.
const DefaultMinLookahead = Microsecond

// farFuture is the horizon used when no boundary constrains progress; it
// is effectively "run to the deadline" while staying safely below Time
// overflow when lookahead is added to an event timestamp.
const farFuture = Time(1) << 61

// NewShardGroup creates n engines with deterministically derived
// per-shard seeds. Shard 0's engine uses the group seed itself.
func NewShardGroup(seed int64, n int) *ShardGroup {
	if n < 1 {
		panic("sim: ShardGroup needs at least one shard")
	}
	g := &ShardGroup{}
	for i := 0; i < n; i++ {
		s := seed
		if i > 0 {
			// Spread the streams so shard i of seed s never aliases
			// shard j of seed s' (golden-ratio multiplicative hash).
			s = seed ^ (int64(i) * -0x61c8864680b583eb)
		}
		g.shards = append(g.shards, NewEngine(s))
		g.inBnd = append(g.inBnd, nil)
	}
	return g
}

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Shard returns shard i's engine. Models built on it must only be
// touched from that engine's events (or between Run calls, when every
// shard is quiesced at the same barrier time).
func (g *ShardGroup) Shard(i int) *Engine { return g.shards[i] }

// Lookahead returns the group's conservative window: the minimum
// boundary delay, clamped from below by the minimum lookahead.
func (g *ShardGroup) Lookahead() Time {
	la := farFuture
	for _, b := range g.bounds {
		if b.delay < la {
			la = b.delay
		}
	}
	if la < DefaultMinLookahead {
		la = DefaultMinLookahead
	}
	return la
}

// Now returns the group's barrier time. Between Run calls every shard's
// clock equals it.
func (g *ShardGroup) Now() Time { return g.now }

// Pending sums queued events across shards (quiesced reads only).
func (g *ShardGroup) Pending() int {
	n := 0
	for _, e := range g.shards {
		n += e.Pending()
	}
	return n
}

// Exchanged returns how many cross-shard messages have been delivered.
func (g *ShardGroup) Exchanged() uint64 { return g.exchanged }

// Stop makes the current RunUntil return at the next barrier. Safe to
// call from a coordinator hook (or between runs); shard events must not
// call it — they would stop only their own engine's window.
func (g *ShardGroup) Stop() { g.stopped = true }

// boundMsg is one cross-shard message in flight.
type boundMsg struct {
	at      Time
	seq     uint64 // per-boundary sequence: the stable tiebreak
	a0, a1  uint64
	payload any
}

// inflightMsg pairs a drained message with its boundary during the merge.
type inflightMsg struct {
	b *Boundary
	m boundMsg
}

// Boundary is a one-directional cross-shard message channel with a fixed
// minimum delay (its lookahead contribution). The source shard appends
// messages to the outbox during its window (no locking: the outbox is
// only touched by the source worker inside a window and by the
// coordinator at barriers, which the worker handshake orders). The
// coordinator merges outboxes deterministically and schedules delivery
// events on the destination engine; deliveries pop the boundary's FIFO
// inbox, whose order matches the scheduled order by construction.
type Boundary struct {
	g        *ShardGroup
	src, dst int
	delay    Time
	deliver  func(a0, a1 uint64, payload any)
	recvH    HandlerID // on the destination engine

	seq    uint64
	outbox []boundMsg
	inbox  []boundMsg
	head   int
}

// Connect creates a boundary from shard src to shard dst whose messages
// take at least delay to cross (delay is exported as lookahead). deliver
// runs on the destination engine at each message's arrival time. Must be
// called at build time, before the group runs.
func (g *ShardGroup) Connect(src, dst int, delay Time, deliver func(a0, a1 uint64, payload any)) *Boundary {
	if src < 0 || src >= len(g.shards) || dst < 0 || dst >= len(g.shards) {
		panic("sim: boundary endpoint outside the shard group")
	}
	if delay < 0 {
		panic("sim: negative boundary delay")
	}
	if deliver == nil {
		panic("sim: nil boundary deliver")
	}
	b := &Boundary{g: g, src: src, dst: dst, delay: delay, deliver: deliver}
	b.recvH = g.shards[dst].Handler(b.recvEvent)
	g.bounds = append(g.bounds, b)
	g.inBnd[dst] = append(g.inBnd[dst], b)
	return b
}

// Delay returns the boundary's minimum crossing delay.
func (b *Boundary) Delay() Time { return b.delay }

// Send queues one message for arrival at absolute time at (>= source
// now + the boundary delay for full timing fidelity; earlier arrivals
// are clamped to the delivering barrier). Call only from the source
// shard's events.
func (b *Boundary) Send(at Time, a0, a1 uint64, payload any) {
	b.seq++
	b.outbox = append(b.outbox, boundMsg{at: at, seq: b.seq, a0: a0, a1: a1, payload: payload})
}

// recvEvent runs on the destination engine; deliveries pop the FIFO
// inbox, which the coordinator filled in scheduled order.
func (b *Boundary) recvEvent(_, _ uint64) {
	m := b.inbox[b.head]
	b.inbox[b.head] = boundMsg{}
	b.head++
	if b.head == len(b.inbox) {
		b.inbox = b.inbox[:0]
		b.head = 0
	}
	b.deliver(m.a0, m.a1, m.payload)
}

// GroupHook is a periodic coordinator callback: it runs at barriers,
// with every shard quiesced at the same time — the sharded analogue of a
// Ticker for digest recorders, sentinels and window marks. Hook times
// bound the window, so a hook fires exactly at its due time.
type GroupHook struct {
	period  Time
	next    Time
	fn      func()
	stopped bool
}

// Every registers a hook firing every period, first at now+period.
func (g *ShardGroup) Every(period Time, fn func()) *GroupHook {
	if period <= 0 {
		panic("sim: non-positive hook period")
	}
	if fn == nil {
		panic("sim: nil hook")
	}
	h := &GroupHook{period: period, next: g.now + period, fn: fn}
	g.hooks = append(g.hooks, h)
	return h
}

// Stop halts the hook.
func (h *GroupHook) Stop() { h.stopped = true }

// shardWorker is one shard's persistent run goroutine. The channel
// handshake orders every coordinator access to a shard's state against
// the worker's window (and vice versa), so barrier-time reads and the
// outbox drain need no locks.
type shardWorker struct {
	e    *Engine
	cmd  chan Time
	done chan struct{}
}

func (w *shardWorker) loop() {
	for deadline := range w.cmd {
		w.e.RunUntil(deadline)
		w.done <- struct{}{}
	}
}

// start spawns the workers on first use.
func (g *ShardGroup) start() {
	if g.workers != nil {
		return
	}
	for _, e := range g.shards {
		w := &shardWorker{e: e, cmd: make(chan Time), done: make(chan struct{})}
		g.workers = append(g.workers, w)
		go w.loop()
	}
}

// Close terminates the worker goroutines. The group may not run again.
func (g *ShardGroup) Close() {
	for _, w := range g.workers {
		close(w.cmd)
	}
	g.workers = nil
}

// minNextEvent returns the earliest pending event timestamp across
// shards (quiesced read).
func (g *ShardGroup) minNextEvent() (Time, bool) {
	var at Time
	any := false
	for _, e := range g.shards {
		if t, ok := e.NextEventAt(); ok && (!any || t < at) {
			at, any = t, true
		}
	}
	return at, any
}

// nextHookAt returns the earliest due time among live hooks.
func (g *ShardGroup) nextHookAt() (Time, bool) {
	var at Time
	any := false
	for _, h := range g.hooks {
		if !h.stopped && (!any || h.next < at) {
			at, any = h.next, true
		}
	}
	return at, any
}

// safeHorizon picks the next barrier: the conservative bound E+L capped
// by the deadline and the next hook time.
func (g *ShardGroup) safeHorizon(deadline, lookahead Time) Time {
	target := deadline
	if earliest, any := g.minNextEvent(); any {
		base := earliest
		if base < g.now {
			base = g.now
		}
		if t := base + lookahead; t < target {
			target = t
		}
	}
	if h, ok := g.nextHookAt(); ok && h < target {
		target = h
	}
	if target <= g.now {
		// Only reachable through a hook already due at the barrier (fired
		// there) or a zero-length window request; force progress.
		target = g.now + lookahead
		if target > deadline {
			target = deadline
		}
	}
	return target
}

// runWindow advances every shard to target in parallel and waits for all
// of them (the barrier).
func (g *ShardGroup) runWindow(target Time) {
	for _, w := range g.workers {
		w.cmd <- target
	}
	for _, w := range g.workers {
		<-w.done
	}
}

// exchange drains every boundary outbox and schedules the messages into
// their destination engines in the deterministic merge order.
func (g *ShardGroup) exchange() {
	for dst, bl := range g.inBnd {
		if len(bl) == 0 {
			continue
		}
		g.scratch = g.scratch[:0]
		for _, b := range bl {
			for i := range b.outbox {
				g.scratch = append(g.scratch, inflightMsg{b: b, m: b.outbox[i]})
				b.outbox[i] = boundMsg{}
			}
			b.outbox = b.outbox[:0]
		}
		if len(g.scratch) == 0 {
			continue
		}
		// Stable sort by arrival time: ties keep collection order, i.e.
		// (boundary creation order, per-boundary sequence) — the
		// deterministic tiebreak. Restricted to one boundary the order is
		// its send order, so FIFO inbox pops match the scheduled order.
		sort.SliceStable(g.scratch, func(i, j int) bool {
			return g.scratch[i].m.at < g.scratch[j].m.at
		})
		e := g.shards[dst]
		for _, im := range g.scratch {
			at := im.m.at
			if at < e.Now() {
				at = e.Now() // degenerate-delay clamp: deliver at the barrier
			}
			im.b.inbox = append(im.b.inbox, im.m)
			e.Schedule(at, im.b.recvH, 0, 0)
			g.exchanged++
		}
	}
	clear(g.scratch)
}

// fireHooks runs every hook due at the current barrier.
func (g *ShardGroup) fireHooks() {
	for _, h := range g.hooks {
		for !h.stopped && h.next <= g.now {
			h.fn()
			h.next += h.period
		}
	}
}

// RunUntil advances the group to deadline through conservative windows,
// then leaves every shard's clock at the deadline (or at the aborting
// barrier if Stop was called from a hook).
func (g *ShardGroup) RunUntil(deadline Time) {
	g.start()
	g.stopped = false
	lookahead := g.Lookahead()
	for !g.stopped && g.now < deadline {
		target := g.safeHorizon(deadline, lookahead)
		g.runWindow(target)
		g.now = target
		g.exchange()
		g.fireHooks()
	}
}

// RunFor advances the group by d.
func (g *ShardGroup) RunFor(d Time) { g.RunUntil(g.now + d) }
