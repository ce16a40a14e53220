package telemetry

import (
	"repro/internal/packet"
	"repro/internal/sim"
)

// Hop identifies one stage of the receive datapath (or one control-plane
// activity) that packets/operations reside in; each hop renders as one
// Perfetto thread track of spans.
type Hop uint8

// Hops, in datapath order.
const (
	// HopNICQueue is NIC buffer residence: wire arrival → DMA start.
	HopNICQueue Hop = iota
	// HopIIOMem is DMA + memory-system residence: first TLP processed →
	// packet visible to the CPU.
	HopIIOMem
	// HopCPU is rx-core residence: enqueue → protocol processing done.
	HopCPU
	// HopMBAWrite is one MBA MSR write in flight (actuation latency).
	HopMBAWrite
	// HopSample is one hostCC signal sample (the two chained MSR reads).
	HopSample
	// HopPause is one PFC pause range: a switch port (or NIC tx path)
	// held paused by priority flow control, assert → release.
	HopPause

	hopCount
)

func (h Hop) String() string {
	switch h {
	case HopNICQueue:
		return "nic-queue"
	case HopIIOMem:
		return "iio-mem"
	case HopCPU:
		return "cpu-rx"
	case HopMBAWrite:
		return "mba-write"
	case HopSample:
		return "hostcc-sample"
	case HopPause:
		return "pfc-pause"
	}
	return "unknown"
}

// Span is one completed residence interval.
type Span struct {
	Hop   Hop
	Flow  packet.FlowID // zero for non-packet (range) spans
	Seq   uint64        // packet Seq, or the range id
	Begin sim.Time
	End   sim.Time
	Cause string // why the span took as long as it did ("" = unremarkable)
	Pkt   bool   // packet span vs control-plane range
}

// Instant is one point event (a drop, a decision).
type Instant struct {
	Hop  Hop
	Name string
	At   sim.Time
	Args []KV
}

// KV is one numeric annotation on an instant event.
type KV struct {
	Key string
	Val float64
}

// spanKey identifies an open span. Packet spans key on (hop, packet):
// within one hop a packet's begin and end bracket a live packet, and
// every live copy is its own Packet, so a retransmitted copy that
// reaches a hop while its original is still there opens a span of its
// own. Every hop closes a packet's span before the packet is recycled,
// so a pointer names one packet while its span is open; the span takes
// its Flow and Seq from the packet when it closes. Range spans key on an
// opaque id with a nil packet.
type spanKey struct {
	hop Hop
	pkt *packet.Packet
	id  uint64
}

// DefaultMaxSpans bounds tracer memory; beyond it new spans are counted
// but not retained (see Tracer.Dropped).
const DefaultMaxSpans = 1 << 20

// Tracer records spans, instants and counter tracks. A nil *Tracer is
// valid: every method is a no-op costing one nil check and zero
// allocations, which is how the disabled path stays free. All recording
// is synchronous — called from existing event handlers — so enabling a
// tracer never changes the event schedule.
type Tracer struct {
	open     map[spanKey]sim.Time
	spans    []Span
	instants []Instant
	tracks   []*Track
	maxSpans int

	// Dropped counts spans discarded after the maxSpans cap was hit.
	Dropped int64
}

// NewTracer creates an enabled tracer.
func NewTracer() *Tracer {
	return &Tracer{open: make(map[spanKey]sim.Time), maxSpans: DefaultMaxSpans}
}

// SetMaxSpans overrides the retained-span cap (0 restores the default).
func (t *Tracer) SetMaxSpans(n int) {
	if t == nil {
		return
	}
	if n <= 0 {
		n = DefaultMaxSpans
	}
	t.maxSpans = n
}

// PacketSpanBegin opens hop residence for p at time at. A second Begin
// for the same (hop, packet) restarts the span.
func (t *Tracer) PacketSpanBegin(hop Hop, p *packet.Packet, at sim.Time) {
	if t == nil {
		return
	}
	t.open[spanKey{hop: hop, pkt: p}] = at
}

// PacketSpanEnd closes hop residence for p. An End without a matching
// Begin is ignored (a packet already in flight when tracing started).
func (t *Tracer) PacketSpanEnd(hop Hop, p *packet.Packet, at sim.Time, cause string) {
	if t == nil {
		return
	}
	t.closeSpan(spanKey{hop: hop, pkt: p}, at, cause)
}

// RangeBegin opens a non-packet span (an MBA write, a signal sample)
// identified by id within hop.
func (t *Tracer) RangeBegin(hop Hop, id uint64, at sim.Time) {
	if t == nil {
		return
	}
	t.open[spanKey{hop: hop, id: id}] = at
}

// RangeEnd closes a non-packet span.
func (t *Tracer) RangeEnd(hop Hop, id uint64, at sim.Time, cause string) {
	if t == nil {
		return
	}
	t.closeSpan(spanKey{hop: hop, id: id}, at, cause)
}

func (t *Tracer) closeSpan(k spanKey, at sim.Time, cause string) {
	begin, ok := t.open[k]
	if !ok {
		return
	}
	delete(t.open, k)
	if len(t.spans) >= t.maxSpans {
		t.Dropped++
		return
	}
	s := Span{Hop: k.hop, Seq: k.id, Begin: begin, End: at, Cause: cause}
	if k.pkt != nil {
		s.Flow, s.Seq, s.Pkt = k.pkt.Flow, k.pkt.Seq, true
	}
	t.spans = append(t.spans, s)
}

// Instant records a point event. Callers must guard with their own nil
// check when building kv arguments, so the disabled path never constructs
// the variadic slice.
func (t *Tracer) Instant(hop Hop, name string, at sim.Time, kv ...KV) {
	if t == nil {
		return
	}
	if len(t.instants) >= t.maxSpans {
		t.Dropped++
		return
	}
	var args []KV
	if len(kv) > 0 {
		args = append(args, kv...)
	}
	t.instants = append(t.instants, Instant{Hop: hop, Name: name, At: at, Args: args})
}

// Track is one counter timeline (IIO occupancy, MBA level, credits…),
// appended to on state change. A nil *Track ignores Set with a single nil
// check — components hold nil tracks when telemetry is off.
type Track struct {
	Name   string
	Unit   string
	Times  []sim.Time
	Values []float64
}

// NewTrack registers a counter track. On a nil tracer it returns nil,
// which is itself a valid (no-op) track.
func (t *Tracer) NewTrack(name, unit string) *Track {
	if t == nil {
		return nil
	}
	tk := &Track{Name: name, Unit: unit}
	t.tracks = append(t.tracks, tk)
	return tk
}

// Set appends a point at time at. Consecutive points with an unchanged
// value are coalesced, and a new value at an already-recorded timestamp
// overwrites it (tracks are piecewise-constant).
func (tk *Track) Set(at sim.Time, v float64) {
	if tk == nil {
		return
	}
	if n := len(tk.Values); n > 0 {
		if tk.Values[n-1] == v {
			return
		}
		if tk.Times[n-1] == at {
			tk.Values[n-1] = v
			return
		}
	}
	tk.Times = append(tk.Times, at)
	tk.Values = append(tk.Values, v)
}

// Timeline freezes the tracer's recordings for export. Open spans are
// left out (they have no end); the tracer remains usable afterwards.
func (t *Tracer) Timeline() *Timeline {
	if t == nil {
		return nil
	}
	return &Timeline{
		Spans:    t.spans,
		Instants: t.instants,
		Tracks:   t.tracks,
		Dropped:  t.Dropped,
	}
}

// Timeline is a frozen recording, ready for export.
type Timeline struct {
	Spans    []Span
	Instants []Instant
	Tracks   []*Track
	Dropped  int64
}
