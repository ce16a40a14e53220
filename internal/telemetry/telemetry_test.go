package telemetry

import (
	"bytes"
	"encoding/json"
	"testing"

	"repro/internal/packet"
	"repro/internal/stats"
)

func TestRegistryRegisterAndRead(t *testing.T) {
	r := NewRegistry()
	v := 0.0
	r.Counter("a/events", "count", "events so far", func() float64 { return v })
	r.Gauge("a/depth", "pkts", "queue depth", func() float64 { return 3 })
	h := stats.NewHistogram(30)
	h.Add(5)
	r.Histogram("a/delay", "ns", "queueing delay", h)

	if r.Len() != 3 {
		t.Fatalf("len = %d", r.Len())
	}
	i, ok := r.Get("a/events")
	if !ok || i.Kind != KindCounter {
		t.Fatalf("Get: %v %v", ok, i)
	}
	v = 7
	if i.Value() != 7 {
		t.Fatalf("counter read %v", i.Value())
	}
	if hi, _ := r.Get("a/delay"); hi.Histogram() == nil || hi.Value() != 1 {
		t.Fatalf("histogram instrument: %v", hi)
	}
	names := r.Names()
	if len(names) != 3 || names[0] != "a/delay" {
		t.Fatalf("names = %v", names)
	}
	seen := 0
	r.Each(func(*Instrument) { seen++ })
	if seen != 3 {
		t.Fatalf("Each visited %d", seen)
	}
}

func TestRegistryDuplicatePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("duplicate registration did not panic")
		}
	}()
	r := NewRegistry()
	r.Gauge("x", "", "", func() float64 { return 0 })
	r.Gauge("x", "", "", func() float64 { return 0 })
}

func TestNilRegistryIsNoOp(t *testing.T) {
	var r *Registry
	r.Counter("x", "", "", func() float64 { return 0 })
	r.Gauge("y", "", "", nil)
	if r.Len() != 0 || r.Names() != nil {
		t.Fatal("nil registry retained something")
	}
	if _, ok := r.Get("x"); ok {
		t.Fatal("nil registry Get returned ok")
	}
	r.Each(func(*Instrument) { t.Fatal("nil registry Each visited") })
}

func testPkt(seq uint64) *packet.Packet {
	return &packet.Packet{
		Flow: packet.FlowID{Src: 1, Dst: 2, SrcPort: 10, DstPort: 20},
		Seq:  seq, PayloadLen: 1000,
	}
}

func TestTracerSpans(t *testing.T) {
	tr := NewTracer()
	p := testPkt(100)
	tr.PacketSpanBegin(HopNICQueue, p, 10)
	tr.PacketSpanEnd(HopNICQueue, p, 35, "pcie-credits")
	// End without Begin: ignored.
	tr.PacketSpanEnd(HopCPU, p, 50, "")
	// Range span.
	tr.RangeBegin(HopMBAWrite, 1, 100)
	tr.RangeEnd(HopMBAWrite, 1, 122, "applied")

	tl := tr.Timeline()
	if len(tl.Spans) != 2 {
		t.Fatalf("spans = %d", len(tl.Spans))
	}
	s := tl.Spans[0]
	if s.Hop != HopNICQueue || s.Begin != 10 || s.End != 35 || s.Cause != "pcie-credits" || !s.Pkt {
		t.Fatalf("span 0: %+v", s)
	}
	if r := tl.Spans[1]; r.Pkt || r.Seq != 1 || r.End-r.Begin != 22 {
		t.Fatalf("range span: %+v", r)
	}
}

func TestTracerSpanCap(t *testing.T) {
	tr := NewTracer()
	tr.SetMaxSpans(2)
	for i := uint64(0); i < 5; i++ {
		tr.RangeBegin(HopSample, i, 0)
		tr.RangeEnd(HopSample, i, 1, "")
	}
	tl := tr.Timeline()
	if len(tl.Spans) != 2 || tl.Dropped != 3 {
		t.Fatalf("spans=%d dropped=%d", len(tl.Spans), tl.Dropped)
	}
}

func TestTrackCoalescing(t *testing.T) {
	tr := NewTracer()
	tk := tr.NewTrack("iio/occupancy", "lines")
	tk.Set(0, 5)
	tk.Set(10, 5) // unchanged value: coalesced
	tk.Set(20, 8)
	tk.Set(20, 9) // same timestamp: overwritten
	if len(tk.Values) != 2 || tk.Values[1] != 9 || tk.Times[1] != 20 {
		t.Fatalf("track: times=%v values=%v", tk.Times, tk.Values)
	}
}

func TestNilTracerZeroAlloc(t *testing.T) {
	var tr *Tracer
	var tk *Track
	p := testPkt(1)
	allocs := testing.AllocsPerRun(1000, func() {
		tr.PacketSpanBegin(HopNICQueue, p, 5)
		tr.PacketSpanEnd(HopNICQueue, p, 9, "cause")
		tr.RangeBegin(HopSample, 3, 1)
		tr.RangeEnd(HopSample, 3, 2, "")
		tk.Set(7, 3.5)
		if tr.NewTrack("x", "") != nil {
			t.Fatal("nil tracer returned a live track")
		}
	})
	if allocs != 0 {
		t.Fatalf("disabled-path telemetry allocated %.1f/op", allocs)
	}
}

func TestChromeTraceOutput(t *testing.T) {
	tr := NewTracer()
	p := testPkt(4096)
	tr.PacketSpanBegin(HopNICQueue, p, 1000)
	tr.PacketSpanEnd(HopNICQueue, p, 3500, "rx-descriptors")
	tr.Instant(HopNICQueue, "nic-drop", 4000, KV{"bytes", 1040})
	tk := tr.NewTrack("receiver/iio/occupancy", "lines")
	tk.Set(0, 65)
	tk.Set(2000, 93)

	var buf bytes.Buffer
	if err := tr.Timeline().WriteChromeTrace(&buf); err != nil {
		t.Fatalf("WriteChromeTrace: %v", err)
	}
	var doc struct {
		DisplayTimeUnit string `json:"displayTimeUnit"`
		TraceEvents     []struct {
			Name string         `json:"name"`
			Ph   string         `json:"ph"`
			Ts   float64        `json:"ts"`
			Dur  float64        `json:"dur"`
			Pid  int            `json:"pid"`
			Tid  int            `json:"tid"`
			Args map[string]any `json:"args"`
		} `json:"traceEvents"`
	}
	if err := json.Unmarshal(buf.Bytes(), &doc); err != nil {
		t.Fatalf("output is not valid JSON: %v\n%s", err, buf.String())
	}
	var sawSpan, sawCounter, sawInstant, sawMeta bool
	for _, ev := range doc.TraceEvents {
		switch ev.Ph {
		case "X":
			sawSpan = true
			if ev.Name != "nic-queue" || ev.Ts != 1.0 || ev.Dur != 2.5 {
				t.Fatalf("span event: %+v", ev)
			}
			if ev.Args["cause"] != "rx-descriptors" || ev.Args["seq"] != float64(4096) {
				t.Fatalf("span args: %v", ev.Args)
			}
		case "C":
			sawCounter = true
			if ev.Name != "receiver/iio/occupancy" || ev.Args["lines"] == nil {
				t.Fatalf("counter event: %+v", ev)
			}
		case "i":
			sawInstant = true
			if ev.Args["bytes"] != float64(1040) {
				t.Fatalf("instant args: %v", ev.Args)
			}
		case "M":
			sawMeta = true
		}
	}
	if !sawSpan || !sawCounter || !sawInstant || !sawMeta {
		t.Fatalf("missing event kinds: span=%v counter=%v instant=%v meta=%v",
			sawSpan, sawCounter, sawInstant, sawMeta)
	}
}
