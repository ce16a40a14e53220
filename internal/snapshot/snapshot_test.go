package snapshot

import (
	"math"
	"path/filepath"
	"testing"
)

func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U32(7)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(12345)
	e.F64(3.14159)
	e.Str("hello")
	e.Raw([]byte{1, 2, 3})
	e.Bool(true)
	e.Bool(false)

	d := NewDecoder(e.Bytes())
	if got := d.U32(); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := d.U64(); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := d.I64(); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := d.I64(); got != 12345 {
		t.Errorf("Int = %d (encoded as int64)", got)
	}
	if got := d.U64(); got != math.Float64bits(3.14159) {
		t.Errorf("F64 bits = %#x (encoded as IEEE-754 bits)", got)
	}
	if got := d.Str(); got != "hello" {
		t.Errorf("Str = %q", got)
	}
	raw := d.Raw()
	if len(raw) != 3 || raw[0] != 1 || raw[2] != 3 {
		t.Errorf("Raw = %v", raw)
	}
	if d.Err() != nil {
		t.Fatalf("decode error: %v", d.Err())
	}
	// Each Bool is one byte.
	if d.Remaining() != 2 {
		t.Fatalf("remaining = %d, want the two bool bytes", d.Remaining())
	}
	if b := e.Bytes()[len(e.Bytes())-2:]; b[0] != 1 || b[1] != 0 {
		t.Errorf("Bool bytes = %v, want [1 0]", b)
	}
}

func TestDecoderStickyError(t *testing.T) {
	d := NewDecoder([]byte{1, 2})
	_ = d.U64() // short read
	if d.Err() == nil {
		t.Fatal("expected truncation error")
	}
	// Every subsequent accessor must return zero values, not panic.
	if d.U32() != 0 || d.I64() != 0 || d.Str() != "" || d.Raw() != nil {
		t.Error("accessors after error must return zero values")
	}
}

// fakeComp is a trivial Snapshotter for registry tests.
type fakeComp struct {
	a int64
	b float64
}

func (f *fakeComp) Snapshot(e *Encoder) { e.I64(f.a); e.F64(f.b) }

func TestRegistryRoundTripAndDigests(t *testing.T) {
	r := NewRegistry()
	c1 := &fakeComp{a: 1, b: 2.5}
	c2 := &fakeComp{a: -7, b: 0}
	r.Register("alpha", c1)
	r.Register("beta", c2)

	img := r.EncodeAll()
	d1 := r.Digests()

	// The image decodes to the live registry's digests, in order.
	decoded, blobs, err := DecodeState(img)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if len(decoded) != len(d1) || len(blobs) != len(d1) {
		t.Fatalf("decoded %d components, registry has %d", len(decoded), len(d1))
	}
	for i := range d1 {
		if decoded[i] != d1[i] {
			t.Errorf("component %d: image digest %+v, live %+v", i, decoded[i], d1[i])
		}
	}

	// A mutation changes the digest.
	c1.a, c2.b = 99, 99
	if d2 := r.Digests(); Combined(d2) == Combined(d1) {
		t.Fatal("digest did not change after mutation")
	}

	// The same state re-encodes identically (deterministic encoding).
	c1.a, c2.b = 1, 0
	if string(r.EncodeAll()) != string(img) {
		t.Error("re-encoded image differs")
	}
	if d3 := r.Digests(); Combined(d3) != Combined(d1) {
		t.Error("digest of the same state differs")
	}
}

// bulkComp encodes n mixed-width records (U32, U64, Bool, Str), so a
// digest-mode flush can fall inside any field.
type bulkComp struct{ n int }

func (c *bulkComp) Snapshot(e *Encoder) {
	for i := 0; i < c.n; i++ {
		e.U32(uint32(i))
		e.F64(float64(i) / 3)
		e.Bool(i%3 == 0)
		e.Str("flow")
	}
}

// bulkRecordBytes is one bulkComp record's encoded size.
const bulkRecordBytes = 4 + 8 + 1 + 4 + 4

// TestRegistryDigestsStreamAcrossFlushes: a component whose encoding
// spans more than three digest-mode flush buffers digests exactly as
// HashBytes of its buffered encoding, between small components on
// either side that reuse the same encoder.
func TestRegistryDigestsStreamAcrossFlushes(t *testing.T) {
	big := &bulkComp{n: 3*flushBytes/bulkRecordBytes + 777}
	r := NewRegistry()
	r.Register("before", &fakeComp{a: 3, b: 0.5})
	r.Register("big", big)
	r.Register("after", &bulkComp{n: 5})

	_, blobs, err := DecodeState(r.EncodeAll())
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if n := len(blobs["big"]); n <= 3*flushBytes {
		t.Fatalf("big component encodes %d bytes, want more than 3 flush buffers (%d)", n, 3*flushBytes)
	}
	got := r.Digests()
	for i, name := range []string{"before", "big", "after"} {
		if want := HashBytes(blobs[name]); got[i].Component != name || got[i].Hash != want {
			t.Errorf("digest %d = %s %#x, want %s %#x (HashBytes of its encoding)",
				i, got[i].Component, got[i].Hash, name, want)
		}
	}
}

// TestRegistryDigestsAllocsIndependentOfSize guards the streaming
// digest: hashing a 1 MB component allocates exactly as often as
// hashing a 4 MB one, so a digest's cost in memory does not grow with
// the state it covers.
func TestRegistryDigestsAllocsIndependentOfSize(t *testing.T) {
	allocs := func(bytes int) float64 {
		r := NewRegistry()
		r.Register("small", &fakeComp{a: 1})
		r.Register("big", &bulkComp{n: bytes / bulkRecordBytes})
		return testing.AllocsPerRun(5, func() { r.Digests() })
	}
	if a1, a4 := allocs(1<<20), allocs(4<<20); a1 != a4 {
		t.Fatalf("Digests allocates %.0f times over a 1 MB component but %.0f over 4 MB; want equal", a1, a4)
	}
}

// BenchmarkRegistryDigests digests a registry holding one 4 MB
// component and a few small ones.
func BenchmarkRegistryDigests(b *testing.B) {
	r := NewRegistry()
	r.Register("head", &fakeComp{a: 1, b: 2})
	r.Register("big", &bulkComp{n: 4 << 20 / bulkRecordBytes})
	r.Register("tail", &bulkComp{n: 100})
	b.SetBytes(int64(len(r.EncodeAll())))
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		r.Digests()
	}
}

func TestFirstDivergence(t *testing.T) {
	mk := func(hashes ...uint64) Frame {
		f := Frame{At: 1000, Events: 5}
		names := []string{"engine", "pcie", "nic"}
		for i, h := range hashes {
			f.Digests = append(f.Digests, Digest{Component: names[i], Hash: h})
		}
		return f
	}
	a := &Timeline{Frames: []Frame{mk(1, 2, 3), mk(4, 5, 6)}}
	b := &Timeline{Frames: []Frame{mk(1, 2, 3), mk(4, 9, 6)}}
	div, ok := FirstDivergence(a, b)
	if !ok {
		t.Fatal("expected divergence")
	}
	if div.Component != "pcie" || div.FrameIndex != 1 {
		t.Errorf("got %+v", div)
	}
	if _, ok := FirstDivergence(a, a); ok {
		t.Error("identical timelines must not diverge")
	}
}

func TestCheckpointFileRoundTrip(t *testing.T) {
	r := NewRegistry()
	r.Register("x", &fakeComp{a: 42, b: 1.5})
	ck := &Checkpoint{
		Meta:        map[string]string{"scenario": "storm", "seed": "7"},
		VirtualTime: 83_000_000,
		Events:      123456,
		Timeline: Timeline{Frames: []Frame{
			{At: 1_000_000, Events: 10, Digests: []Digest{{Component: "x", Hash: 0xdead}}},
		}},
		State: r.EncodeAll(),
	}
	path := filepath.Join(t.TempDir(), "ck.snap")
	if err := ck.WriteFile(path); err != nil {
		t.Fatalf("WriteFile: %v", err)
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatalf("ReadFile: %v", err)
	}
	if got.Get("scenario") != "storm" || got.Get("seed") != "7" {
		t.Errorf("meta = %v", got.Meta)
	}
	if got.VirtualTime != ck.VirtualTime || got.Events != ck.Events {
		t.Errorf("position = %d/%d", got.VirtualTime, got.Events)
	}
	if got.Timeline.Len() != 1 || got.Timeline.Frames[0].Digests[0].Hash != 0xdead {
		t.Errorf("timeline = %+v", got.Timeline)
	}
	order, blobs, err := DecodeState(got.State)
	if err != nil {
		t.Fatalf("DecodeState: %v", err)
	}
	if len(order) != 1 || order[0].Component != "x" || len(blobs["x"]) == 0 {
		t.Errorf("state = %v", order)
	}

	if _, err := ReadFile(filepath.Join(t.TempDir(), "missing.snap")); err == nil {
		t.Error("expected error for missing file")
	}
}
