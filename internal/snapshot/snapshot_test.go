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
