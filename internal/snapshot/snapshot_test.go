package snapshot

import (
	"encoding/binary"
	"math"
	"testing"
)

// TestEncoderDecoderRoundTrip: every field encodes fixed-width
// little-endian and reads back with encoding/binary.
func TestEncoderDecoderRoundTrip(t *testing.T) {
	var e Encoder
	e.U32(7)
	e.U64(1 << 60)
	e.I64(-42)
	e.Int(12345)
	e.F64(3.14159)
	e.Str("hello")
	e.Bool(true)
	e.Bool(false)

	b := e.Bytes()
	le := binary.LittleEndian
	if got := le.Uint32(b[0:]); got != 7 {
		t.Errorf("U32 = %d", got)
	}
	if got := le.Uint64(b[4:]); got != 1<<60 {
		t.Errorf("U64 = %d", got)
	}
	if got := int64(le.Uint64(b[12:])); got != -42 {
		t.Errorf("I64 = %d", got)
	}
	if got := int64(le.Uint64(b[20:])); got != 12345 {
		t.Errorf("Int = %d (encoded as int64)", got)
	}
	if got := le.Uint64(b[28:]); got != math.Float64bits(3.14159) {
		t.Errorf("F64 bits = %#x (encoded as IEEE-754 bits)", got)
	}
	if n := le.Uint32(b[36:]); n != 5 || string(b[40:45]) != "hello" {
		t.Errorf("Str = %d-byte prefix, %q", n, b[40:45])
	}
	// Each Bool is one byte, and nothing follows.
	if len(b) != 47 || b[45] != 1 || b[46] != 0 {
		t.Errorf("Bool bytes = %v of a %d-byte encoding, want [1 0] of 47", b[45:], len(b))
	}
}

// fakeComp is a trivial Snapshotter for registry tests.
type fakeComp struct {
	a int64
	b float64
}

func (f *fakeComp) Snapshot(e *Encoder) { e.I64(f.a); e.F64(f.b) }

// encoding returns one component's buffered encoding, the bytes its
// digest must hash.
func encoding(s Snapshotter) []byte {
	var e Encoder
	s.Snapshot(&e)
	return e.Bytes()
}

func TestRegistryRoundTripAndDigests(t *testing.T) {
	r := NewRegistry()
	c1 := &fakeComp{a: 1, b: 2.5}
	c2 := &fakeComp{a: -7, b: 0}
	r.Register("alpha", c1)
	r.Register("beta", c2)

	// Each digest is HashBytes of its component's encoding, in
	// registration order.
	d1 := r.Digests()
	for i, c := range []struct {
		name string
		comp *fakeComp
	}{{"alpha", c1}, {"beta", c2}} {
		if want := (Digest{Component: c.name, Hash: HashBytes(encoding(c.comp))}); d1[i] != want {
			t.Errorf("digest %d = %+v, want %+v", i, d1[i], want)
		}
	}

	// A mutation changes the digest.
	c1.a, c2.b = 99, 99
	if d2 := r.Digests(); Combined(d2) == Combined(d1) {
		t.Fatal("digest did not change after mutation")
	}

	// The same state digests identically (deterministic encoding).
	c1.a, c2.b = 1, 0
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
	if n := len(encoding(big)); n <= 3*flushBytes {
		t.Fatalf("big component encodes %d bytes, want more than 3 flush buffers (%d)", n, 3*flushBytes)
	}
	names := []string{"before", "big", "after"}
	comps := []Snapshotter{&fakeComp{a: 3, b: 0.5}, big, &bulkComp{n: 5}}
	r := NewRegistry()
	for i, name := range names {
		r.Register(name, comps[i])
	}
	for i, d := range r.Digests() {
		if want := HashBytes(encoding(comps[i])); d.Component != names[i] || d.Hash != want {
			t.Errorf("digest %d = %s %#x, want %s %#x (HashBytes of its encoding)",
				i, d.Component, d.Hash, names[i], want)
		}
	}
}

// TestRegistryDigestsNoAllocBeyondResult guards the streaming digest
// and its kept buffer: after the first call, hashing a 1 MB component
// allocates exactly as often as hashing a 4 MB one, and only the
// returned slice, so a digest's cost in memory grows neither with the
// state it covers nor with the number of digests taken.
func TestRegistryDigestsNoAllocBeyondResult(t *testing.T) {
	allocs := func(bytes int) float64 {
		r := NewRegistry()
		r.Register("small", &fakeComp{a: 1})
		r.Register("big", &bulkComp{n: bytes / bulkRecordBytes})
		r.Digests()
		return testing.AllocsPerRun(10, func() { r.Digests() })
	}
	a1, a4 := allocs(1<<20), allocs(4<<20)
	if a1 != a4 {
		t.Fatalf("Digests allocates %.0f times over a 1 MB component but %.0f over 4 MB; want equal", a1, a4)
	}
	if a1 > 1 {
		t.Fatalf("Digests allocates %.0f times per call after the first; want only the returned slice", a1)
	}
}

// BenchmarkRegistryDigests digests a registry holding one 4 MB
// component and a few small ones.
func BenchmarkRegistryDigests(b *testing.B) {
	r := NewRegistry()
	var size int64
	for _, c := range []struct {
		name string
		comp Snapshotter
	}{
		{"head", &fakeComp{a: 1, b: 2}},
		{"big", &bulkComp{n: 4 << 20 / bulkRecordBytes}},
		{"tail", &bulkComp{n: 100}},
	} {
		r.Register(c.name, c.comp)
		size += int64(len(encoding(c.comp)))
	}
	b.SetBytes(size)
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
