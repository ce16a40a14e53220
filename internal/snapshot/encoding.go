// Package snapshot provides a versioned, deterministic binary encoding of
// simulation component state, per-component digests for divergence
// detection, and a checkpoint file format for replaying chaos runs.
//
// Design constraints (see DESIGN.md "Deterministic snapshots & replay"):
//
//   - Determinism: the same component state always encodes to the same
//     bytes. All fields are fixed-width little-endian; map-backed state is
//     encoded in sorted key order by its owner.
//   - Leaf package: only the standard library, so every model package
//     (sim, stats, nic, pcie, ...) can implement Snapshotter without an
//     import cycle.
//   - Write-only: components encode, nothing decodes state back into a
//     component. Encodings feed per-component digests, HCSSTAT1 state
//     images and HCCCKPT1 checkpoints. Resumption is replay-based (the
//     event queue holds closures, which have no serializable form): a
//     checkpoint records enough metadata to re-execute the run
//     deterministically and verify per-frame digests along the way. The
//     Decoder reads only the framing — image headers, component blobs,
//     checkpoint metadata and digest timelines.
package snapshot

import (
	"encoding/binary"
	"fmt"
	"math"
)

// Encoder builds a deterministic binary image. All integers are
// little-endian fixed width; strings are u32-length-prefixed UTF-8.
// The zero value is ready to use.
type Encoder struct {
	buf []byte

	// hashing switches the encoder to digest mode (Registry.Digests):
	// once buf holds flushBytes it is folded into sum, the FNV-1a state
	// of every byte encoded so far, and emptied. An encoding of any
	// size then digests through one fixed buffer, and since FNV-1a
	// consumes bytes strictly in order, where the flushes fall cannot
	// change the hash.
	hashing bool
	sum     uint64
}

// flushBytes is the digest-mode buffer size: large enough that a flush
// is rare next to the appends, small enough to stay in L1.
const flushBytes = 32 << 10

// Bytes returns the encoded image.
func (e *Encoder) Bytes() []byte { return e.buf }

// spill flushes a digest-mode buffer that has filled.
func (e *Encoder) spill() {
	if e.hashing && len(e.buf) >= flushBytes {
		e.sum = fnv1a(e.sum, e.buf)
		e.buf = e.buf[:0]
	}
}

// digest returns the FNV-1a hash of everything encoded in digest mode
// and resets the encoder for the next component, keeping its buffer.
func (e *Encoder) digest() uint64 {
	h := fnv1a(e.sum, e.buf)
	e.buf, e.sum = e.buf[:0], fnvOffset64
	return h
}

// U32 appends a fixed-width uint32.
func (e *Encoder) U32(v uint32) {
	e.buf = binary.LittleEndian.AppendUint32(e.buf, v)
	e.spill()
}

// U64 appends a fixed-width uint64.
func (e *Encoder) U64(v uint64) {
	e.buf = binary.LittleEndian.AppendUint64(e.buf, v)
	e.spill()
}

// I64 appends a fixed-width int64.
func (e *Encoder) I64(v int64) { e.U64(uint64(v)) }

// Int appends an int as int64.
func (e *Encoder) Int(v int) { e.I64(int64(v)) }

// F64 appends a float64 as its IEEE-754 bits.
func (e *Encoder) F64(v float64) { e.U64(math.Float64bits(v)) }

// Bool appends a bool as one byte.
func (e *Encoder) Bool(v bool) {
	b := byte(0)
	if v {
		b = 1
	}
	e.buf = append(e.buf, b)
	e.spill()
}

// Str appends a length-prefixed string.
func (e *Encoder) Str(s string) {
	e.U32(uint32(len(s)))
	e.buf = append(e.buf, s...)
	e.spill()
}

// Raw appends a length-prefixed byte blob.
func (e *Encoder) Raw(b []byte) {
	e.U32(uint32(len(b)))
	e.buf = append(e.buf, b...)
	e.spill()
}

// Decoder reads an Encoder image back. Errors are sticky: after the first
// short read every accessor returns the zero value, and Err reports the
// failure, so callers can decode unconditionally and check once at the
// end.
type Decoder struct {
	buf []byte
	off int
	err error
}

// NewDecoder wraps an encoded image.
func NewDecoder(b []byte) *Decoder { return &Decoder{buf: b} }

// Err returns the first decode error, or nil.
func (d *Decoder) Err() error { return d.err }

// Remaining returns the number of unread bytes.
func (d *Decoder) Remaining() int { return len(d.buf) - d.off }

func (d *Decoder) take(n int) []byte {
	if d.err != nil {
		return nil
	}
	if d.off+n > len(d.buf) {
		d.err = fmt.Errorf("snapshot: truncated image (want %d bytes at offset %d of %d)", n, d.off, len(d.buf))
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

// U32 reads a uint32.
func (d *Decoder) U32() uint32 {
	b := d.take(4)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint32(b)
}

// U64 reads a uint64.
func (d *Decoder) U64() uint64 {
	b := d.take(8)
	if b == nil {
		return 0
	}
	return binary.LittleEndian.Uint64(b)
}

// I64 reads an int64.
func (d *Decoder) I64() int64 { return int64(d.U64()) }

// Str reads a length-prefixed string.
func (d *Decoder) Str() string {
	n := int(d.U32())
	if d.err != nil {
		return ""
	}
	return string(d.take(n))
}

// Raw reads a length-prefixed byte blob.
func (d *Decoder) Raw() []byte {
	n := int(d.U32())
	if d.err != nil {
		return nil
	}
	b := d.take(n)
	if b == nil {
		return nil
	}
	out := make([]byte, n)
	copy(out, b)
	return out
}
