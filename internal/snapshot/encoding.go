// Package snapshot provides a deterministic binary encoding of
// simulation component state, per-component digests of that encoding,
// and the digest timelines that verified runs compare.
//
// Design constraints (see DESIGN.md "Deterministic snapshots & replay"):
//
//   - Determinism: the same component state always encodes to the same
//     bytes. All fields are fixed-width little-endian; map-backed state is
//     encoded in sorted key order by its owner.
//   - Leaf package: only the standard library, so every model package
//     (sim, stats, nic, pcie, ...) can implement Snapshotter without an
//     import cycle.
//   - Write-only: components encode and nothing decodes; an encoding
//     exists to be hashed. Resumption is replay-based (the event queue
//     holds handlers, which have no serializable form): a chaos
//     checkpoint records the run's config and digest timeline, and a
//     resume re-executes the config and checks every recorded frame
//     against the replay.
package snapshot

import (
	"encoding/binary"
	"math"
)

// Encoder builds a deterministic binary encoding. All integers are
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

// Bytes returns the encoding.
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
