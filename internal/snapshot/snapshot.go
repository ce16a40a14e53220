package snapshot

import (
	"fmt"
	"hash/fnv"
)

// Snapshotter is implemented by every stateful simulation component. The
// contract:
//
//   - Snapshot must be deterministic: identical component state encodes to
//     identical bytes (map iteration must be sorted by the implementation).
//   - Snapshot must not mutate the component or the simulation.
//   - Snapshot must cover every field that distinguishes one state from
//     another, including state with no serializable form (pending
//     callbacks, queued packets), which is encoded by count or by a
//     stand-in such as wire length. The encoding feeds digests only;
//     nothing decodes it back into a component. Runs resume by replay —
//     see the package comment.
type Snapshotter interface {
	Snapshot(*Encoder)
}

// Digest is one component's state hash at an instant.
type Digest struct {
	Component string
	Hash      uint64
}

// Registry holds a testbed's components in a fixed, named order. The
// registration order defines the encoding layout, so two runs comparing
// digests must register identically (same testbed shape).
type Registry struct {
	names  []string
	byName map[string]Snapshotter

	// hasher is the digest-mode encoder Digests streams every component
	// through, kept so that its buffer grows once per registry.
	hasher Encoder
}

// NewRegistry returns an empty registry.
func NewRegistry() *Registry {
	return &Registry{byName: make(map[string]Snapshotter)}
}

// Register adds a named component. Duplicate names panic: a silently
// shadowed component would make digests lie about what they cover.
func (r *Registry) Register(name string, s Snapshotter) {
	if s == nil {
		panic("snapshot: registering nil Snapshotter")
	}
	if _, dup := r.byName[name]; dup {
		panic(fmt.Sprintf("snapshot: duplicate component %q", name))
	}
	r.names = append(r.names, name)
	r.byName[name] = s
}

// FNV-1a 64 parameters (hash/fnv's New64a).
const (
	fnvOffset64 = 14695981039346656037
	fnvPrime64  = 1099511628211
)

// fnv1a folds b into the FNV-1a 64 state h.
func fnv1a(h uint64, b []byte) uint64 {
	for _, c := range b {
		h ^= uint64(c)
		h *= fnvPrime64
	}
	return h
}

// HashBytes is the digest function: FNV-1a 64.
func HashBytes(b []byte) uint64 { return fnv1a(fnvOffset64, b) }

// wordMul is HashWord's multiplier, ⌊2^64/φ⌋, which is odd.
const wordMul = 0x9e3779b97f4a7c15

// HashWord folds the 64-bit word w into the hash state h: h ^= w, then
// h *= wordMul, then h ^= h >> 32. For a given w each step is a
// bijection of h (an odd multiplier is invertible mod 2^64, and the
// shift leaves the high half to undo the xor), and for a given h the
// first is a bijection of w. So two word sequences that differ in one
// word always hash apart: the states agree up to that word, differ
// after it, and every later step keeps them apart.
func HashWord(h, w uint64) uint64 {
	h = (h ^ w) * wordMul
	return h ^ h>>32
}

// Digests hashes every component's current encoding, in registration
// order, into a new slice the caller keeps. Each encoding is hashed as a
// stream through one fixed buffer (Encoder's digest mode) that the
// registry keeps between calls, so after the first call a digest
// allocates only the returned slice, whatever the components' encoded
// size. A registry computes digests on one goroutine at a time.
func (r *Registry) Digests() []Digest {
	out := make([]Digest, 0, len(r.names))
	e := &r.hasher
	e.buf, e.hashing, e.sum = e.buf[:0], true, fnvOffset64
	for _, name := range r.names {
		r.byName[name].Snapshot(e)
		out = append(out, Digest{Component: name, Hash: e.digest()})
	}
	return out
}

// Combined folds a digest list into a single order-sensitive hash (the
// one-number summary used by the golden-digest tests).
func Combined(ds []Digest) uint64 {
	h := fnv.New64a()
	var tmp [8]byte
	for _, d := range ds {
		h.Write([]byte(d.Component))
		for i := 0; i < 8; i++ {
			tmp[i] = byte(d.Hash >> (8 * i))
		}
		h.Write(tmp[:])
	}
	return h.Sum64()
}
