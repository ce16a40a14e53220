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
//     stand-in such as wire length. The encoding feeds digests, state
//     images and checkpoints; nothing decodes it back into a component.
//     Runs resume by replay — see the package comment.
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

// stateMagic identifies a Registry.EncodeAll image.
const stateMagic = "HCSSTAT1"

// EncodeAll serializes every component into one versioned image.
func (r *Registry) EncodeAll() []byte {
	var e Encoder
	e.buf = append(e.buf, stateMagic...)
	e.U32(uint32(len(r.names)))
	for _, name := range r.names {
		var ce Encoder
		r.byName[name].Snapshot(&ce)
		e.Str(name)
		e.Raw(ce.Bytes())
	}
	return e.Bytes()
}

// DecodeState splits an EncodeAll image into named component blobs,
// preserving order. It validates the header but not the blobs.
func DecodeState(img []byte) ([]Digest, map[string][]byte, error) {
	d := NewDecoder(img)
	if string(d.take(len(stateMagic))) != stateMagic {
		return nil, nil, fmt.Errorf("snapshot: bad state magic")
	}
	n := int(d.U32())
	order := make([]Digest, 0, n)
	blobs := make(map[string][]byte, n)
	for i := 0; i < n; i++ {
		name := d.Str()
		blob := d.Raw()
		if d.Err() != nil {
			return nil, nil, d.Err()
		}
		order = append(order, Digest{Component: name, Hash: HashBytes(blob)})
		blobs[name] = blob
	}
	return order, blobs, d.Err()
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

// Digests hashes every component's current encoding, in registration
// order. Each encoding is hashed as a stream through one fixed buffer
// (Encoder's digest mode), so a digest allocates the same whatever the
// components' encoded size.
func (r *Registry) Digests() []Digest {
	out := make([]Digest, 0, len(r.names))
	e := Encoder{hashing: true, sum: fnvOffset64}
	for _, name := range r.names {
		r.byName[name].Snapshot(&e)
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
