package packet

import (
	"fmt"

	"repro/internal/snapshot"
)

// Pool recycles Packets through a LIFO free list so the steady-state
// datapath allocates nothing per packet. It is deliberately not
// sync.Pool: the simulator is single-threaded, and determinism requires
// that pool behaviour (and therefore pointer identity and GC pressure)
// be a pure function of the event sequence — sync.Pool's victim caches
// and per-P shards are not.
//
// Ownership rule: exactly one component owns a packet at a time. The
// transport acquires on transmit; ownership transfers down the stack
// with the packet; whichever component removes the packet from the
// simulation (terminal delivery in the CPU rx path, or any drop point)
// releases it. A receive hook sees the packet only for the length of its
// call and must not keep it after the call returns.
//
// A nil *Pool is valid and falls back to plain allocation with no-op
// release, so components can keep pooling optional.
type Pool struct {
	free []*Packet

	// Gets/Puts/News count pool traffic; News is the number of Gets that
	// missed the free list and allocated.
	Gets, Puts, News uint64
}

// PoolDebugEnabled reports whether this build records release provenance
// (true under -race and -tags packetdebug). Provenance bookkeeping
// allocates, so exact zero-alloc assertions skip when it is on.
const PoolDebugEnabled = poolDebugEnabled

// packet pool states, tracked in Packet.poolState for double-release
// detection.
const (
	poolStateLoose    = 0 // never pooled, or pool-less allocation
	poolStateLive     = 1 // acquired from a pool, not yet released
	poolStateRecycled = 2 // sitting on a free list
)

// NewPool returns a pool pre-populated with capacity recycled packets,
// so a correctly-sized pool never allocates after construction.
func NewPool(capacity int) *Pool {
	p := &Pool{free: make([]*Packet, 0, capacity)}
	for i := 0; i < capacity; i++ {
		pkt := &Packet{poolState: poolStateRecycled}
		p.free = append(p.free, pkt)
	}
	return p
}

// Get returns a zeroed packet, reusing a recycled one when available.
// The SACK slice keeps its backing capacity across recycles, so ACKs with
// SACK blocks stop allocating once the pool is warm.
func (p *Pool) Get() *Packet {
	if p == nil {
		return &Packet{}
	}
	p.Gets++
	n := len(p.free)
	if n == 0 {
		p.News++
		return &Packet{poolState: poolStateLive}
	}
	pkt := p.free[n-1]
	p.free[n-1] = nil
	p.free = p.free[:n-1]
	sack := pkt.SACK[:0]
	*pkt = Packet{SACK: sack, poolState: poolStateLive}
	return pkt
}

// Put releases pkt back to the pool. Releasing the same packet twice is
// always detected and panics — a double release would hand one packet to
// two owners and silently corrupt unrelated flows much later. Debug
// builds (-tags packetdebug, and every -race run) additionally record
// release provenance so the panic names the previous release site.
func (p *Pool) Put(pkt *Packet) {
	if p == nil || pkt == nil {
		return
	}
	switch pkt.poolState {
	case poolStateRecycled:
		panic(fmt.Sprintf("packet: double release of %v%s", pkt, pkt.provenance()))
	case poolStateLoose:
		// Not from this (or any) pool: adopt it. This keeps drop points
		// simple — they release whatever they hold without tracking
		// whether the packet predates pooling.
	}
	pkt.poolState = poolStateRecycled
	pkt.recordRelease()
	p.Puts++
	p.free = append(p.free, pkt)
}

// Live reports packets currently checked out: acquired (including pool
// misses) but not yet released. Meaningful once all traffic uses the pool.
func (p *Pool) Live() int {
	if p == nil {
		return 0
	}
	return int(p.Gets) - int(p.Puts)
}

// FreeLen reports the current free-list depth.
func (p *Pool) FreeLen() int {
	if p == nil {
		return 0
	}
	return len(p.free)
}

// Snapshot encodes the pool's accounting state. Recycled packets are
// interchangeable, so only the free-list depth is recorded, not its
// contents.
func (p *Pool) Snapshot(enc *snapshot.Encoder) {
	enc.U64(p.Gets)
	enc.U64(p.Puts)
	enc.U64(p.News)
	enc.Int(len(p.free))
}
