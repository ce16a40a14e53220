package packet

import (
	"encoding/binary"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestPoolRecycles(t *testing.T) {
	p := NewPool(2)
	a := p.Get()
	b := p.Get()
	if p.News != 0 {
		t.Fatalf("pre-populated pool allocated %d packets", p.News)
	}
	c := p.Get() // miss: free list empty
	if p.News != 1 {
		t.Fatalf("News = %d, want 1", p.News)
	}
	if p.Live() != 3 {
		t.Fatalf("Live = %d, want 3", p.Live())
	}
	p.Put(a)
	got := p.Get()
	if got != a {
		t.Fatal("Get after Put did not reuse the released packet (LIFO)")
	}
	p.Put(got)
	p.Put(b)
	p.Put(c)
	if p.Live() != 0 {
		t.Fatalf("Live after full release = %d, want 0", p.Live())
	}
}

func TestPoolGetZeroesAndKeepsSackCapacity(t *testing.T) {
	p := NewPool(1)
	pkt := p.Get()
	pkt.Flow = FlowID{Src: 3, Dst: 4, SrcPort: 5, DstPort: 6}
	pkt.Seq, pkt.Ack = 100, 200
	pkt.Flags = FlagACK | FlagECE
	pkt.ECN = CE
	pkt.PayloadLen = 1500
	pkt.MarkedByHost = true
	pkt.SACK = append(pkt.SACK, SackBlock{1, 2}, SackBlock{3, 4})
	sackCap := cap(pkt.SACK)
	p.Put(pkt)

	got := p.Get()
	if got != pkt {
		t.Fatal("expected recycled packet")
	}
	if got.Flow != (FlowID{}) || got.Seq != 0 || got.Ack != 0 || got.Flags != 0 ||
		got.ECN != NotECT || got.PayloadLen != 0 || got.MarkedByHost || len(got.SACK) != 0 {
		t.Fatalf("recycled packet not zeroed: %+v", got)
	}
	if cap(got.SACK) != sackCap {
		t.Fatalf("SACK capacity %d not preserved across recycle (was %d)", cap(got.SACK), sackCap)
	}
}

func TestPoolDoubleReleasePanics(t *testing.T) {
	p := NewPool(0)
	pkt := p.Get()
	p.Put(pkt)
	defer func() {
		r := recover()
		if r == nil {
			t.Fatal("double release did not panic")
		}
		if !strings.Contains(r.(string), "double release") {
			t.Fatalf("unexpected panic: %v", r)
		}
	}()
	p.Put(pkt)
}

// A packet the pool never handed out is adopted on Put, not reported as
// a double release: drop points release whatever they hold.
func TestPoolClonePutIsIndependent(t *testing.T) {
	p := NewPool(1)
	pkt := p.Get()
	loose := new(Packet)
	p.Put(pkt)
	p.Put(loose) // adopted, not a double release
	if p.FreeLen() != 2 {
		t.Fatalf("FreeLen = %d, want 2", p.FreeLen())
	}
	if got := p.Get(); got != loose {
		t.Fatal("the adopted packet was not recycled")
	}
}

func TestNilPoolFallsBack(t *testing.T) {
	var p *Pool
	pkt := p.Get()
	if pkt == nil {
		t.Fatal("nil pool Get returned nil")
	}
	p.Put(pkt) // no-op, must not panic
	p.Put(pkt) // still a no-op: no pool, no double-release tracking
	if p.Live() != 0 || p.FreeLen() != 0 {
		t.Fatal("nil pool reported state")
	}
}

func TestPoolSnapshotDeterministic(t *testing.T) {
	churn := func() *Pool {
		p := NewPool(4)
		held := []*Packet{p.Get(), p.Get(), p.Get()}
		p.Put(held[0])
		p.Get() // churn the counters a little
		return p
	}
	encode := func(p *Pool) []byte {
		var enc snapshot.Encoder
		p.Snapshot(&enc)
		return enc.Bytes()
	}
	p, q := churn(), churn()
	img := encode(p)
	if string(encode(q)) != string(img) {
		t.Fatal("identically churned pools encode differently")
	}
	if string(encode(p)) != string(img) {
		t.Fatal("snapshot is not byte-identical when re-encoded")
	}

	// The image carries the accounting counters and the free-list depth.
	if len(img) != 32 {
		t.Fatalf("image is %d bytes, want four u64 fields", len(img))
	}
	le := binary.LittleEndian
	gets, puts, news, depth := le.Uint64(img), le.Uint64(img[8:]), le.Uint64(img[16:]), int64(le.Uint64(img[24:]))
	if gets != p.Gets || puts != p.Puts || news != p.News || int(depth) != p.FreeLen() {
		t.Fatalf("encoded gets=%d puts=%d news=%d free=%d, want %d/%d/%d/%d",
			gets, puts, news, depth, p.Gets, p.Puts, p.News, p.FreeLen())
	}

	// Checking out one more packet changes the digest.
	q.Get()
	if string(encode(q)) == string(img) {
		t.Fatal("a Get did not change the pool encoding")
	}
}

func TestPoolZeroAllocSteadyState(t *testing.T) {
	if poolDebugEnabled {
		t.Skip("provenance bookkeeping active (-race or packetdebug); exact-alloc guard runs in production builds")
	}
	p := NewPool(8)
	allocs := testing.AllocsPerRun(1000, func() {
		a := p.Get()
		b := p.Get()
		p.Put(b)
		p.Put(a)
	})
	if allocs != 0 {
		t.Fatalf("steady-state Get/Put allocates %.1f/op, want 0", allocs)
	}
}
