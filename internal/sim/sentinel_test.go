package sim

import (
	"encoding/binary"
	"math/rand"
	"strings"
	"testing"

	"repro/internal/snapshot"
)

func TestEngineSnapshotRoundTrip(t *testing.T) {
	advance := func() *Engine {
		e := NewEngine(42)
		draw := e.Handler(func(_, _ uint64) { e.Rand().Float64() })
		for i := 0; i < 10; i++ {
			e.ScheduleAfter(Time(i*10), draw, 0, 0)
		}
		e.Run()
		return e
	}
	encode := func(e *Engine) []byte {
		var enc snapshot.Encoder
		e.Snapshot(&enc)
		return enc.Bytes()
	}

	// Two engines advanced identically encode identically.
	e, e2 := advance(), advance()
	img := encode(e)
	if string(encode(e2)) != string(img) {
		t.Fatal("identically advanced engines encode differently")
	}
	if string(encode(e)) != string(img) {
		t.Fatal("re-encoding the same engine is not byte-identical")
	}

	// The image carries the position and the RNG cursor: seed, then the
	// draw count as the trailing u64.
	le := binary.LittleEndian
	if now := Time(le.Uint64(img[0:])); now != e.Now() {
		t.Errorf("encoded now = %v, want %v", now, e.Now())
	}
	// img[8:16] is seq.
	if processed := le.Uint64(img[16:]); processed != e.Processed {
		t.Errorf("encoded processed = %d, want %d", processed, e.Processed)
	}
	if pending := int64(le.Uint64(img[24:])); pending != 0 {
		t.Errorf("encoded pending = %d, want 0", pending)
	}
	tail := img[len(img)-16:]
	if seed := int64(le.Uint64(tail)); seed != 42 {
		t.Errorf("encoded seed = %d, want 42", seed)
	}
	if draws := le.Uint64(tail[8:]); draws != e.RNGDraws() || draws == 0 {
		t.Errorf("encoded draws = %d, want %d", draws, e.RNGDraws())
	}

	// One more RNG draw moves the digest, though nothing else changed.
	e2.Rand().Float64()
	if string(encode(e2)) == string(img) {
		t.Fatal("an RNG draw did not change the engine encoding")
	}
}

func TestCountingSourcePreservesSequence(t *testing.T) {
	// The counting wrapper must not perturb the standard sequence.
	plain := NewEngineRandReference(7, 100)
	e := NewEngine(7)
	for i, want := range plain {
		if got := e.Rand().Int63(); got != want {
			t.Fatalf("draw %d = %d, want %d", i, got, want)
		}
	}
	if e.RNGDraws() != 100 {
		t.Fatalf("draws = %d, want 100", e.RNGDraws())
	}
}

func TestWaitGraphClassify(t *testing.T) {
	// Deadlock: two wedged nodes waiting on each other.
	g := NewWaitGraph()
	g.AddNode("nic-dma", true, false, "8 packets queued")
	g.AddNode("pcie-credits", true, false, "0/64 lines free")
	g.AddNode("iio-release", true, false, "64 lines sequestered")
	g.AddNode("fabric", true, true, "draining")
	g.AddEdge("nic-dma", "pcie-credits", "needs 8 lines")
	g.AddEdge("pcie-credits", "iio-release", "pool refills on release")
	g.AddEdge("iio-release", "pcie-credits", "release path wedged")
	class, cycle := g.Classify()
	if class != StallDeadlock {
		t.Fatalf("class = %v, want deadlock", class)
	}
	if len(cycle) != 2 || cycle[0] != "pcie-credits" || cycle[1] != "iio-release" {
		t.Fatalf("cycle = %v", cycle)
	}
	if s := g.String(); !strings.Contains(s, "deadlock") || !strings.Contains(s, "WEDGED") {
		t.Errorf("rendered graph missing verdict:\n%s", s)
	}

	// Starvation: wedged but acyclic.
	g2 := NewWaitGraph()
	g2.AddNode("a", true, false, "")
	g2.AddNode("b", false, false, "")
	g2.AddEdge("a", "b", "waiting")
	if class, members := g2.Classify(); class != StallStarvation || len(members) != 1 || members[0] != "a" {
		t.Fatalf("class = %v members = %v, want starvation [a]", class, members)
	}

	// Idle: demand satisfied or absent.
	g3 := NewWaitGraph()
	g3.AddNode("a", false, false, "")
	g3.AddNode("b", true, true, "")
	if class, _ := g3.Classify(); class != StallIdle {
		t.Fatalf("class = %v, want idle", class)
	}
}

func TestSentinelDetectsStall(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	demand := true

	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25, Policy: SentinelAbort})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return demand })
	s.SetGraphBuilder(func() *WaitGraph {
		g := NewWaitGraph()
		g.AddNode("worker", true, false, "blocked")
		g.AddNode("resource", true, false, "empty")
		g.AddEdge("worker", "resource", "needs one")
		g.AddEdge("resource", "worker", "refilled by worker")
		return g
	})
	var gotReport *StallReport
	s.OnStall(func(r *StallReport) { gotReport = r })
	s.Start()

	// Progress until t=200, then wedge. A background ticker keeps the
	// event queue non-empty (the stalled components schedule nothing).
	app := NewTicker(e, 10, func() {
		if e.Now() <= 200 {
			progress++
		}
	})
	defer app.Stop()

	e.RunUntil(1000)
	if gotReport == nil {
		t.Fatal("sentinel did not trip")
	}
	if s.Report() != gotReport {
		t.Fatal("Report() does not return the first report")
	}
	// Stall begins at 200; detection must land within [300, 300+Check].
	if gotReport.DetectedAt < 300 || gotReport.DetectedAt > 325 {
		t.Errorf("detected at %v, want within one check of 300", gotReport.DetectedAt)
	}
	if gotReport.Class != StallDeadlock || len(gotReport.Cycle) != 2 {
		t.Errorf("class = %v cycle = %v", gotReport.Class, gotReport.Cycle)
	}
	// Abort policy must have stopped the engine at detection time, and
	// RunUntil leaves the clock there.
	if e.Now() != gotReport.DetectedAt {
		t.Errorf("now = %v, want the detection time %v", e.Now(), gotReport.DetectedAt)
	}
	if s.Stalls != 1 {
		t.Errorf("stalls = %d, want 1 (sentinel stops after abort)", s.Stalls)
	}
}

func TestSentinelIgnoresIdleAndProgress(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return false }) // never demand
	s.Start()
	tick := NewTicker(e, 10, func() {})
	e.RunUntil(2000)
	tick.Stop()
	if s.Report() != nil {
		t.Fatal("sentinel tripped without demand")
	}

	// With demand but steady progress: no trip either.
	e2 := NewEngine(1)
	var p2 uint64
	s2 := NewSentinel(e2, SentinelConfig{Window: 100, Check: 25})
	s2.AddProbe("work", func() uint64 { return p2 })
	s2.SetDemand(func() bool { return true })
	s2.Start()
	t2 := NewTicker(e2, 50, func() { p2++ })
	e2.RunUntil(2000)
	t2.Stop()
	s2.Stop()
	if s2.Report() != nil {
		t.Fatal("sentinel tripped despite steady progress")
	}
}

func TestSentinelEscapePolicy(t *testing.T) {
	e := NewEngine(1)
	var progress uint64
	wedged := true

	s := NewSentinel(e, SentinelConfig{Window: 100, Check: 25, Policy: SentinelEscape})
	s.AddProbe("work", func() uint64 { return progress })
	s.SetDemand(func() bool { return wedged })
	escapes := 0
	s.SetEscape(func() bool {
		escapes++
		wedged = false // escape frees the resource
		return true
	})
	s.Start()
	app := NewTicker(e, 10, func() {})
	e.RunUntil(1000)
	app.Stop()
	s.Stop()

	if escapes != 1 {
		t.Fatalf("escape ran %d times, want 1", escapes)
	}
	if s.Report() == nil || !s.Report().Escaped {
		t.Fatal("report missing or not marked escaped")
	}
	// Escape policy must not stop the engine.
	if e.Now() != 1000 {
		t.Fatalf("now = %v, want 1000", e.Now())
	}
}

func TestTimerSnapshotState(t *testing.T) {
	encode := func(tm *Timer) []byte {
		var enc snapshot.Encoder
		tm.SnapshotState(&enc)
		return enc.Bytes()
	}
	e := NewEngine(1)
	tm := NewTimer(e, func() {})
	tm.Reset(500)
	img := encode(tm)

	// Layout: armed flag (one byte), deadline, generation.
	if img[0] != 1 {
		t.Fatalf("armed byte = %d, want 1", img[0])
	}
	if at := int64(binary.LittleEndian.Uint64(img[1:])); at != 500 {
		t.Fatalf("encoded deadline = %d, want 500", at)
	}

	// A timer driven identically encodes identically.
	tm2 := NewTimer(e, func() {})
	tm2.Reset(500)
	if string(encode(tm2)) != string(img) {
		t.Fatal("identically armed timers encode differently")
	}

	// Stopping the timer changes its encoding.
	tm.Stop()
	if string(encode(tm)) == string(img) {
		t.Fatal("stopping the timer did not change its encoding")
	}
	tm2.Stop()
	e.Run()
}

// NewEngineRandReference returns the first n Int63 draws of the unwrapped
// standard source for seed, as the reference sequence for the counting
// wrapper test.
func NewEngineRandReference(seed int64, n int) []int64 {
	r := rand.New(rand.NewSource(seed))
	out := make([]int64, n)
	for i := range out {
		out[i] = r.Int63()
	}
	return out
}
