package sweep

import (
	"runtime"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"
	"time"
)

func TestMapOrderAndCompleteness(t *testing.T) {
	got := Map(100, 8, func(i int) int { return i * i })
	for i, v := range got {
		if v != i*i {
			t.Fatalf("out[%d] = %d", i, v)
		}
	}
}

// TestMapActuallyParallel: a 4-worker Map runs calls at the same time.
// Each call waits inside fn until as many calls as the caller and the
// pool can run at once (the caller and up to three pool workers) are
// inside together; a serial Map never gets there and fails at a
// deadline that only a stalled run reaches.
func TestMapActuallyParallel(t *testing.T) {
	want := min(4, 1+Workers())
	var mu sync.Mutex
	calls, inside, most := 0, 0, 0
	together, giveUp := make(chan struct{}), make(chan struct{})
	var once sync.Once
	deadline := time.AfterFunc(5*time.Second, func() { close(giveUp) })
	defer deadline.Stop()
	Map(16, 4, func(i int) int {
		mu.Lock()
		calls++
		inside++
		most = max(most, inside)
		all := inside >= want
		mu.Unlock()
		if all {
			once.Do(func() { close(together) })
		}
		select {
		case <-together:
		case <-giveUp:
		}
		mu.Lock()
		inside--
		mu.Unlock()
		return i
	})
	if calls != 16 {
		t.Fatalf("calls = %d", calls)
	}
	select {
	case <-together:
	default:
		t.Fatalf("at most %d calls inside fn at once before the deadline; want %d", most, want)
	}
}

func TestMapEdgeCases(t *testing.T) {
	if got := Map(0, 4, func(int) int { return 1 }); got != nil {
		t.Fatal("n=0 should return nil")
	}
	got := Map(3, 100, func(i int) int { return i }) // workers > n
	if len(got) != 3 {
		t.Fatalf("len = %d", len(got))
	}
	got = Map(5, 1, func(i int) int { return i }) // serial path
	for i, v := range got {
		if v != i {
			t.Fatal("serial path wrong")
		}
	}
	got = Map(4, -1, func(i int) int { return i }) // auto workers
	if len(got) != 4 {
		t.Fatal("auto workers wrong")
	}
}

func TestMap2RowMajor(t *testing.T) {
	got := Map2(3, 4, 4, func(r, c int) [2]int { return [2]int{r, c} })
	if len(got) != 12 {
		t.Fatalf("len = %d", len(got))
	}
	for i, rc := range got {
		if rc[0] != i/4 || rc[1] != i%4 {
			t.Fatalf("index %d = %v", i, rc)
		}
	}
}

// Property: Map equals the serial evaluation for any n and worker count.
func TestMapMatchesSerialProperty(t *testing.T) {
	f := func(n, workers uint8) bool {
		nn := int(n % 64)
		fn := func(i int) int { return i*31 + 7 }
		par := Map(nn, int(workers%8), fn)
		for i := 0; i < nn; i++ {
			if par[i] != fn(i) {
				return false
			}
		}
		return len(par) == nn || (nn == 0 && par == nil)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Fatal(err)
	}
}

func TestMapNestedNoDeadlock(t *testing.T) {
	// A Map inside a Map's fn must complete even when the outer batch
	// saturates every pool worker: recruitment never blocks and the inner
	// caller executes its own indices.
	done := make(chan []int, 1)
	go func() {
		done <- Map(8, 8, func(i int) int {
			inner := Map(8, 8, func(j int) int { return i*8 + j })
			sum := 0
			for _, v := range inner {
				sum += v
			}
			return sum
		})
	}()
	select {
	case out := <-done:
		for i, v := range out {
			want := 0
			for j := 0; j < 8; j++ {
				want += i*8 + j
			}
			if v != want {
				t.Fatalf("out[%d] = %d, want %d", i, v, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map deadlocked")
	}
}

// TestMapNestedSaturatedPool: every pool worker and the caller run an
// outer cell whose fn runs an inner Map, so each inner call queues a
// helper that no free worker will ever start. The inner caller must not
// wait for it. The outer batch is sized from GOMAXPROCS, so the pool is
// saturated at any GOMAXPROCS, and a regression fails by timeout instead
// of hanging the test binary.
func TestMapNestedSaturatedPool(t *testing.T) {
	outer := 2*runtime.GOMAXPROCS(0) + 2
	done := make(chan []int, 1)
	go func() {
		done <- Map(outer, outer, func(i int) int {
			sum := 0
			for _, v := range Map(4, 2, func(j int) int { return i*4 + j }) {
				sum += v
			}
			return sum
		})
	}()
	select {
	case out := <-done:
		for i, v := range out {
			if want := 16*i + 6; v != want {
				t.Fatalf("out[%d] = %d, want %d", i, v, want)
			}
		}
	case <-time.After(10 * time.Second):
		t.Fatal("nested Map on a saturated pool did not return within 10 s")
	}
}

// TestBatchSlots: each index runs exactly once, slots stay within
// [0, workers), and a slot is never held by two participants at once, so
// per-slot accumulators need no synchronization. Reusing one Batch for
// many runs, at shrinking and growing worker counts, keeps all of it.
func TestBatchSlots(t *testing.T) {
	var b Batch
	for run := 0; run < 200; run++ {
		n, workers := 1+run%37, 1+run%9
		var hits [37]atomic.Int32
		var busy [9]atomic.Int32
		b.Run(n, workers, func(slot, i int) {
			if slot < 0 || slot >= workers {
				t.Errorf("run %d: slot %d outside [0, %d)", run, slot, workers)
				return
			}
			if busy[slot].Add(1) != 1 {
				t.Errorf("run %d: slot %d held by two participants", run, slot)
			}
			hits[i].Add(1)
			busy[slot].Add(-1)
		})
		for i := range hits {
			if want := int32(0); i < n {
				want = 1
				if got := hits[i].Load(); got != want {
					t.Fatalf("run %d: index %d ran %d times, want %d", run, i, got, want)
				}
			} else if got := hits[i].Load(); got != want {
				t.Fatalf("run %d: index %d beyond n=%d ran", run, i, n)
			}
		}
	}
}

// TestBatchLateHelperLeaves: with every pool worker busy, a batch runs
// on its caller alone and returns; the workers that wake up later do not
// find it, so its body never runs after Run returned.
func TestBatchLateHelperLeaves(t *testing.T) {
	// Occupy every pool worker: each participant of this batch blocks
	// in its one index until release.
	release := make(chan struct{})
	var started sync.WaitGroup
	started.Add(Workers() + 1)
	blockers := make(chan struct{})
	go func() {
		var b Batch
		b.Run(Workers()+1, Workers()+1, func(int, int) {
			started.Done()
			<-release
		})
		close(blockers)
	}()
	waitOrFail(t, &started)

	var b Batch
	var calls, helped atomic.Int32
	b.Run(16, 4, func(slot, _ int) {
		calls.Add(1)
		if slot != 0 {
			helped.Add(1)
		}
	})
	if calls.Load() != 16 || helped.Load() != 0 {
		t.Fatalf("saturated pool: %d calls, %d on helpers; want 16 on the caller", calls.Load(), helped.Load())
	}
	close(release)
	<-blockers
	Map(8, Workers(), func(i int) int { return i }) // the woken workers drain
	if calls.Load() != 16 {
		t.Fatalf("body ran %d times after Run returned", calls.Load()-16)
	}
	poolMu.Lock()
	defer poolMu.Unlock()
	if len(open) != 0 {
		t.Fatalf("%d batches still open", len(open))
	}
}

// waitOrFail waits for wg, failing the test after 10 s.
func waitOrFail(t *testing.T, wg *sync.WaitGroup) {
	t.Helper()
	ok := make(chan struct{})
	go func() { wg.Wait(); close(ok) }()
	select {
	case <-ok:
	case <-time.After(10 * time.Second):
		t.Fatal("pool workers never started")
	}
}

// TestBatchZeroAlloc: a reused Batch allocates nothing per Run, with
// helpers recruited from the pool.
func TestBatchZeroAlloc(t *testing.T) {
	var b Batch
	var sum [64]int64
	body := func(slot, i int) { sum[slot] += int64(i) }
	b.Run(64, 4, body)
	if allocs := testing.AllocsPerRun(200, func() { b.Run(64, 4, body) }); allocs != 0 {
		t.Fatalf("Batch.Run allocates %.1f per call after the first; want 0", allocs)
	}
}

func TestMapReusesWorkers(t *testing.T) {
	// Warm the pool, then check that hundreds of Map calls do not grow the
	// goroutine count: workers are recruited from the shared pool, not
	// spawned per call.
	Map(8, 4, func(i int) int { return i })
	before := runtime.NumGoroutine()
	for k := 0; k < 300; k++ {
		Map(16, 4, func(i int) int { return i * k })
	}
	// Allow slack for test-framework goroutines and helpers mid-exit.
	if after := runtime.NumGoroutine(); after > before+8 {
		t.Fatalf("goroutines grew from %d to %d across 300 Map calls", before, after)
	}
}

func TestSeedForIndependence(t *testing.T) {
	seen := make(map[int64]bool)
	for i := 0; i < 1000; i++ {
		s := SeedFor(42, i)
		if seen[s] {
			t.Fatalf("duplicate seed at index %d", i)
		}
		seen[s] = true
	}
	// Distinct bases give distinct streams.
	if SeedFor(1, 0) == SeedFor(2, 0) {
		t.Fatal("bases 1 and 2 collide at index 0")
	}
	// Derivation is pure: same inputs, same seed.
	if SeedFor(42, 7) != SeedFor(42, 7) {
		t.Fatal("SeedFor is not deterministic")
	}
}

func TestMapSeededDeterministicAcrossWorkers(t *testing.T) {
	run := func(workers int) []int64 {
		return MapSeeded(32, workers, 42, func(i int, seed int64) int64 {
			return seed ^ int64(i)
		})
	}
	serial := run(1)
	for _, w := range []int{2, 4, 8} {
		par := run(w)
		for i := range serial {
			if par[i] != serial[i] {
				t.Fatalf("workers=%d: out[%d] = %d, want %d", w, i, par[i], serial[i])
			}
		}
	}
}
