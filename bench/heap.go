package main

import (
	"runtime"
	"runtime/metrics"
	"sync/atomic"
)

// heapPeak tracks the largest live heap any GC cycle marked while it is
// armed, starting from the last cycle before it: a finalizer on a
// throwaway object runs after each cycle, reads the cycle's live-heap
// size and re-arms itself.
type heapPeak struct {
	peak    atomic.Uint64
	stopped atomic.Bool
}

func startHeapPeak() *heapPeak {
	p := &heapPeak{}
	p.peak.Store(liveHeap())
	p.arm()
	return p
}

func (p *heapPeak) arm() {
	// Large enough to get its own allocation: finalizers on tiny-allocator
	// objects may never run.
	sentinel := new([64]byte)
	runtime.SetFinalizer(sentinel, func(*[64]byte) {
		if v := liveHeap(); v > p.peak.Load() {
			p.peak.Store(v)
		}
		if !p.stopped.Load() {
			p.arm()
		}
	})
}

// stop disarms the watcher and returns the peak seen.
func (p *heapPeak) stop() uint64 {
	p.stopped.Store(true)
	return p.peak.Load()
}

// liveHeap is the heap the last GC cycle marked live.
func liveHeap() uint64 {
	s := []metrics.Sample{{Name: "/gc/heap/live:bytes"}}
	metrics.Read(s)
	return s[0].Value.Uint64()
}
