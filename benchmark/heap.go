package main

import (
	"runtime"
	rtmetrics "runtime/metrics"
	"sync"
	"sync/atomic"
)

// heapWatch keeps the largest live heap a garbage collection has marked
// since the last reset. A finalizer on an unreachable canary runs after
// every collection and re-arms itself, so every cycle is sampled without
// polling.
type heapWatch struct {
	once sync.Once
	peak atomic.Uint64
}

var liveHeap heapWatch

type gcCanary struct{ _ [16]byte }

// reset starts a new peak from the heap the last collection left live.
func (h *heapWatch) reset() {
	h.once.Do(h.arm)
	h.peak.Store(liveBytes())
}

func (h *heapWatch) arm() {
	runtime.SetFinalizer(&gcCanary{}, func(*gcCanary) {
		h.observe(liveBytes())
		h.arm()
	})
}

func (h *heapWatch) observe(b uint64) {
	for {
		old := h.peak.Load()
		if b <= old || h.peak.CompareAndSwap(old, b) {
			return
		}
	}
}

func (h *heapWatch) mb() float64 { return float64(h.peak.Load()) / 1e6 }

// liveBytes is the heap the last collection marked live.
func liveBytes() uint64 {
	s := []rtmetrics.Sample{{Name: "/gc/heap/live:bytes"}}
	rtmetrics.Read(s)
	return s[0].Value.Uint64()
}
