package core

import (
	"context"
	"runtime"
	"sync/atomic"
	"testing"
	"time"
)

// TestParallelForCtxUncancelledMatchesParallelFor checks the plain
// parallel-for contract of an uncancelled pool: every index runs exactly
// once, at every width.
func TestParallelForCtxUncancelledMatchesParallelFor(t *testing.T) {
	for _, workers := range []int{1, 2, 8} {
		var ran [64]atomic.Int32
		if err := ParallelForCtx(context.Background(), len(ran), workers, func(i int) {
			ran[i].Add(1)
		}); err != nil {
			t.Fatalf("workers=%d: %v", workers, err)
		}
		for i := range ran {
			if got := ran[i].Load(); got != 1 {
				t.Fatalf("workers=%d: index %d ran %d times", workers, i, got)
			}
		}
	}
}

func TestParallelForCtxPreCancelled(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	for _, workers := range []int{1, 4} {
		var ran atomic.Int32
		err := ParallelForCtx(ctx, 100, workers, func(i int) { ran.Add(1) })
		if err != context.Canceled {
			t.Fatalf("workers=%d: err = %v, want context.Canceled", workers, err)
		}
		// The parallel path may hand out up to `workers` indices before the
		// cancelled select is observed; the serial path starts none.
		if got := ran.Load(); got > int32(workers) {
			t.Fatalf("workers=%d: %d iterations ran after pre-cancel", workers, got)
		}
	}
}

func TestParallelForCtxCancelMidRunStopsAndJoins(t *testing.T) {
	before := runtime.NumGoroutine()
	ctx, cancel := context.WithCancel(context.Background())
	var ran atomic.Int32
	err := ParallelForCtx(ctx, 1000, 4, func(i int) {
		if ran.Add(1) == 8 {
			cancel() // cancel from inside the pool, deterministically
		}
	})
	if err != context.Canceled {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	// In-flight iterations finish, queued ones never start: with 4 workers
	// and an unbuffered feed only a handful can follow the 8th.
	if got := ran.Load(); got >= 1000 || got < 8 {
		t.Fatalf("ran %d of 1000 iterations after cancel", got)
	}
	// The pool must be fully joined — poll briefly for the runtime to
	// retire the worker goroutines.
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}
}
