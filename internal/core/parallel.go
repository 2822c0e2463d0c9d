package core

import (
	"context"
	"sync"
)

// ParallelForCtx runs fn(i) for every i in [0, n) on up to `workers`
// goroutines, blocking until all complete. workers <= 1 (or n < 2) runs
// inline on the caller's goroutine. fn must be safe to call concurrently.
// Once ctx is cancelled no further iterations start, in-flight iterations
// finish, and the call returns ctx.Err(). Iterations that never started
// are simply skipped — callers must treat a non-nil return as "results
// incomplete". All worker goroutines are joined before returning,
// cancelled or not, so the pool cannot leak.
func ParallelForCtx(ctx context.Context, n, workers int, fn func(i int)) error {
	if ctx == nil {
		ctx = context.Background()
	}
	if workers > n {
		workers = n
	}
	if workers <= 1 {
		for i := 0; i < n; i++ {
			if err := ctx.Err(); err != nil {
				return err
			}
			fn(i)
		}
		return ctx.Err()
	}
	var wg sync.WaitGroup
	next := make(chan int)
	done := ctx.Done()
	wg.Add(workers)
	for k := 0; k < workers; k++ {
		go func() {
			defer wg.Done()
			for i := range next {
				fn(i)
			}
		}()
	}
	// The channel is unbuffered, so a cancelled send means the index never
	// reached a worker: stopping here stops the whole remaining range
	// within one scheduling quantum of the pool.
feed:
	for i := 0; i < n; i++ {
		select {
		case next <- i:
		case <-done:
			break feed
		}
	}
	close(next)
	wg.Wait()
	return ctx.Err()
}
