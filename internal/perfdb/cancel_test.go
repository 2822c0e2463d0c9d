package perfdb

import (
	"context"
	"runtime"
	"sync"
	"testing"
	"time"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/model"
)

func cancelOpts() Options {
	return Options{
		GPUTypes:  []string{"A40"},
		MaxN:      4,
		Workloads: []model.Workload{{Model: "WRes-0.5B", GlobalBatch: 256}},
	}
}

// TestBuildCtxCancellation asserts the tentpole contract for database
// builds: cancelling mid-build returns ctx.Err() promptly with no
// database and no leaked goroutines, and a subsequent uncancelled build
// on the same engine matches a fresh build on a new engine bit for bit.
func TestBuildCtxCancellation(t *testing.T) {
	eng := exec.NewEngine(42)
	before := runtime.NumGoroutine()

	// Pre-cancelled: the build refuses before sampling anything.
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if db, err := BuildCtx(ctx, eng, cancelOpts()); err != context.Canceled || db != nil {
		t.Fatalf("pre-cancelled build: db=%v err=%v, want nil/context.Canceled", db, err)
	}

	// Cancelled mid-flight, deterministically: the progress stream fires
	// after the first (workload, type, count) point lands.
	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	opts := cancelOpts()
	opts.Progress = func(e core.Event) {
		if e.Step == "perfdb.build" && e.Done == 1 {
			cancel2()
		}
	}
	db, err := BuildCtx(ctx2, eng, opts)
	if err != context.Canceled || db != nil {
		t.Fatalf("mid-flight cancel: db=%v err=%v, want nil/context.Canceled", db, err)
	}
	deadline := time.Now().Add(2 * time.Second)
	for runtime.NumGoroutine() > before && time.Now().Before(deadline) {
		time.Sleep(10 * time.Millisecond)
	}
	if now := runtime.NumGoroutine(); now > before {
		t.Fatalf("goroutines leaked: %d before, %d after", before, now)
	}

	// The engine is stateless across builds: after the aborted attempts an
	// uncancelled build still matches a fresh engine's build exactly.
	rebuilt, err := BuildCtx(context.Background(), eng, cancelOpts())
	if err != nil {
		t.Fatal(err)
	}
	fresh, err := BuildCtx(context.Background(), exec.NewEngine(42), cancelOpts())
	if err != nil {
		t.Fatal(err)
	}
	equalDBExact(t, rebuilt, fresh)
}

// TestBuildCtxProgressCoversEveryPoint asserts the progress stream emits
// exactly one event per (workload, type, count) point with a stable
// total.
func TestBuildCtxProgressCoversEveryPoint(t *testing.T) {
	eng := exec.NewEngine(42)
	opts := cancelOpts()
	seen := map[string]int{}
	var mu sync.Mutex
	opts.Progress = func(e core.Event) {
		mu.Lock()
		seen[e.Item]++
		mu.Unlock()
		if e.Total != 3 { // 1 workload × 1 type × counts {1,2,4}
			t.Errorf("event total = %d, want 3", e.Total)
		}
	}
	if _, err := BuildCtx(context.Background(), eng, opts); err != nil {
		t.Fatal(err)
	}
	if len(seen) != 3 {
		t.Fatalf("progress covered %d points, want 3: %v", len(seen), seen)
	}
	for item, n := range seen {
		if n != 1 {
			t.Errorf("point %s reported %d times", item, n)
		}
	}
}
