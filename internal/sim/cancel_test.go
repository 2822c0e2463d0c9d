package sim

import (
	"context"
	"sync/atomic"
	"testing"

	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// TestRunCtxCancellation: a cancelled context aborts the round loop with
// ctx.Err(), and the progress stream can drive the cancellation
// deterministically mid-simulation.
func TestRunCtxCancellation(t *testing.T) {
	jobs := testJobs(t, 20)

	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if res, err := RunCtx(ctx, Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true,
	}); err != context.Canceled || res != nil {
		t.Fatalf("pre-cancelled run: res=%v err=%v, want nil/context.Canceled", res, err)
	}

	ctx2, cancel2 := context.WithCancel(context.Background())
	defer cancel2()
	var rounds atomic.Int32
	res, err := RunCtx(ctx2, Config{
		Spec: hw.ClusterA(), Policy: sched.NewArena(), Source: trace.SliceSource(jobs), DB: db(t),
		RoundSeconds: 300, IncludeUnfinished: true,
		Progress: func(e core.Event) {
			if rounds.Add(1) == 3 {
				cancel2()
			}
		},
	})
	if err != context.Canceled || res != nil {
		t.Fatalf("mid-flight cancel: res=%v err=%v, want nil/context.Canceled", res, err)
	}
	if got := rounds.Load(); got != 3 {
		t.Fatalf("simulation ran %d rounds after cancellation at round 3", got)
	}
}
