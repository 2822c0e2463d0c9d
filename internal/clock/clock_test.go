package clock

import (
	"context"
	"sync"
	"testing"
	"time"
)

func TestVirtualAdvancesOnWait(t *testing.T) {
	v := NewVirtual()
	ctx := context.Background()
	if got := v.Now(); got != 0 {
		t.Fatalf("fresh virtual clock at %v, want 0", got)
	}
	if err := v.Wait(ctx, 300); err != nil {
		t.Fatal(err)
	}
	if got := v.Now(); got != 300 {
		t.Fatalf("after Wait(300): %v", got)
	}
	// Never backwards.
	if err := v.Wait(ctx, 100); err != nil {
		t.Fatal(err)
	}
	if got := v.Now(); got != 300 {
		t.Fatalf("Wait(100) moved the clock backwards to %v", got)
	}
}

func TestVirtualWaitHonoursCancellation(t *testing.T) {
	v := NewVirtual()
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := v.Wait(ctx, 300); err != context.Canceled {
		t.Fatalf("cancelled Wait returned %v", err)
	}
	if got := v.Now(); got != 0 {
		t.Fatalf("cancelled Wait advanced the clock to %v", got)
	}
}

func TestTickRoundSequence(t *testing.T) {
	var rounds []int
	var nows []float64
	err := Tick(context.Background(), NewVirtual(), 300, func(round int, now float64) bool {
		rounds = append(rounds, round)
		nows = append(nows, now)
		return round < 3
	})
	if err != nil {
		t.Fatal(err)
	}
	wantRounds := []int{0, 1, 2, 3}
	wantNows := []float64{0, 300, 600, 900}
	for i := range wantRounds {
		if i >= len(rounds) || rounds[i] != wantRounds[i] || nows[i] != wantNows[i] {
			t.Fatalf("tick sequence %v @ %v, want %v @ %v", rounds, nows, wantRounds, wantNows)
		}
	}
	if len(rounds) != len(wantRounds) {
		t.Fatalf("tick ran %d rounds, want %d", len(rounds), len(wantRounds))
	}
}

func TestTickFromResumesSequence(t *testing.T) {
	var rounds []int
	err := TickFrom(context.Background(), NewVirtual(), 300, 5, func(round int, now float64) bool {
		if now != float64(round)*300 {
			t.Fatalf("round %d at %v, want %v", round, now, float64(round)*300)
		}
		rounds = append(rounds, round)
		return round < 6
	})
	if err != nil {
		t.Fatal(err)
	}
	if len(rounds) != 2 || rounds[0] != 5 || rounds[1] != 6 {
		t.Fatalf("resumed tick ran %v, want [5 6]", rounds)
	}
}

func TestTickCancellationBetweenRounds(t *testing.T) {
	ctx, cancel := context.WithCancel(context.Background())
	ran := 0
	err := Tick(ctx, NewVirtual(), 300, func(round int, now float64) bool {
		ran++
		cancel() // next Wait must observe it; this round completes
		return true
	})
	if err != context.Canceled {
		t.Fatalf("cancelled tick returned %v", err)
	}
	if ran != 1 {
		t.Fatalf("tick ran %d rounds after cancellation, want 1 (in-flight round drains, no new round starts)", ran)
	}
}

func TestWallAtResumesOffset(t *testing.T) {
	w := NewWallAt(1234)
	if got := w.Now(); got < 1234 || got > 1235 {
		t.Fatalf("resumed wall clock reads %v, want ~1234", got)
	}
	// Waiting for an instant already past returns immediately.
	start := time.Now()
	if err := w.Wait(context.Background(), 1000); err != nil {
		t.Fatal(err)
	}
	if time.Since(start) > time.Second {
		t.Fatal("Wait for a past instant blocked")
	}
}

func TestWallWaitSleepsAndCancels(t *testing.T) {
	w := NewWallAt(0)
	// A short real wait completes.
	if err := w.Wait(context.Background(), 0.01); err != nil {
		t.Fatal(err)
	}
	if w.Now() < 0.01 {
		t.Fatalf("wall clock at %v after waiting for 0.01", w.Now())
	}
	// A long wait is interruptible.
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- w.Wait(ctx, 3600) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled wall Wait returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled wall Wait did not return")
	}
}

func TestSteppedWaitBlocksUntilAdvance(t *testing.T) {
	s := NewStepped()
	var mu sync.Mutex
	released := false
	done := make(chan error, 1)
	go func() {
		err := s.Wait(context.Background(), 300)
		mu.Lock()
		released = true
		mu.Unlock()
		done <- err
	}()
	// Not released by a partial advance.
	s.Set(100)
	time.Sleep(20 * time.Millisecond)
	mu.Lock()
	if released {
		mu.Unlock()
		t.Fatal("Wait(300) released at t=100")
	}
	mu.Unlock()
	s.Set(300)
	select {
	case err := <-done:
		if err != nil {
			t.Fatal(err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("Wait(300) not released at t=300")
	}
}

func TestSteppedWaitCancellable(t *testing.T) {
	s := NewStepped()
	ctx, cancel := context.WithCancel(context.Background())
	done := make(chan error, 1)
	go func() { done <- s.Wait(ctx, 300) }()
	cancel()
	select {
	case err := <-done:
		if err != context.Canceled {
			t.Fatalf("cancelled stepped Wait returned %v", err)
		}
	case <-time.After(5 * time.Second):
		t.Fatal("cancelled stepped Wait did not return")
	}
}
