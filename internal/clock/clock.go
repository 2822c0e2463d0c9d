// Package clock abstracts scheduler time so the simulator and the
// long-running server drive the *same* round loop: time is float64
// seconds since the run's epoch, a Virtual clock reaches any instant
// immediately (the simulator's discrete-event time), a Wall clock maps
// the run timeline onto real time (the server's daemon mode), and a
// Stepped clock advances only when told to (deterministic server tests).
//
// The round loop itself lives here too (Tick/TickFrom), so "one shared
// scheduling code path" is literal: sim.RunCtx and server.Server.Run
// both hand the same per-round callback to the same driver and differ
// only in the Clock they plug in — the paper's shared-code fidelity
// argument (§4) extended from the policy layer to the loop that invokes
// it.
//
// Scheduling logic must never read time directly: the clockdiscipline
// analyzer (internal/analysis, run by arena-vet) bans time.Now,
// time.Sleep and friends inside internal/{sched,sim,server}, so every
// time source flows through this interface and a journaled run can be
// replayed bit-identically.
package clock

import (
	"context"
	"math"
	"sync"
	"time"
)

// Clock is the scheduler's time source. Instants are float64 seconds
// since the run's epoch (the unit every simulator quantity already
// uses), not wall timestamps: a restarted server resumes the *run*
// timeline, not the machine's.
type Clock interface {
	// Now returns the current instant on the run timeline.
	Now() float64
	// Wait blocks until the clock reaches t or ctx is cancelled,
	// returning ctx.Err() in the latter case. If the clock is already at
	// or past t, Wait still observes ctx (a cancelled context always
	// wins) but does not block.
	Wait(ctx context.Context, t float64) error
}

// Virtual is the simulator's clock: Wait advances it to the target
// instant immediately, so a discrete-event run burns no wall time.
// Safe for concurrent use.
type Virtual struct {
	mu  sync.Mutex
	now float64
}

// NewVirtual returns a Virtual clock at instant 0.
func NewVirtual() *Virtual { return &Virtual{} }

// Now returns the furthest instant any Wait has reached.
func (v *Virtual) Now() float64 {
	v.mu.Lock()
	defer v.mu.Unlock()
	return v.now
}

// Wait advances the clock to t (never backwards) and returns
// immediately; a cancelled context wins over the advance.
func (v *Virtual) Wait(ctx context.Context, t float64) error {
	if err := ctx.Err(); err != nil {
		return err
	}
	v.mu.Lock()
	if t > v.now {
		v.now = t
	}
	v.mu.Unlock()
	return nil
}

// Wall maps the run timeline onto real time: instant 0 is the epoch the
// clock was constructed against, and Wait really sleeps. Safe for
// concurrent use.
type Wall struct {
	epoch time.Time
}

// NewWallAt returns a Wall clock that currently reads `offset` seconds —
// how a recovered server resumes its journaled timeline: restarting at
// offset L makes round ⌈L/interval⌉+1 fire one interval later, exactly
// where the crashed process would have been.
func NewWallAt(offset float64) *Wall {
	return &Wall{epoch: time.Now().Add(-time.Duration(offset * float64(time.Second)))}
}

// Now returns seconds elapsed on the run timeline.
func (w *Wall) Now() float64 { return time.Since(w.epoch).Seconds() }

// Wait sleeps until the run timeline reaches t or ctx is cancelled.
func (w *Wall) Wait(ctx context.Context, t float64) error {
	for {
		if err := ctx.Err(); err != nil {
			return err
		}
		d := t - w.Now()
		if d <= 0 {
			return nil
		}
		timer := time.NewTimer(time.Duration(d * float64(time.Second)))
		select {
		case <-ctx.Done():
			timer.Stop()
			return ctx.Err()
		case <-timer.C:
			// Re-check: timers can fire marginally early after rounding.
		}
	}
}

// Stepped is a manually advanced clock for deterministic tests of the
// live server loop: Wait blocks until Advance/Set moves the clock past
// the target, so a test releases rounds one at a time while the server
// runs its real Tick loop. Safe for concurrent use.
type Stepped struct {
	mu   sync.Mutex
	cond *sync.Cond
	now  float64
}

// NewStepped returns a Stepped clock at instant 0.
func NewStepped() *Stepped {
	s := &Stepped{}
	s.cond = sync.NewCond(&s.mu)
	return s
}

// Now returns the clock's current instant.
func (s *Stepped) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.now
}

// Set moves the clock to t (never backwards) and wakes all waiters.
func (s *Stepped) Set(t float64) {
	s.mu.Lock()
	if t > s.now {
		s.now = t
	}
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Advance moves the clock forward by d seconds.
func (s *Stepped) Advance(d float64) {
	s.mu.Lock()
	s.now += d
	s.mu.Unlock()
	s.cond.Broadcast()
}

// Wait blocks until the clock reaches t or ctx is cancelled.
func (s *Stepped) Wait(ctx context.Context, t float64) error {
	// A condition variable cannot select on ctx.Done(); a watcher
	// goroutine turns cancellation into a broadcast so waiters re-check.
	done := make(chan struct{})
	defer close(done)
	go func() {
		select {
		case <-ctx.Done():
			s.cond.Broadcast()
		case <-done:
		}
	}()
	s.mu.Lock()
	defer s.mu.Unlock()
	for s.now < t {
		if err := ctx.Err(); err != nil {
			return err
		}
		s.cond.Wait()
	}
	return ctx.Err()
}

// TickFrom drives scheduling rounds on a clock: round k fires when the
// clock reaches k*interval, and fn receives the round index and the
// round's *nominal* instant (k*interval, not the possibly-late wall
// reading) — nominal instants are what make a wall-clock run replayable
// bit-identically from its journal. fn returning false stops the loop
// with a nil error; context cancellation stops it with ctx.Err(), always
// *between* rounds, so an in-flight round is never interrupted
// mid-decision (the server's graceful-drain guarantee).
//
// startRound lets a recovered server resume the round sequence where the
// journal ends; fresh runs start at 0 via Tick.
func TickFrom(ctx context.Context, c Clock, interval float64, startRound int, fn func(round int, now float64) bool) error {
	if startRound > math.MaxInt-1 {
		startRound = math.MaxInt - 1
	}
	for round := startRound; ; round++ {
		if err := c.Wait(ctx, float64(round)*interval); err != nil {
			return err
		}
		if !fn(round, float64(round)*interval) {
			return nil
		}
	}
}

// Tick is TickFrom starting at round 0 — the fresh-run spelling shared
// by the simulator and a newly started server.
func Tick(ctx context.Context, c Clock, interval float64, fn func(round int, now float64) bool) error {
	return TickFrom(ctx, c, interval, 0, fn)
}
