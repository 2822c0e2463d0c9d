package sim

import (
	"context"
	"slices"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sched/schedtest"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// changesProbe checks the engine's queue contract on every round before
// its policy decides: Queued is in ascending QueueSeq, one engine hands
// out one QueueChanges whose Round counts up by one, and Entered lists
// exactly the jobs of Queued that were not in the previous round's
// Queued under the same QueueSeq, in Queued order. midQueue counts the
// entered jobs that sit before a job that did not enter (crash requeues
// whose backoff ended).
type changesProbe struct {
	sched.Policy
	t    *testing.T
	name string

	changes  *sched.QueueChanges
	round    uint64
	prev     map[*sched.Job]uint64
	entered  int
	midQueue int
}

func (c *changesProbe) Assign(ctx *sched.Context) sched.Assignment {
	ch := ctx.Changes
	if ch == nil {
		c.t.Fatalf("%s at t=%g: no Changes", c.name, ctx.Now)
	}
	if (c.changes != nil && ch != c.changes) || ch.Round != c.round+1 {
		c.t.Fatalf("%s at t=%g: Changes %p round %d after %p round %d", c.name, ctx.Now, ch, ch.Round, c.changes, c.round)
	}
	c.changes, c.round = ch, ch.Round
	cur := make(map[*sched.Job]uint64, len(ctx.Queued))
	var want []*sched.Job
	var at []int // the entered jobs' positions in Queued
	last := -1   // the last position of a job that did not enter
	for i, j := range ctx.Queued {
		if i > 0 && j.QueueSeq <= ctx.Queued[i-1].QueueSeq {
			c.t.Fatalf("%s at t=%g: Queued[%d] has QueueSeq %d after %d", c.name, ctx.Now, i, j.QueueSeq, ctx.Queued[i-1].QueueSeq)
		}
		cur[j] = j.QueueSeq
		if s, ok := c.prev[j]; ok && s == j.QueueSeq {
			last = i
		} else {
			want = append(want, j)
			at = append(at, i)
		}
	}
	if !slices.Equal(ch.Entered, want) {
		c.t.Fatalf("%s at t=%g: Entered lists %d jobs, %d entered", c.name, ctx.Now, len(ch.Entered), len(want))
	}
	for _, i := range at {
		if i < last {
			c.midQueue++
		}
	}
	c.entered += len(want)
	c.prev = cur
	return c.Policy.Assign(ctx)
}

// TestQueueChangesMatchQueued runs every golden configuration through
// changesProbe: the engine's Changes must describe its Queued exactly on
// every round, with faults on and off, and the faulted runs must enter
// jobs mid-queue.
func TestQueueChangesMatchQueued(t *testing.T) {
	entered, midQueue := 0, 0
	for name, cfg := range goldenConfigs(t) {
		probe := &changesProbe{Policy: cfg.Policy, t: t, name: name}
		cfg.Policy = probe
		if _, err := RunCtx(context.Background(), cfg); err != nil {
			t.Fatalf("%s: %v", name, err)
		}
		entered += probe.entered
		midQueue += probe.midQueue
	}
	if entered == 0 || midQueue == 0 {
		t.Errorf("%d jobs entered, %d of them mid-queue: the runs miss a case", entered, midQueue)
	}
}

// TestFedQueueMatchesRebuilt runs every golden configuration of an Arena
// policy with the policy fed by the engine's Changes and, beside it, a
// twin that rebuilds its launch FIFOs from Queued every round
// (schedtest.MatchRebuilt): every round must decide the same, and the
// fed policy's results must still match the golden digests.
func TestFedQueueMatchesRebuilt(t *testing.T) {
	runs := matchGoldens(t, func(p sched.Policy) sched.Policy {
		fed, ok := p.(*sched.ArenaPolicy)
		if !ok {
			return nil
		}
		shadow := *fed
		return schedtest.MatchRebuilt(t, fed, &shadow)
	})
	if runs["arena"] == 0 {
		t.Fatal("no golden configuration runs an Arena policy")
	}
}

// roundHook wraps a policy with a per-round hook; a round whose hook
// returns false never reaches the policy and assigns nothing.
type roundHook struct {
	sched.Policy
	rounds int
	hook   func(round int) bool
}

func (h *roundHook) Assign(ctx *sched.Context) sched.Assignment {
	h.rounds++
	if !h.hook(h.rounds) {
		return sched.NewAssignment()
	}
	return h.Policy.Assign(ctx)
}

// TestFedQueueRebuildsWhenItMust drives one fed Arena policy and its
// rebuilding twin (schedtest.MatchRebuilt) through two simulations in a
// row — one pair of instances across two engines — and, in each, flips
// an ablation switch that changes the launch signatures mid-run and
// withholds one round from the policy, so the next round does not
// follow the last one it saw. The trace is a Helios day of 2,000 jobs on
// Cluster A: its queue runs hundreds of jobs deep. Then the pair serves
// two engines in lockstep. Every round must decide the same.
func TestFedQueueRebuildsWhenItMust(t *testing.T) {
	fed, shadow := sched.NewArena(), sched.NewArena()
	for _, flip := range []func(p *sched.ArenaPolicy){
		func(p *sched.ArenaPolicy) { p.DisableHetero = true },
		func(p *sched.ArenaPolicy) { p.DisableHetero, p.DisableElastic = false, true },
	} {
		cfg := trace.HeliosDay(5, []string{"A40", "A10"}, 2000)
		cfg.Workloads = []model.Workload{
			{Model: "WRes-1B", GlobalBatch: 256},
			{Model: "GPT-1.3B", GlobalBatch: 128},
			{Model: "GPT-2.6B", GlobalBatch: 128},
		}
		src, err := trace.Stream(cfg)
		if err != nil {
			t.Fatal(err)
		}
		pair := schedtest.MatchRebuilt(t, fed, shadow)
		_, err = RunCtx(context.Background(), Config{
			Spec: hw.ClusterA(), Source: src, DB: db(t),
			RoundSeconds: 300, MaxRounds: 200, IncludeUnfinished: true, Seed: 1,
			Policy: &roundHook{Policy: pair, hook: func(round int) bool {
				switch round {
				case 40:
					flip(fed)
					flip(shadow)
				case 80:
					return false
				}
				return true
			}},
		})
		if err != nil {
			t.Fatal(err)
		}
	}

	// Two engines on different traces in lockstep share one pair of
	// instances: each round's Changes follow the previous round of their
	// own engine, never the round the policy saw last.
	pair := schedtest.MatchRebuilt(t, fed, shadow)
	var engines []*Engine
	for _, src := range []trace.Source{phillyStream(t), trace.SliceSource(testJobs(t, 120))} {
		e, err := NewEngine(Config{
			Spec: hw.ClusterA(), Policy: pair, Source: src, DB: db(t),
			RoundSeconds: 300, MaxRounds: 100, Seed: 1,
		})
		if err != nil {
			t.Fatal(err)
		}
		engines = append(engines, e)
	}
	for round := 0; round < 100; round++ {
		for _, e := range engines {
			e.Round(float64(round) * 300)
		}
	}
}
