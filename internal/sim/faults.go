package sim

import (
	"math"
	"slices"
	"strings"

	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/sched"
)

// applyFault mutates the world for one fault event. Called from
// advance at the event's exact time: progress up to the instant has
// already been applied, so a crash destroys exactly the since-checkpoint
// window and nothing more.
func (s *state) applyFault(ev faults.Event) {
	switch ev.Kind {
	case faults.Crash:
		if s.cluster.FailNode(ev.GPUType, ev.Node) {
			s.preemptOn(ev)
		}
	case faults.Recover:
		s.cluster.RecoverNode(ev.GPUType, ev.Node)
	case faults.SlowStart:
		s.cluster.SetSlow(ev.GPUType, ev.Node, ev.Factor)
		s.refreshSlowFactors(ev.Time)
	case faults.SlowEnd:
		s.cluster.ClearSlow(ev.GPUType, ev.Node)
		s.refreshSlowFactors(ev.Time)
	}
}

// preemptOn preempts the running jobs holding blocks on a crashed node,
// in ID order.
func (s *state) preemptOn(ev faults.Event) {
	var victims []*sched.Job
	for _, j := range s.running {
		for _, b := range s.simFor(j).blocks {
			if b.GPUType == ev.GPUType && b.Node == ev.Node {
				victims = append(victims, j)
				break
			}
		}
	}
	//arena:allow stablesort running jobs have distinct IDs
	slices.SortFunc(victims, func(x, y *sched.Job) int {
		return strings.Compare(x.Trace.ID, y.Trace.ID)
	})
	for _, j := range victims {
		s.preempt(ev.Time, j)
	}
}

// refreshSlowFactors recomputes every running job's straggler factor
// from the cluster's node state (an episode may start or end under a
// live allocation). A job whose factor changed is a rate change: its
// progress is materialized at the episode edge under the old rate and
// its completion re-predicted under the new one.
func (s *state) refreshSlowFactors(t float64) {
	for _, j := range s.running {
		f := s.cluster.SlowFactor(s.simFor(j).blocks)
		if f == j.SlowFactor {
			continue
		}
		s.materialize(j, t)
		j.SlowFactor = f
		s.rePredict(j, t)
	}
}

// preempt evicts a running job whose node died. Progress rolls back to
// the last durable checkpoint — the since-checkpoint window moves from
// goodput to waste and must be recomputed. Within its retry budget the
// job requeues behind an exponential backoff and will relaunch as a
// checkpoint restore; past it (or under the recovery-disabled ablation)
// it fails and every retained GPU-hour it ever earned becomes waste.
func (s *state) preempt(t float64, j *sched.Job) {
	// The job trained up to the crash instant; account that window before
	// rolling it back (the rollback is what destroys it).
	s.materialize(j, t)
	s.invalidate(j)
	s.release(j)
	s.running = removeJob(s.running, j)
	ac := s.simFor(j)
	s.goodputGPUSec -= ac.sinceCkptGPUSec
	s.wastedGPUSec += ac.sinceCkptGPUSec
	ac.retainedGPUSec -= ac.sinceCkptGPUSec
	lostSec := ac.sinceCkptSec
	ac.sinceCkptSec, ac.sinceCkptGPUSec = 0, 0
	j.RemainingSamples = j.CheckpointRemaining
	j.Preemptions++
	j.Alloc = sched.Alloc{}
	j.ActualThr = 0
	j.SlowFactor = 0
	j.BusyUntil = 0

	fc := s.faults
	if fc.DisableRecovery || j.Restarts >= fc.RetryBudget {
		// Dead for good: nothing it computed will ever be used.
		s.goodputGPUSec -= ac.retainedGPUSec
		s.wastedGPUSec += ac.retainedGPUSec
		ac.retainedGPUSec = 0
		j.State = sched.StateFailed
		j.FinishedAt = t
		s.retire(j)
		return
	}
	s.recomputeSec += lostSec
	j.Restarts++
	j.NextEligibleAt = t + fc.BackoffBase*math.Pow(2, float64(j.Restarts-1))
	j.Restarting = true
	j.State = sched.StateQueued
	s.enqueue(j)
}
