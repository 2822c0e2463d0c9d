package sim

import (
	"fmt"

	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Engine is the simulator's world exposed one step at a time: the same
// state machine and round body RunCtx drives to completion, usable
// incrementally so a long-running scheduler daemon can feed it jobs as
// they arrive over HTTP and fire rounds from a wall clock. The batch
// simulator and internal/server literally share this code path — the
// paper's shared-scheduling-code fidelity claim (§4), made structural.
//
// An Engine is not safe for concurrent use; callers that take input from
// many goroutines (the server) serialize access themselves. All instants
// are seconds on the run timeline (see internal/clock); rounds must be
// fired with non-decreasing `now`.
type Engine struct {
	s         *state
	maxRounds int
}

// NewEngine validates the configuration and builds the initial world:
// cfg.Source is pulled from on demand as rounds reach its submission
// times. An empty world is valid — the daemon starts idle and submits
// later.
func NewEngine(cfg Config) (*Engine, error) {
	if cfg.Policy == nil || cfg.DB == nil {
		return nil, fmt.Errorf("sim: need a policy and a perfdb")
	}
	if cfg.RoundSeconds <= 0 {
		cfg.RoundSeconds = 300
	}
	if cfg.MaxPerJob <= 0 {
		cfg.MaxPerJob = cfg.DB.MaxN
	}
	cl, err := cluster.New(cfg.Spec)
	if err != nil {
		return nil, err
	}
	// Online-profiled observations belong to a single run (Fig. 4(b)'s
	// refinement loop); clear any left by a previous simulation.
	cfg.DB.ResetObservations()

	s := &state{
		cfg:     cfg,
		cluster: cl,
		src:     cfg.Source,
		sim:     map[*sched.Job]*jobSim{},
		changes: &sched.QueueChanges{},
		jctS:    metrics.NewStream(),
		queueS:  metrics.NewStream(),
	}
	if cfg.Streaming {
		// No raw JCT values are kept: P50/P90 come from P² sketches.
		s.jctS = metrics.NewStream(0.50, 0.90)
	}
	e := &Engine{s: s, maxRounds: cfg.MaxRounds}
	if e.maxRounds <= 0 {
		// Horizon: trace span plus generous drain time.
		var last float64
		if s.src != nil {
			sp, ok := s.src.(trace.Spanner)
			if !ok {
				return nil, fmt.Errorf("sim: a Source without a Span needs an explicit MaxRounds")
			}
			last = sp.Span()
		}
		e.maxRounds = int((last*3+48*3600)/cfg.RoundSeconds) + 1
	}

	if cfg.Faults.Enabled() {
		fc := cfg.Faults.WithDefaults()
		s.faults = &fc
		// Materialize the whole fault realization up front: a pure
		// function of (seed, cluster shape, horizon), untouched by
		// scheduling decisions.
		horizon := float64(e.maxRounds+1) * cfg.RoundSeconds
		if err := fc.Trace.Validate(cfg.Spec); err != nil {
			return nil, err
		}
		s.events = append(s.events, fc.Trace...)
		if fc.Model != nil {
			s.events = append(s.events, fc.Model.Schedule(cfg.Spec, cfg.Seed, horizon)...)
		}
		s.events.Sort()
		// The event core merges the fault stream into its heap; the
		// schedule is sorted, so one cursor entry at a time suffices.
		if len(s.events) > 0 {
			s.pushFault(0)
		}
	}
	return e, nil
}

// cfg returns the normalized configuration (defaults resolved).
func (e *Engine) cfg() Config { return e.s.cfg }

// RoundSeconds returns the scheduling interval after defaulting.
func (e *Engine) RoundSeconds() float64 { return e.s.cfg.RoundSeconds }

// MaxRounds returns the round bound RunCtx enforces: the configured cap,
// or the horizon derived from the initial trace. Incremental drivers
// (the server) ignore it and run for the process's lifetime.
func (e *Engine) MaxRounds() int { return e.maxRounds }

// Round fires one scheduling round at instant `now`: progress running
// jobs (and any fault events) up to now, admit newly submitted jobs,
// filter crash-backoff holds, ask the policy for its assignment, and
// apply it. Returns the policy's decision — the value the server
// journals and the crash-recovery test proves bit-identical across a
// restart.
func (e *Engine) Round(now float64) sched.Assignment {
	s := e.s
	s.advance(now)
	// Policies read RemainingSamples directly when ranking jobs; bring
	// every running job's record current before Assign sees it.
	s.materializeRunning(now)
	s.pull(now)
	s.admit(now)

	// Named rctx, not ctx: shadowing a context.Context parameter here
	// once hid a cancellation bug (the vet shadow check in CI now
	// rejects the pattern).
	rctx := &sched.Context{
		Now:       now,
		Queued:    s.roundQueue(now),
		Running:   s.running,
		Cluster:   s.cluster,
		DB:        s.cfg.DB,
		MaxPerJob: s.cfg.MaxPerJob,
		Changes:   s.changes,
	}
	asg := s.cfg.Policy.Assign(rctx)
	s.apply(now, asg)

	s.sampleThroughput(now)
	return asg
}

// Submit registers a job after construction — the daemon's submit path.
// `now` is the caller's current instant: a job submitted with a zero
// SubmitTime is stamped with it, so live submissions land on the run
// timeline without every caller re-implementing the defaulting (replay
// paths that carry explicit SubmitTimes pass now=0 and are untouched).
// The job's SubmittedAt gains the policy's profiling prepend exactly as
// trace jobs do, and it is inserted keeping pending sorted by effective
// submission time with ties in arrival order, so an incremental sequence
// of Submits stages exactly as a Source emitting the same jobs would, and
// a journal replay reconstructs identical state.
func (e *Engine) Submit(tj trace.Job, now float64) *sched.Job {
	if tj.SubmitTime == 0 && now > 0 {
		tj.SubmitTime = now
	}
	return e.s.stage(tj)
}

// Cancel abandons a job at instant `now`: a pending or queued job is
// dropped outright; a running job is evicted and its resources freed.
// Finished, dropped and failed jobs are left untouched. Reports whether
// a live job was cancelled.
func (e *Engine) Cancel(id string, now float64) bool {
	s := e.s
	for i, j := range s.pending {
		if j.Trace.ID == id {
			j.State = sched.StateDropped
			j.FinishedAt = now
			s.pending = append(s.pending[:i], s.pending[i+1:]...)
			s.retire(j)
			return true
		}
	}
	if j := s.findQueued(id); j != nil {
		j.State = sched.StateDropped
		j.FinishedAt = now
		s.queued = removeJob(s.queued, j)
		s.retire(j)
		return true
	}
	for _, j := range s.running {
		if j.Trace.ID == id {
			// Account the work done up to the cancel instant, then drop
			// the stale completion prediction before the job leaves the
			// running set.
			s.materialize(j, now)
			s.invalidate(j)
			s.cluster.Free(id)
			j.State = sched.StateDropped
			j.FinishedAt = now
			j.Alloc = sched.Alloc{}
			j.ActualThr = 0
			s.running = removeJob(s.running, j)
			s.retire(j)
			return true
		}
	}
	return false
}

// Find returns the job with the given trace ID in any lifecycle state,
// or nil. The returned pointer is the engine's live record; callers must
// not mutate it.
func (e *Engine) Find(id string) *sched.Job {
	s := e.s
	if j := s.findAny(id); j != nil {
		return j
	}
	for _, list := range [][]*sched.Job{s.pending, s.done_} {
		for _, j := range list {
			if j.Trace.ID == id {
				return j
			}
		}
	}
	return nil
}

// Jobs returns every job the engine has ever seen (completed first, then
// running, queued and pending), in the same order Finish reports them.
// Streaming mode retains no completed jobs.
func (e *Engine) Jobs() []*sched.Job { return e.s.jobs() }

// Done reports whether no work remains anywhere in the world.
func (e *Engine) Done() bool { return e.s.done() }

// Finish progresses the world to `end` and assembles the final metrics
// summary — the batch simulator's last step. It is final: it drains the
// trace source and folds censored jobs into the running totals, so the
// engine must not fire rounds or call Finish again afterwards (a second
// call would count those jobs twice). Monitor a live engine with Stats.
func (e *Engine) Finish(end float64) *Result {
	e.s.advance(end)
	e.s.materializeRunning(end)
	return e.s.finish(end)
}

// idleBeyond reports whether the world cannot change state before
// instant t: nothing runs or waits in the queue, and every not-yet-
// admitted submission (staged or still inside the source) arrives after
// t. RunCtx uses it with the horizon to stop a run whose remaining
// arrivals all land beyond the round budget, instead of burning the
// budget three empty rounds at a time. A source that has not been
// peeked yet is conservatively not idle — the next pull decides.
func (e *Engine) idleBeyond(t float64) bool {
	s := e.s
	if len(s.running) > 0 || len(s.queued) > 0 {
		return false
	}
	if len(s.pending) > 0 && s.pending[0].SubmittedAt <= t {
		return false
	}
	if s.src != nil && !s.srcDone {
		if !s.hasPeek || s.srcPeek.SubmitTime <= t {
			return false
		}
	}
	return true
}

// Stats is a monitoring snapshot of the engine's live state — the
// counters the server's stats endpoint surfaces.
type Stats struct {
	Pending, Queued, Running            int
	Finished, Dropped, Failed           int
	Preemptions, Restarts, Migrations   int
	GoodputGPUSeconds, WastedGPUSeconds float64
	Utilization                         float64
}

// Stats summarizes the engine's current world for monitoring. O(live jobs);
// never affects scheduling state.
func (e *Engine) Stats() Stats {
	s := e.s
	// Retired jobs are already folded into the running totals.
	st := Stats{
		Pending:           len(s.pending),
		Queued:            len(s.queued),
		Running:           len(s.running),
		Finished:          s.mFinished,
		Dropped:           s.mDropped,
		Failed:            s.mFailed,
		Preemptions:       s.mPreempt,
		Restarts:          s.mRestarts,
		Migrations:        s.mMigrations,
		GoodputGPUSeconds: s.goodputGPUSec,
		WastedGPUSeconds:  s.wastedGPUSec,
		Utilization:       s.cluster.Utilization(),
	}
	for _, list := range [][]*sched.Job{s.running, s.queued, s.pending} {
		for _, j := range list {
			st.Preemptions += j.Preemptions
			st.Restarts += j.Restarts
			st.Migrations += j.Migrations
		}
	}
	return st
}
