// Package sim is the discrete-event cluster simulator: the reproduction
// of the paper's simulator.py (§4: "Arena provides a simulator to conduct
// large-scale scheduling experiments, ensuring high fidelity by sharing
// scheduling codes and logics with the real-testbed scheduler"). The same
// Policy implementations drive both this simulator and any finer-grained
// configuration — exactly the code-sharing fidelity argument of §5.2.
//
// Time advances in fixed scheduling rounds (5 minutes in the paper).
// Between rounds, running jobs progress continuously; completions free
// resources at their exact times. Reconfiguration overheads (AP search,
// checkpoint-resume) suppress a job's throughput until they elapse.
package sim

import (
	"cmp"
	"context"
	"math"
	"slices"
	"sort"
	"strings"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/cluster"
	"github.com/sjtu-epcc/arena/internal/core"
	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/rng"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Config drives one simulation.
type Config struct {
	Spec   hw.ClusterSpec
	Policy sched.Policy
	// Source streams trace jobs on demand (non-decreasing SubmitTime),
	// so a 100k–1M-job synthetic trace never exists as a slice;
	// trace.SliceSource wraps a materialized trace. A Source that does
	// not implement trace.Spanner needs an explicit MaxRounds. Each
	// Source is single-use: build a fresh one per simulation.
	Source trace.Source
	DB     *perfdb.DB

	// RoundSeconds is the scheduling interval (paper: 5 minutes).
	RoundSeconds float64
	// MaxRounds bounds the simulation; 0 derives a horizon from the trace.
	MaxRounds int

	// ThroughputNoise adds deterministic per-(job, segment) variance to
	// achieved throughput, emulating real-testbed measurement conditions
	// for the §5.2 fidelity study. 0 = noiseless simulation.
	ThroughputNoise float64
	Seed            uint64

	// IncludeUnfinished censors unfinished jobs' JCT at the horizon and
	// includes them (Fig. 12's "unfinished jobs included").
	IncludeUnfinished bool

	// Streaming keeps memory O(active jobs): completed jobs are folded
	// into running aggregates (exact counts/means, P² quantile sketches
	// for P50/P90 JCT) and discarded instead of retained. Result.Jobs is
	// nil and Summary.JCTs/QueueTimes are nil in this mode; P50JCT and
	// P90JCT are sketch estimates rather than exact order statistics.
	Streaming bool

	// Faults enables deterministic fault injection: crashes preempt the
	// jobs on the dead node and roll them back to their last modeled
	// checkpoint, stragglers degrade achieved throughput, and the Summary
	// gains goodput/wasted accounting. Nil (or a disabled config) keeps
	// the failure-free simulation bit-identical to the pre-fault model.
	Faults *faults.Config

	// Progress, when non-nil, receives one "sim.round" event per
	// scheduling round (called from the simulation loop, single-threaded).
	// It never affects outcomes.
	Progress core.ProgressFunc
}

// Result carries the aggregated metrics plus final job states.
type Result struct {
	metrics.Summary
	Jobs []*sched.Job
	// Horizon is the simulated end time.
	Horizon float64
}

// RunCtx executes the simulation to completion or the round bound. The
// round loop stops at the first cancelled check — always between rounds,
// so an in-flight round completes — and returns ctx.Err() with a nil
// result.
//
// RunCtx is a thin driver over Engine: it hands Engine.Round to
// clock.Tick on a virtual clock. The live server (internal/server)
// drives the identical Engine and loop with a wall clock and a journal —
// there is no forked round logic.
func RunCtx(ctx context.Context, cfg Config) (*Result, error) {
	e, err := NewEngine(cfg)
	if err != nil {
		return nil, err
	}
	return e.run(ctx)
}

// run is RunCtx on a new engine.
func (e *Engine) run(ctx context.Context) (*Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	cfg := e.cfg() // normalized defaults (RoundSeconds)
	maxRounds := e.MaxRounds()
	// The latest instant this run can ever simulate: nothing submitted
	// after it can be admitted, so an idle engine whose next arrival lies
	// beyond it would only burn empty rounds until the MaxRounds cap.
	horizonEnd := float64(maxRounds+1) * cfg.RoundSeconds
	lastNow := 0.0
	err := clock.Tick(ctx, clock.NewVirtual(), cfg.RoundSeconds, func(round int, now float64) bool {
		if round >= maxRounds {
			return false
		}
		lastNow = now
		e.Round(now)
		cfg.Progress.Emit("sim.round", cfg.Policy.Name(), round+1, maxRounds)
		return !(round > 1 && (e.Done() || e.idleBeyond(horizonEnd)))
	})
	if err != nil {
		return nil, err
	}
	return e.Finish(lastNow + cfg.RoundSeconds), nil
}

// state is the simulator's mutable world.
type state struct {
	cfg     Config
	cluster *cluster.Cluster

	pending []*sched.Job // submitted in the future
	queued  []*sched.Job // in entry order: ascending QueueSeq
	running []*sched.Job
	done_   []*sched.Job // retired jobs; empty in streaming mode

	// Queue entry bookkeeping. queueSeq is the last QueueSeq stamped;
	// seqMark and markNow are queueSeq and the instant when the previous
	// round's context was built. changes is the delta handed to the
	// policy: allocated apart from the state, so a policy that keeps it
	// across rounds does not keep a finished engine alive.
	queueSeq, seqMark uint64
	markNow           float64
	changes           *sched.QueueChanges

	// Streaming trace source (nil for an engine fed only by Submit).
	// srcPeek is the job pulled but not yet due, when hasPeek is set.
	src     trace.Source
	srcPeek trace.Job
	hasPeek bool
	srcDone bool

	// apply's buffers, kept between rounds and cleared after use: the
	// round's placements and the queue positions of the jobs that leave
	// the queue. grant receives each launch's blocks before they move to
	// the job's record.
	placed []placement
	gone   []int
	grant  []cluster.Block

	// work is the engine's work ledger (see workLedger).
	work workLedger

	thrSeries []float64

	// Event core. heap holds completion predictions (epoch-validated,
	// lazily deleted) and the next pending fault event; predSeq is the
	// monotone counter that totally orders same-instant completions.
	heap    eventHeap
	predSeq uint64

	// Fault injection (nil faults = disabled; see internal/faults).
	faults *faults.Config
	events faults.Schedule // materialized realization, time-ordered
	evIdx  int             // next unapplied event

	// Per-job simulation records: a job's is recs[Slot-1] from its first
	// launch until it retires, when its slot joins freeSlots for the next
	// first launch to reuse. Pointers into recs are taken per use and
	// never kept across a launch, which may grow it.
	recs          []jobSim
	freeSlots     []uint32
	goodputGPUSec float64
	wastedGPUSec  float64
	recomputeSec  float64

	// Running totals, folded in as each job retires (and, for censored
	// jobs, at finish) in both modes. Exact mode also keeps the raw JCT
	// and queue-time values for Summary's slices and exact P50/P90;
	// streaming mode sketches the quantiles in jctS instead.
	jctS, queueS                     *metrics.Stream
	jcts, queueTimes                 []float64 // exact mode only
	mFinished, mDropped, mFailed     int
	mDeadlineSat, mDeadlineTot       int
	mResched                         float64
	mLaunched                        int
	mPreempt, mRestarts, mMigrations int
}

// jobSim is one job's simulation record: checkpoint accounting, the
// anchored-progress state the event core runs on, and the blocks of the
// job's GPU grant (empty while it holds none).
//
// The progress model: RemainingSamples is exact as of instant `anchor`;
// between anchors the job trains at the cached effective throughput
// `thr` (from BusyUntil onwards), so its completion instant is fully
// determined the moment its rate last changed:
//
//	pred = max(anchorAtRateChange, BusyUntil) + RemainingSamples/thr
//
// pred is computed once per rate change (launch, rescale, migrate,
// straggler episode edge) and is *the* completion time — materializing
// progress at later instants never recomputes it, so completion times
// cannot drift with how often progress is observed.
type jobSim struct {
	sinceCkptSec    float64 // productive seconds since the last checkpoint
	sinceCkptGPUSec float64 // GPU-seconds accumulated in that window
	retainedGPUSec  float64 // all GPU-seconds currently counted as goodput

	anchor float64 // instant RemainingSamples was last materialized
	thr    float64 // cached effective throughput (0 = not progressing)
	pred   float64 // predicted completion instant (+Inf when never)
	seq    uint64  // rate-change sequence: same-instant completion order
	epoch  uint64  // invalidates stale heap entries on any rate change

	blocks []cluster.Block
}

// workLedger counts the engine's algorithmic work. It is write-only: a
// test reads it (TestWorkLedger), and no digest, outcome or golden
// result does.
type workLedger struct {
	events      int // event-heap entries advance popped
	queueProbes int // queue positions the QueueSeq search read
	queueMoved  int // queue entries the dequeue moved
	eligible    int // queue entries the fault-eligibility pass read
}

// simFor returns a launched job's simulation record.
func (s *state) simFor(j *sched.Job) *jobSim { return &s.recs[j.Slot-1] }

// takeSlot gives a job its simulation record at its first launch: a
// retired job's slot when one is free, else a new one.
func (s *state) takeSlot(j *sched.Job) *jobSim {
	if j.Slot != 0 {
		return s.simFor(j)
	}
	if n := len(s.freeSlots); n > 0 {
		j.Slot = s.freeSlots[n-1]
		s.freeSlots = s.freeSlots[:n-1]
	} else {
		s.recs = append(s.recs, jobSim{})
		j.Slot = uint32(len(s.recs))
	}
	js := s.simFor(j)
	js.pred = math.Inf(1)
	return js
}

// release returns a job's GPU grant to the cluster.
func (s *state) release(j *sched.Job) {
	js := s.simFor(j)
	s.cluster.Free(js.blocks)
	js.blocks = js.blocks[:0]
}

// materialize brings a job's RemainingSamples (and checkpoint-window
// accounting) up to date at instant t, crossing checkpoint boundaries
// exactly as the legacy per-segment walk did. It does not touch the
// completion prediction — see jobSim.
func (s *state) materialize(j *sched.Job, t float64) {
	js := s.simFor(j)
	if t <= js.anchor {
		return
	}
	start := math.Max(js.anchor, j.BusyUntil)
	if js.thr > 0 && start < t {
		s.progressJob(j, start, t, js.thr)
	}
	js.anchor = t
}

// materializeRunning refreshes every running job at a round boundary, in
// launch order: policies read RemainingSamples directly, so the field
// must be current when Assign runs. O(running) with O(1) float work per
// job — this is the only per-round whole-set touch the core retains.
func (s *state) materializeRunning(now float64) {
	for _, j := range s.running {
		s.materialize(j, now)
	}
}

// rePredict re-anchors a job after a rate change at instant t: caches
// its new effective throughput, fixes its completion prediction and
// publishes it to the event heap, invalidating prior entries via the
// epoch bump. Callers must materialize progress at t first (launch
// needs no progress; everything else does).
func (s *state) rePredict(j *sched.Job, t float64) {
	js := s.simFor(j)
	js.anchor = t
	js.thr = s.effectiveThr(j)
	js.epoch++
	s.predSeq++
	js.seq = s.predSeq
	if js.thr > 0 {
		js.pred = math.Max(t, j.BusyUntil) + j.RemainingSamples/js.thr
		s.heap.push(event{at: js.pred, class: classCompletion, seq: js.seq, job: j, epoch: js.epoch})
	} else {
		js.pred = math.Inf(1)
	}
}

// invalidate takes a job out of the progress model (preemption, eviction,
// requeue): stale heap entries die via the epoch bump.
func (s *state) invalidate(j *sched.Job) {
	js := s.simFor(j)
	js.thr = 0
	js.pred = math.Inf(1)
	js.epoch++
}

// progressJob advances one job over [start, b) at throughput thr,
// crossing checkpoint boundaries. The checkpoint clock ticks on
// *productive* time: every CheckpointInterval seconds of actual training
// the job durably saves, and a later crash rolls back only to that point.
// Without fault injection the interval splitting is skipped, keeping the
// single-subtraction arithmetic (and so the trajectory) bit-identical to
// the failure-free model.
func (s *state) progressJob(j *sched.Job, start, b, thr float64) {
	n := float64(j.Alloc.N)
	ac := s.simFor(j)
	dt := b - start
	if s.faults != nil && s.faults.CheckpointInterval > 0 {
		ci := s.faults.CheckpointInterval
		for ac.sinceCkptSec+dt >= ci {
			step := ci - ac.sinceCkptSec
			j.RemainingSamples -= step * thr
			if j.RemainingSamples < 0 {
				j.RemainingSamples = 0
			}
			s.goodputGPUSec += step * n
			ac.retainedGPUSec += step * n
			j.CheckpointRemaining = j.RemainingSamples
			ac.sinceCkptSec, ac.sinceCkptGPUSec = 0, 0
			dt -= step
		}
	}
	j.RemainingSamples -= dt * thr
	if j.RemainingSamples < 0 {
		j.RemainingSamples = 0
	}
	s.goodputGPUSec += dt * n
	ac.retainedGPUSec += dt * n
	ac.sinceCkptSec += dt
	ac.sinceCkptGPUSec += dt * n
}

// effectiveThr is the job's achieved throughput including straggler
// degradation and the fidelity noise knob.
func (s *state) effectiveThr(j *sched.Job) float64 {
	thr := j.ActualThr
	if thr <= 0 {
		return 0
	}
	if f := j.SlowFactor; f > 0 && f < 1 {
		thr *= f
	}
	if s.cfg.ThroughputNoise > 0 {
		r := rng.Derive(s.cfg.Seed, rng.HashString(j.Trace.ID), uint64(j.Resched))
		thr *= 1 + s.cfg.ThroughputNoise*(2*r.Float64()-1)
	}
	return thr
}

// complete finishes a job and frees its resources.
func (s *state) complete(j *sched.Job, at float64) {
	j.State = sched.StateFinished
	j.FinishedAt = at
	s.release(j)
	s.running = removeJob(s.running, j)
	s.retire(j)
}

// retire takes a job that reached a terminal state (finished, dropped,
// failed) out of the live world and folds it into the running totals.
// Exact mode also keeps it on done_ for Result.Jobs; streaming mode
// drops it, which is what keeps memory O(active jobs). A launched job's
// record is wiped, its block buffer kept, and its slot freed.
func (s *state) retire(j *sched.Job) {
	if j.Slot != 0 {
		js := s.simFor(j)
		*js = jobSim{blocks: js.blocks[:0]}
		s.freeSlots = append(s.freeSlots, j.Slot)
		j.Slot = 0
	}
	if !s.cfg.Streaming {
		s.done_ = append(s.done_, j)
	}
	switch j.State {
	case sched.StateFinished:
		s.mFinished++
		s.observeJCT(j.FinishedAt - j.Trace.SubmitTime)
		if j.Trace.Deadline > 0 {
			s.mDeadlineTot++
			if j.FinishedAt <= j.Trace.SubmitTime+j.Trace.Deadline {
				s.mDeadlineSat++
			}
		}
	case sched.StateDropped:
		s.mDropped++
		if j.Trace.Deadline > 0 {
			s.mDeadlineTot++
		}
	case sched.StateFailed:
		s.mFailed++
		if j.Trace.Deadline > 0 {
			s.mDeadlineTot++
		}
	}
	s.observeLaunch(j)
	s.mPreempt += j.Preemptions
	s.mRestarts += j.Restarts
	s.mMigrations += j.Migrations
}

// observeJCT folds one job completion time — a finished job's, or a live
// job's censored at the horizon — into the totals.
func (s *state) observeJCT(jct float64) {
	s.jctS.Add(jct)
	if !s.cfg.Streaming {
		s.jcts = append(s.jcts, jct)
	}
}

// observeLaunch folds a launched job's queueing delay and reschedule
// count into the totals; never-launched jobs contribute neither.
func (s *state) observeLaunch(j *sched.Job) {
	if j.LaunchedAt < 0 {
		return
	}
	q := j.LaunchedAt - j.Trace.SubmitTime
	s.queueS.Add(q)
	if !s.cfg.Streaming {
		s.queueTimes = append(s.queueTimes, q)
	}
	s.mLaunched++
	s.mResched += float64(j.Resched)
}

// stage registers one trace job as a future submission, keeping pending
// sorted by effective submission time (SubmitTime plus the policy's
// profiling prepend) with ties in arrival order, so streaming pulls and
// live Submits of the same sequence produce identical pending order.
func (s *state) stage(tj trace.Job) *sched.Job {
	j := &sched.Job{
		Trace:            tj,
		State:            sched.StateQueued,
		SubmittedAt:      tj.SubmitTime + s.cfg.Policy.ProfilePrepend(s.cfg.DB, tj.Workload),
		LaunchedAt:       -1,
		RemainingSamples: tj.TotalSamples(),
	}
	// First index whose SubmittedAt exceeds the new job's: insert there,
	// i.e. after every earlier-or-equal submission.
	i := sort.Search(len(s.pending), func(i int) bool {
		return s.pending[i].SubmittedAt > j.SubmittedAt
	})
	s.pending = append(s.pending, nil)
	copy(s.pending[i+1:], s.pending[i:])
	s.pending[i] = j
	return j
}

// pull stages every source job submitted at or before now. The profiling
// prepend only ever delays a submission, so pulling by raw SubmitTime
// covers every job admit() could possibly admit this round.
func (s *state) pull(now float64) {
	for s.src != nil {
		if !s.hasPeek {
			if s.srcDone {
				return
			}
			s.srcPeek, s.hasPeek = s.src.Next()
			if !s.hasPeek {
				s.srcDone = true
				return
			}
		}
		if s.srcPeek.SubmitTime > now {
			return
		}
		s.stage(s.takePeek())
	}
}

// takePeek returns the look-ahead job and empties the slot.
func (s *state) takePeek() trace.Job {
	j := s.srcPeek
	s.srcPeek, s.hasPeek = trace.Job{}, false
	return j
}

// drainSource stages everything the source still holds — the
// exact-mode finish, where Result.Jobs must list the whole trace exactly
// as if it had been staged up front.
func (s *state) drainSource() {
	if s.src == nil {
		return
	}
	if s.hasPeek {
		s.stage(s.takePeek())
	}
	for !s.srcDone {
		j, ok := s.src.Next()
		if !ok {
			s.srcDone = true
			break
		}
		s.stage(j)
	}
}

// srcExhausted reports whether the source has nothing left to emit.
func (s *state) srcExhausted() bool {
	return s.src == nil || (s.srcDone && !s.hasPeek)
}

// admit moves submitted jobs into the queue. pending is sorted by
// SubmittedAt, so this touches exactly the due prefix — jobs that cannot
// change state this round are never re-examined.
func (s *state) admit(now float64) {
	i := 0
	for ; i < len(s.pending); i++ {
		if s.pending[i].SubmittedAt > now {
			break
		}
		s.enqueue(s.pending[i])
	}
	s.pending = s.pending[i:]
}

// enqueue appends j to the queue under a fresh QueueSeq.
func (s *state) enqueue(j *sched.Job) {
	s.queueSeq++
	j.QueueSeq = s.queueSeq
	s.queued = append(s.queued, j)
}

// roundQueue returns the round's Queued and rewrites s.changes for it.
// Crash-restart backoff gates relaunch uniformly across policies: under
// faults a job still backing off is invisible this round, so Queued is
// the eligible subset of the queue, and a job enters it when its
// backoff ends as well as when it enters the queue. Without faults
// Queued is the queue itself and the jobs that entered since the
// previous round are its tail: every job queued then is still queued
// under a QueueSeq at or below the previous mark, and every later entry
// is stamped above it.
func (s *state) roundQueue(now float64) []*sched.Job {
	c := s.changes
	c.Round++
	clear(c.Entered) // release the previous round's jobs
	c.Entered = c.Entered[:0]
	eligible := s.queued
	if s.faults != nil {
		// A job queued under a QueueSeq at or below the mark was in the
		// previous round's Queued iff its backoff had ended by then:
		// NextEligibleAt changes only when a crash requeues the job,
		// which restamps it.
		eligible = make([]*sched.Job, 0, len(s.queued))
		s.work.eligible += len(s.queued)
		for _, j := range s.queued {
			if j.NextEligibleAt > now {
				continue
			}
			eligible = append(eligible, j)
			if j.QueueSeq > s.seqMark || j.NextEligibleAt > s.markNow {
				c.Entered = append(c.Entered, j)
			}
		}
	} else {
		i := len(s.queued)
		for i > 0 && s.queued[i-1].QueueSeq > s.seqMark {
			i--
		}
		c.Entered = append(c.Entered, s.queued[i:]...)
	}
	s.seqMark, s.markNow = s.queueSeq, now
	return eligible
}

// apply executes the policy's assignment: drops, migrations, then the
// placements, charging deployment overheads. Its work follows the
// assignment, never the world. A job is running exactly when it is
// StateRunning; a queued job is found by a binary search on QueueSeq
// (queuePos); a job neither running nor queued (pending, retired, or not
// this engine's) is ignored. Placements are applied in (rank, ID) order,
// IDs being unique among live jobs. The launched and dropped jobs leave
// the queue at the positions the search found (dequeue).
func (s *state) apply(now float64, asg sched.Assignment) {
	if len(asg.Drop) == 0 && len(asg.Migrate) == 0 && len(asg.Place) == 0 {
		return
	}
	gone := s.gone[:0]
	for _, j := range asg.Drop {
		if j.State != sched.StateQueued {
			continue // running, retired, or listed twice
		}
		pos := s.queuePos(j)
		if pos < 0 {
			continue
		}
		j.State = sched.StateDropped
		j.FinishedAt = now
		s.retire(j)
		gone = append(gone, pos)
	}
	if len(asg.Migrate) > 0 {
		migrate := slices.Clone(asg.Migrate)
		//arena:allow stablesort live jobs have distinct IDs, and equal IDs name one job
		slices.SortFunc(migrate, func(x, y *sched.Job) int {
			return strings.Compare(x.Trace.ID, y.Trace.ID)
		})
		for _, j := range migrate {
			if _, placed := asg.Place[j]; placed {
				continue // a rescale supersedes the migration
			}
			if j.State == sched.StateRunning {
				s.migrate(now, j)
			}
		}
	}

	placed := s.placed[:0]
	for j, target := range asg.Place {
		if !target.IsZero() {
			placed = append(placed, placement{job: j, target: target})
		}
	}
	// Deterministic application order: shrinks and moves of running jobs
	// first (they free capacity), then queued launches, then growths;
	// ties by ID. A job dropped above is no longer live and is skipped.
	live := 0
	for _, p := range placed {
		j := p.job
		switch {
		case j.State == sched.StateQueued:
			if p.pos = s.queuePos(j); p.pos < 0 {
				continue
			}
			p.rank = 2
		case j.State != sched.StateRunning:
			continue
		case p.target.N < j.Alloc.N:
			p.rank = 0
		case p.target.GPUType != j.Alloc.GPUType:
			p.rank = 1
		default:
			p.rank = 3
		}
		placed[live] = p
		live++
	}
	clear(placed[live:])
	placed = placed[:live]
	// slices.SortFunc, unlike sort.Slice, allocates nothing.
	//arena:allow stablesort live jobs have distinct IDs, so (rank, ID) is a total order
	slices.SortFunc(placed, func(x, y placement) int {
		if x.rank != y.rank {
			return cmp.Compare(x.rank, y.rank)
		}
		return strings.Compare(x.job.Trace.ID, y.job.Trace.ID)
	})
	for _, p := range placed {
		switch p.job.State {
		case sched.StateQueued:
			if s.launch(now, p.job, p.target) {
				gone = append(gone, p.pos)
			}
		case sched.StateRunning:
			if p.job.Alloc != p.target {
				s.rescale(now, p.job, p.target)
			}
		}
	}
	clear(placed)
	s.placed = placed[:0]
	s.dequeue(gone)
	s.gone = gone[:0]
}

// placement is one live asg.Place entry, its application rank and, for
// a queued job, its queue position.
type placement struct {
	job    *sched.Job
	target sched.Alloc
	rank   int
	pos    int
}

// queuePos returns a job's position in the queue, or -1 when it is not
// queued. The queue is in ascending QueueSeq and every enqueue stamps a
// larger one, so a binary search finds the only position the job can
// hold. Jobs that leave the queue during apply stay in place until its
// dequeue, so positions found in one apply stay valid through it.
func (s *state) queuePos(j *sched.Job) int {
	lo, hi := 0, len(s.queued)
	for lo < hi {
		m := int(uint(lo+hi) >> 1)
		s.work.queueProbes++
		if s.queued[m].QueueSeq < j.QueueSeq {
			lo = m + 1
		} else {
			hi = m
		}
	}
	if lo < len(s.queued) && s.queued[lo] == j {
		return lo
	}
	return -1
}

// dequeue removes the jobs at the given queue positions (distinct, in
// any order), keeping the rest in QueueSeq order: it sorts the positions
// and slides each segment between them down over the gaps. Jobs
// requeued during apply were appended behind every position and stay.
func (s *state) dequeue(gone []int) {
	if len(gone) == 0 {
		return
	}
	slices.Sort(gone)
	q := s.queued
	w := gone[0]
	for k, p := range gone {
		end := len(q)
		if k+1 < len(gone) {
			end = gone[k+1]
		}
		w += copy(q[w:], q[p+1:end])
	}
	s.work.queueMoved += w - gone[0]
	clear(q[w:])
	s.queued = q[:w]
}

// launch places a queued job and reports whether it landed. The job
// must hold no grant: one that does is an engine bug, and panics.
func (s *state) launch(now float64, j *sched.Job, target sched.Alloc) bool {
	w := j.Workload()
	actual := s.cfg.Policy.ActualThr(s.cfg.DB, w, target.GPUType, target.N)
	if actual <= 0 {
		return false // perceived-feasible but truly infeasible: stays queued
	}
	grant, err := s.cluster.Alloc(s.grant[:0], target.GPUType, target.N)
	s.grant = grant[:0]
	if err != nil {
		return false // fragmentation: retry next round
	}
	ac := s.takeSlot(j)
	if len(ac.blocks) != 0 {
		panic("sim: job " + j.Trace.ID + " launched while holding a grant")
	}
	ac.blocks = append(ac.blocks, grant...)
	j.State = sched.StateRunning
	j.Alloc = target
	j.ActualThr = actual
	j.BusyUntil = now + s.cfg.Policy.DeployOverhead(s.cfg.DB, w, target.GPUType, target.N)
	if j.Restarting {
		// Crash-restart: restoring the checkpoint stalls the job on top
		// of the deployment search.
		j.BusyUntil += sched.CheckpointResume
		j.Restarting = false
	}
	j.SlowFactor = s.cluster.SlowFactor(ac.blocks)
	// A (re)launch starts a fresh checkpoint epoch from the restored state.
	j.CheckpointRemaining = j.RemainingSamples
	ac.sinceCkptSec, ac.sinceCkptGPUSec = 0, 0
	if j.LaunchedAt < 0 {
		j.LaunchedAt = now
	}
	// apply dequeues the job once the round's launches are done.
	s.running = append(s.running, j)
	s.rePredict(j, now)
	return true
}

// migrate moves a running job to a fresh allocation of the same shape
// (straggler routing): the parallelism plan survives, so only checkpoint-
// resume is charged, no new search. Free-then-realloc with the cluster's
// healthy-first placement is what routes it off the degraded node.
func (s *state) migrate(now float64, j *sched.Job) {
	s.materialize(j, now)
	old := j.Alloc
	s.release(j)
	ac := s.simFor(j)
	var err error
	if ac.blocks, err = s.cluster.Alloc(ac.blocks, old.GPUType, old.N); err != nil {
		// The freed block must refit (nothing else allocates in between);
		// requeue defensively if it somehow cannot.
		j.State = sched.StateQueued
		j.Alloc = sched.Alloc{}
		j.ActualThr = 0
		j.SlowFactor = 0
		s.running = removeJob(s.running, j)
		s.enqueue(j)
		s.invalidate(j)
		return
	}
	j.SlowFactor = s.cluster.SlowFactor(ac.blocks)
	j.Migrations++
	j.Resched++
	j.BusyUntil = math.Max(now, j.BusyUntil) + sched.CheckpointResume
	// Migration checkpoints the job: progress so far is durable.
	j.CheckpointRemaining = j.RemainingSamples
	ac.sinceCkptSec, ac.sinceCkptGPUSec = 0, 0
	s.rePredict(j, now)
}

// rescale moves a running job to a new allocation, paying checkpoint-
// resume plus the parallelism search.
func (s *state) rescale(now float64, j *sched.Job, target sched.Alloc) {
	w := j.Workload()
	actual := s.cfg.Policy.ActualThr(s.cfg.DB, w, target.GPUType, target.N)
	if actual <= 0 {
		return
	}
	s.materialize(j, now)
	old := j.Alloc
	s.release(j)
	ac := s.simFor(j)
	var err error
	if ac.blocks, err = s.cluster.Alloc(ac.blocks, target.GPUType, target.N); err != nil {
		// Fragmentation defeated the move; restore the old allocation.
		if ac.blocks, err = s.cluster.Alloc(ac.blocks, old.GPUType, old.N); err != nil {
			// Old slots vanished too (should not happen: we just freed
			// them); requeue defensively.
			j.State = sched.StateQueued
			j.Alloc = sched.Alloc{}
			j.ActualThr = 0
			s.running = removeJob(s.running, j)
			s.enqueue(j)
			s.invalidate(j)
		}
		return
	}
	j.Alloc = target
	j.ActualThr = actual
	j.Resched++
	j.SlowFactor = s.cluster.SlowFactor(ac.blocks)
	// §5.8: the rescheduling AP search is non-blocking (the runtime
	// searches while the job drains); only checkpoint-resume stops
	// training, plus a small blocking tail of the search. A job still
	// reconfiguring stacks the new stall after the old one — charging
	// from `now` let overlapping reconfigurations swallow each other.
	j.BusyUntil = math.Max(now, j.BusyUntil) + sched.CheckpointResume +
		0.2*s.cfg.Policy.DeployOverhead(s.cfg.DB, w, target.GPUType, target.N)
	// Checkpoint-resume implies a durable save of progress so far.
	j.CheckpointRemaining = j.RemainingSamples
	ac.sinceCkptSec, ac.sinceCkptGPUSec = 0, 0
	s.rePredict(j, now)
}

// sampleThroughput records the instantaneous cluster throughput.
func (s *state) sampleThroughput(now float64) {
	var total float64
	for _, j := range s.running {
		if j.BusyUntil <= now {
			thr := j.ActualThr
			if f := j.SlowFactor; f > 0 && f < 1 {
				thr *= f
			}
			total += thr
		}
	}
	s.thrSeries = append(s.thrSeries, total)
}

func (s *state) done() bool {
	return len(s.pending) == 0 && len(s.queued) == 0 && len(s.running) == 0 &&
		s.srcExhausted()
}

// finish assembles the metrics summary. Terminal jobs were folded into
// the running totals as they retired, so only live jobs — censored at
// the horizon under IncludeUnfinished — and submissions that never
// reached the queue are accounted here, in both modes. Exact mode first
// stages the source's remainder so Result.Jobs lists the whole trace,
// and reads P50/P90 off the raw JCT values; streaming mode counts that
// remainder without materializing it, reports P² sketch quantiles and
// no per-job data. Every count, sum and mean is exact in both modes.
func (s *state) finish(end float64) *Result {
	if !s.cfg.Streaming {
		s.drainSource()
	}
	// Total counts the jobs that belong to the simulated horizon: retired,
	// running, queued, and the not-yet-admitted jobs whose trace
	// submission falls inside it. A job submitted after the horizon (a
	// MaxRounds cap can end the simulation mid-trace) was never part of
	// this run — counting it inflated Total and skewed every per-job ratio
	// derived from it.
	total := s.mFinished + s.mDropped + s.mFailed + len(s.running) + len(s.queued)
	preempt, restarts := s.mPreempt, s.mRestarts
	censor := func(j *sched.Job) {
		s.observeJCT(end - j.Trace.SubmitTime)
		s.observeLaunch(j)
	}
	for _, list := range [][]*sched.Job{s.running, s.queued} {
		for _, j := range list {
			preempt += j.Preemptions
			restarts += j.Restarts
			if s.cfg.IncludeUnfinished {
				censor(j)
			}
		}
	}
	for _, j := range s.pending {
		preempt += j.Preemptions
		restarts += j.Restarts
		// Jobs still pending (e.g. stuck in their profiling prepend) are
		// censored too, as long as their trace submission precedes the
		// horizon.
		if j.Trace.SubmitTime <= end {
			total++
			if s.cfg.IncludeUnfinished {
				censor(j)
			}
		}
	}
	// Jobs the source never emitted into the world (streaming mode only:
	// exact mode staged them above): count and censor the ones submitted
	// inside the horizon, one at a time.
	if s.hasPeek {
		if tj := s.takePeek(); tj.SubmitTime <= end {
			total++
			if s.cfg.IncludeUnfinished {
				s.observeJCT(end - tj.SubmitTime)
			}
		}
	}
	for s.src != nil && !s.srcDone {
		tj, ok := s.src.Next()
		if !ok {
			s.srcDone = true
			break
		}
		if tj.SubmitTime <= end {
			total++
			if s.cfg.IncludeUnfinished {
				s.observeJCT(end - tj.SubmitTime)
			}
		}
	}
	sum := metrics.Summary{
		Policy:            s.cfg.Policy.Name(),
		ThroughputSeries:  s.thrSeries,
		AvgThr:            metrics.Mean(s.thrSeries),
		PeakThr:           metrics.Max(s.thrSeries),
		JCTs:              s.jcts,
		QueueTimes:        s.queueTimes,
		Total:             total,
		Finished:          s.mFinished,
		Dropped:           s.mDropped,
		Failed:            s.mFailed,
		DeadlineSatisfied: s.mDeadlineSat,
		DeadlineTotal:     s.mDeadlineTot,
		AvgJCT:            s.jctS.Mean(),
		AvgQueue:          s.queueS.Mean(),
		GoodputGPUHours:   s.goodputGPUSec / 3600,
		WastedGPUHours:    s.wastedGPUSec / 3600,
		RecomputeSeconds:  s.recomputeSec,
		Preemptions:       preempt,
		Restarts:          restarts,
	}
	if s.mLaunched > 0 {
		sum.AvgReschedules = s.mResched / float64(s.mLaunched)
	}
	res := &Result{Summary: sum, Horizon: end}
	if s.cfg.Streaming {
		res.P50JCT, res.P90JCT = s.jctS.Quantile(0.50), s.jctS.Quantile(0.90)
	} else {
		res.P50JCT, res.P90JCT = metrics.Percentile(s.jcts, 0.50), metrics.Percentile(s.jcts, 0.90)
		res.Jobs = s.jobs()
	}
	return res
}

// jobs lists every job the world holds — retired first, then running,
// queued and pending.
func (s *state) jobs() []*sched.Job {
	jobs := append([]*sched.Job(nil), s.done_...)
	jobs = append(jobs, s.running...)
	jobs = append(jobs, s.queued...)
	return append(jobs, s.pending...)
}

func (s *state) findQueued(id string) *sched.Job {
	for _, j := range s.queued {
		if j.Trace.ID == id {
			return j
		}
	}
	return nil
}

func (s *state) findAny(id string) *sched.Job {
	if j := s.findQueued(id); j != nil {
		return j
	}
	for _, j := range s.running {
		if j.Trace.ID == id {
			return j
		}
	}
	return nil
}

func removeJob(list []*sched.Job, j *sched.Job) []*sched.Job {
	for i, x := range list {
		if x == j {
			return append(list[:i], list[i+1:]...)
		}
	}
	return list
}
