package sched

import (
	"fmt"
	"slices"
	"sort"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/rng"
)

// stableSortOrder is the launch order Assign built before the FIFO
// merge: a copy of the queue stable-sorted by (live priority,
// SubmittedAt), so equal keys keep queue order.
func stableSortOrder(queued []*Job, prio map[*Job]int) []*Job {
	out := append([]*Job(nil), queued...)
	sort.SliceStable(out, func(a, b int) bool {
		if prio[out[a]] != prio[out[b]] {
			return prio[out[a]] < prio[out[b]]
		}
		return out[a].SubmittedAt < out[b].SubmittedAt
	})
	return out
}

// loopStats counts what retiredLaunchLoop saw: memo skips, memo clears
// with a failure memoized, drops, blocking breaks, and promoted jobs.
type loopStats struct{ skips, clears, drops, blocks, promoted int }

// retiredLaunchLoop is the launch phase as Assign ran it before the FIFO
// merge, written out: the retired promote (every queued job's live
// priority), stableSortOrder, then a visit of every job in that order —
// line-9 blocking, deadline and rigid drops, failure-memo skips that
// lower the blocking bar, and a memo that a launch with victim shrinks
// clears. The memo is a set of signatures, not the ladders' stamps.
// attempt decides each launch. It returns the (job, action) sequence and
// the final blocking priority.
func retiredLaunchLoop(p *ArenaPolicy, ctx *Context, attempt func(*Job) (ok, shrank bool), st *loopStats) ([]string, int) {
	p.ensureLadders(ctx)
	prio := map[*Job]int{}
	for _, j := range ctx.Queued {
		waited := ctx.Now - j.SubmittedAt
		levels := 0
		if p.PromoteAfter > 0 {
			levels = int(waited / p.PromoteAfter)
		}
		cur := j.Trace.Priority - levels
		if cur < 1 {
			cur = 1
		}
		prio[j] = cur
		if cur < j.Trace.Priority {
			st.promoted++
		}
	}
	var seq []string
	blockedPrio := p.P + 1
	memo := p.Objective != ObjDeadline
	failed := map[launchSig]bool{}
	for _, job := range stableSortOrder(ctx.Queued, prio) {
		if prio[job] > blockedPrio {
			st.blocks++
			break
		}
		lad := p.launchLadder(ctx, job)
		if p.Objective == ObjDeadline && p.hopeless(ctx, job, lad) {
			seq = append(seq, job.Trace.ID+" drop")
			st.drops++
			continue
		}
		if p.DisableElastic && len(lad.counts) == 0 {
			seq = append(seq, job.Trace.ID+" drop")
			st.drops++
			continue
		}
		if memo && failed[lad.sig] {
			if prio[job] < blockedPrio {
				blockedPrio = prio[job]
			}
			st.skips++
			continue
		}
		ok, shrank := attempt(job)
		seq = append(seq, job.Trace.ID+" "+launchAction(ok, shrank))
		switch {
		case !ok:
			if memo {
				failed[lad.sig] = true
			}
			if prio[job] < blockedPrio {
				blockedPrio = prio[job]
			}
		case shrank && memo:
			if len(failed) > 0 {
				st.clears++
			}
			clear(failed)
		}
	}
	return seq, blockedPrio
}

// launchAction names a launch outcome.
func launchAction(ok, shrank bool) string {
	switch {
	case !ok:
		return "fail"
	case shrank:
		return "shrink"
	}
	return "launch"
}

// runLaunch runs p's launch phase on ctx — the FIFO sync, then the merge
// — with attempt deciding each launch, and returns the (job, action)
// sequence, drops in place, and the final blocking priority. It fails t
// when the merge hands attempt another ladder than the job's.
func runLaunch(t *testing.T, p *ArenaPolicy, ctx *Context, attempt func(*Job) (ok, shrank bool)) ([]string, int) {
	t.Helper()
	p.ensureLadders(ctx)
	p.syncQueue(ctx)
	asg := NewAssignment()
	var seq []string
	dropped := 0
	flush := func() {
		for _, j := range asg.Drop[dropped:] {
			seq = append(seq, j.Trace.ID+" drop")
		}
		dropped = len(asg.Drop)
	}
	blocked := p.launch(ctx, &asg, func(job *Job, lad *ladder) (bool, bool) {
		if want := p.launchLadder(ctx, job); lad != want {
			t.Fatalf("%s: the merge handed over the ladder of %v, the job's is %v", job.Trace.ID, lad.sig, want.sig)
		}
		flush()
		ok, shrank := attempt(job)
		seq = append(seq, job.Trace.ID+" "+launchAction(ok, shrank))
		return ok, shrank
	})
	flush()
	return seq, blocked
}

// checkLaunchMerge drives the FIFO merge and retiredLaunchLoop through
// the rounds of an engine-like queue drawn from seed, with the same
// scripted outcome per attempt, and requires the same (job, action)
// sequence and final blocking priority every round. The queue has
// priorities from below 1 to far above P, many equal submission times,
// admissions stamped in the past, requeued jobs (an older SubmittedAt
// under a newer QueueSeq, some behind a backoff that ends mid-queue),
// and jobs leaving between rounds: launched, dropped or cancelled. Some
// rounds run the merge twice, as a repeated Assign on one round does,
// and some hand it a context without Changes whose Queued is shuffled.
// The configuration varies P, promotion, the objective (deadline drops)
// and the ablations that put the request into the signature (rigid
// drops). The merge's entry count must stay exact and bounded.
func checkLaunchMerge(t *testing.T, seed uint64, st *loopStats) {
	t.Helper()
	r := rng.New(seed)
	maxPrio := []int{0, 1, 3, 5}[r.Intn(4)]
	promoteAfter := []float64{0, -1, 600, 3600}[r.Intn(4)]
	deadline := r.Intn(4) == 0
	rigid, pinned := r.Intn(4) == 0, r.Intn(8) == 0
	policy := func() *ArenaPolicy {
		p := NewArena()
		p.P, p.PromoteAfter = maxPrio, promoteAfter
		if deadline {
			p.Objective = ObjDeadline
		}
		p.DisableElastic, p.DisableHetero = rigid, pinned
		return p
	}
	merge, ref := policy(), policy()
	ctx := testCtx(t, nil, nil)
	changes := &QueueChanges{}

	ws := testWorkloads()
	ids := 0
	newJob := func(at float64) *Job {
		w := ws[r.Intn(len(ws))]
		prio := 1 + r.Intn(maxPrio+1)
		switch r.Intn(10) {
		case 0:
			prio = maxPrio + 1 + r.Intn(1000) // far above P
		case 1:
			prio = 1 - r.Intn(3) // below the first queue
		}
		j := mkJob(fmt.Sprintf("j%03d", ids), w.Model, w.GlobalBatch, []int{1, 2, 4, 32}[r.Intn(4)], prio)
		ids++
		j.Trace.ReqType = []string{"A40", "A10"}[r.Intn(2)]
		j.SubmittedAt = at
		if deadline {
			j.Trace.Deadline = []float64{0, 1, 1e9}[r.Intn(3)]
		}
		return j
	}

	// The engine's side: the queue in entry order, the round each job
	// becomes eligible, the running jobs, and the previous round's Queued
	// with the QueueSeq each job had in it.
	var queue, running []*Job
	var stamp uint64
	eligible := map[*Job]int{}
	enqueue := func(j *Job, from int) {
		stamp++
		j.QueueSeq, j.State = stamp, StateQueued
		queue = append(queue, j)
		eligible[j] = from
	}
	prev := map[*Job]uint64{}
	now := 0.0
	rounds := 2 + r.Intn(7)
	for round := 0; round < rounds; round++ {
		now += float64(1+r.Intn(4)) * 600
		for k := r.Intn(12); k > 0; k-- {
			at := now - float64(r.Intn(3))*300
			if r.Intn(6) == 0 {
				at = now - float64(r.Intn(20))*600 // stamped in the past
			}
			enqueue(newJob(at), round)
		}
		for i := 0; i < len(running); i++ {
			if r.Intn(4) == 0 {
				enqueue(running[i], round+r.Intn(3))
				running = slices.Delete(running, i, i+1)
				i--
			}
		}
		var queued, entered []*Job
		cur := map[*Job]uint64{}
		for _, j := range queue {
			if eligible[j] <= round {
				queued = append(queued, j)
				cur[j] = j.QueueSeq
				if s, ok := prev[j]; !ok || s != j.QueueSeq {
					entered = append(entered, j)
				}
			}
		}
		prev = cur
		changes.Round++
		changes.Entered = entered
		ctx.Now, ctx.Queued, ctx.Changes = now, queued, changes
		if r.Intn(5) == 0 {
			// A hand-built context: no Changes, and Queued in any order.
			ctx.Queued, ctx.Changes = slices.Clone(queued), nil
			for i := len(ctx.Queued) - 1; i > 0; i-- {
				k := r.Intn(i + 1)
				ctx.Queued[i], ctx.Queued[k] = ctx.Queued[k], ctx.Queued[i]
			}
		}

		type outcome struct{ ok, shrank bool }
		outs := make([]outcome, len(queued))
		for i := range outs {
			switch r.Intn(20) {
			case 0, 1, 2:
				outs[i] = outcome{true, true}
			case 3, 4, 5, 6, 7, 8, 9:
				outs[i] = outcome{true, false}
			}
		}
		scripted := func() func(*Job) (bool, bool) {
			n := 0
			return func(j *Job) (bool, bool) {
				if n == len(outs) {
					t.Fatalf("seed %d round %d: attempt %d of %d queued jobs (%s): a job was attempted twice", seed, round, n+1, len(outs), j.Trace.ID)
				}
				o := outs[n]
				n++
				return o.ok, o.shrank
			}
		}
		want, wantBlocked := retiredLaunchLoop(ref, ctx, scripted(), st)
		passes := 1 + r.Intn(2)
		for pass := 0; pass < passes; pass++ {
			got, blocked := runLaunch(t, merge, ctx, scripted())
			if !slices.Equal(got, want) || blocked != wantBlocked {
				t.Fatalf("seed %d round %d pass %d (P=%d, promote after %g, deadline %v, rigid %v): merge %v blocked at %d, retired loop %v blocked at %d",
					seed, round, pass, maxPrio, promoteAfter, deadline, rigid, got, blocked, want, wantBlocked)
			}
			count := 0
			for _, f := range merge.fifos {
				count += len(f.q) - f.head
			}
			if count != merge.entries || count > 2*len(queued)+64 {
				t.Fatalf("seed %d round %d: %d entries filed, %d counted, %d queued", seed, round, count, merge.entries, len(queued))
			}
		}

		// Apply: launched jobs leave the queue (a few stay, as launches
		// the engine cannot place do), dropped ones retire, and a few
		// queued jobs are cancelled.
		byID := map[string]*Job{}
		for _, j := range queued {
			byID[j.Trace.ID] = j
		}
		for _, a := range want {
			id, act, _ := strings.Cut(a, " ")
			switch j := byID[id]; act {
			case "launch", "shrink":
				if r.Intn(6) > 0 {
					j.State = StateRunning
					running = append(running, j)
				}
			case "drop":
				j.State = StateDropped
			}
		}
		for _, j := range queue {
			if j.State == StateQueued && r.Intn(15) == 0 {
				j.State = StateDropped
			}
		}
		queue = slices.DeleteFunc(queue, func(j *Job) bool { return j.State != StateQueued })
	}
}

// TestLaunchMergeMatchesRetiredLoop checks the FIFO merge against the
// launch loop it replaced (see checkLaunchMerge) on 600 random queues,
// and that those queues promote, block, skip, clear the memo with a
// failure memoized, and drop.
func TestLaunchMergeMatchesRetiredLoop(t *testing.T) {
	var st loopStats
	for seed := uint64(0); seed < 600; seed++ {
		checkLaunchMerge(t, seed, &st)
	}
	if st.skips == 0 || st.clears == 0 || st.drops == 0 || st.blocks == 0 || st.promoted == 0 {
		t.Errorf("the queues miss a case: %+v", st)
	}
}

// FuzzLaunchMerge runs checkLaunchMerge on fuzzed seeds.
func FuzzLaunchMerge(f *testing.F) {
	for seed := uint64(0); seed < 8; seed++ {
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, seed uint64) {
		checkLaunchMerge(t, seed, &loopStats{})
	})
}

// TestLaunchFIFOsReleaseLeftJobs checks that the FIFOs let go of jobs
// that left the queue. Entries at a FIFO's front go when the merge
// reaches them; once dead entries outnumber live ones (plus slack),
// syncQueue drops every dead entry, wherever it sits. Either way the
// entry count stays exact and no slot outside a FIFO's entries keeps a
// job alive.
func TestLaunchFIFOsReleaseLeftJobs(t *testing.T) {
	jobs := make([]*Job, 300)
	for i := range jobs {
		jobs[i] = mkJob(fmt.Sprintf("j%03d", i), "WRes-1B", 256, 2, 1)
		jobs[i].SubmittedAt = float64(i)
		jobs[i].QueueSeq = uint64(i + 1)
	}
	p := NewArena()
	ctx := testCtx(t, nil, nil)
	changes := &QueueChanges{}
	ctx.Changes = changes
	round := func(queued, entered []*Job) {
		t.Helper()
		changes.Round++
		changes.Entered = entered
		ctx.Queued = queued
		runLaunch(t, p, ctx, func(*Job) (bool, bool) { return false, false })
		count := 0
		for _, f := range p.fifos {
			count += len(f.q) - f.head
			for _, e := range append(f.q[:f.head:f.head], f.q[len(f.q):cap(f.q)]...) {
				if e.job != nil {
					t.Fatalf("round %d: a slot outside the entries keeps %s", changes.Round, e.job.Trace.ID)
				}
			}
		}
		if count != p.entries {
			t.Fatalf("round %d: %d entries filed, %d counted", changes.Round, count, p.entries)
		}
	}
	round(jobs, jobs)
	// The first 100 launch: the merge meets them at the front.
	for _, j := range jobs[:100] {
		j.State = StateRunning
	}
	round(jobs[100:], nil)
	if p.entries != 200 {
		t.Fatalf("%d entries after 100 of 300 jobs left from the front, want 200", p.entries)
	}
	// Behind a head that keeps failing, 150 are cancelled: 150 dead
	// entries against 50 live ones.
	for _, j := range jobs[101:251] {
		j.State = StateDropped
	}
	round(append(jobs[100:101:101], jobs[251:]...), nil)
	if p.entries != 50 {
		t.Fatalf("%d entries after dead entries outnumbered 50 live ones, want 50", p.entries)
	}
}
