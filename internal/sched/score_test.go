package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/rng"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// argmaxScan is the selection GainHeap replaced: an index-order scan with
// a strict `>` comparison and a 0.0 floor, so ties go to the lowest index
// and non-positive gains are never selected. -1 means nothing selectable.
func argmaxScan(gains []float64, live []bool) int {
	best, bestGain := -1, 0.0
	for i, g := range gains {
		if live[i] && g > bestGain {
			best, bestGain = i, g
		}
	}
	return best
}

// TestGainHeapMatchesArgmaxScan drives GainHeap and the argmax scan with
// the same random Update/Pop sequence — gains from a small alphabet, so
// ties are common, including zero and negative gains, and repeated
// Updates of one candidate between pops — and requires every Pop to
// select what the scan selects. A popped candidate leaves both until its
// next Update, as it does in the doubling loop.
func TestGainHeapMatchesArgmaxScan(t *testing.T) {
	alphabet := []float64{-1, 0, 0.25, 0.5, 0.5, 1, 2}
	r := rng.New(17)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		h := NewGainHeap(n)
		gains := make([]float64, n)
		live := make([]bool, n)
		for step := 0; step < 60; step++ {
			if r.Intn(3) > 0 {
				i, g := r.Intn(n), alphabet[r.Intn(len(alphabet))]
				h.Update(i, g)
				gains[i], live[i] = g, true
				continue
			}
			want := argmaxScan(gains, live)
			got, ok := h.Pop()
			if !ok {
				got = -1
			}
			if got != want {
				t.Fatalf("trial %d step %d: Pop = %d, scan selects %d (gains %v, live %v)", trial, step, got, want, gains, live)
			}
			if got >= 0 {
				live[got] = false
			}
		}
	}
}

// rescanDoubling is the marginal-gain loop DoubleByGain replaced: every
// selection rescans all candidates in ids order for the highest positive
// gain among those whose type still has cur.N free GPUs.
func rescanDoubling(ids []string, rounds int, target map[string]Alloc, free map[string]int, place map[string]Alloc, gain func(string, Alloc) (float64, bool)) int {
	for r := 0; r < rounds; r++ {
		bestID, bestGain := "", 0.0
		for _, id := range ids {
			cur := target[id]
			if free[cur.GPUType] < cur.N {
				continue
			}
			if g, ok := gain(id, cur); ok && g > bestGain {
				bestID, bestGain = id, g
			}
		}
		if bestID == "" {
			return r
		}
		cur := target[bestID]
		next := Alloc{GPUType: cur.GPUType, N: cur.N * 2}
		free[cur.GPUType] -= cur.N
		target[bestID] = next
		place[bestID] = next
	}
	return rounds
}

// TestDoubleByGainMatchesRescan runs DoubleByGain and the full rescan on
// identical random states — mixed GPU types, tight free capacity, gains
// that depend only on (candidate, size) with ties, ineligible and
// non-positive entries — and requires the same doublings, targets, free
// capacity and placements.
func TestDoubleByGainMatchesRescan(t *testing.T) {
	types := []string{"A40", "A10"}
	alphabet := []float64{-1, 0, 0.5, 1, 1, 3}
	r := rng.New(23)
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(10)
		ids := make([]string, n)
		cands := make([]*Job, n)
		target := map[string]Alloc{}
		for i := range ids {
			ids[i] = fmt.Sprintf("j%02d", i)
			cands[i] = &Job{Trace: trace.Job{ID: ids[i]}}
			target[ids[i]] = Alloc{GPUType: types[r.Intn(2)], N: 1 << r.Intn(4)}
		}
		free := map[string]int{"A40": r.Intn(24), "A10": r.Intn(24)}
		seed := r.Uint64()
		gain := func(id string, cur Alloc) (float64, bool) {
			x := rng.Derive(seed, rng.HashString(id), uint64(cur.N))
			if x.Intn(5) == 0 {
				return 0, false
			}
			return alphabet[x.Intn(len(alphabet))], true
		}
		copyState := func() (map[string]Alloc, map[string]int) {
			tg, fr := map[string]Alloc{}, map[string]int{}
			for k, v := range target {
				tg[k] = v
			}
			for k, v := range free {
				fr[k] = v
			}
			return tg, fr
		}
		rounds := r.Intn(8)
		wantTarget, wantFree := copyState()
		wantPlace := map[string]Alloc{}
		want := rescanDoubling(ids, rounds, wantTarget, wantFree, wantPlace, gain)
		gotTarget, gotFree := copyState()
		gotPlace := map[string]Alloc{}
		got := DoubleByGain(cands, rounds, gotTarget, gotFree, gotPlace, func(j *Job, cur Alloc) (float64, bool) {
			return gain(j.Trace.ID, cur)
		})
		if got != want || !reflect.DeepEqual(gotTarget, wantTarget) || !reflect.DeepEqual(gotFree, wantFree) || !reflect.DeepEqual(gotPlace, wantPlace) {
			t.Fatalf("trial %d: DoubleByGain made %d doublings (target %v free %v place %v), rescan %d (target %v free %v place %v)",
				trial, got, gotTarget, gotFree, gotPlace, want, wantTarget, wantFree, wantPlace)
		}
	}
}

// kneeLoopBestUnderFree is the launch search the ladder cache replaced:
// allowedTypes × allowedCounts, zero-throughput sizes skipped, each type
// cut at the first doubling that gains under 30%, then the free-capacity
// and deadline checks, keeping the densest candidate (first on ties).
func kneeLoopBestUnderFree(p *ArenaPolicy, ctx *Context, job *Job, free map[string]int) (Alloc, bool) {
	var best Alloc
	var bestDensity float64
	found := false
	for _, typ := range p.allowedTypes(ctx, job) {
		var prevThr float64
		for _, n := range p.allowedCounts(ctx, job) {
			thr := p.PerceivedThr(ctx.DB, job.Workload(), typ, n)
			if thr <= 0 {
				continue
			}
			if prevThr > 0 && thr < prevThr*1.3 {
				break
			}
			prevThr = thr
			if n > free[typ] || !p.meetsDeadline(ctx, job, thr) {
				continue
			}
			density := thr / float64(n)
			if !found || density > bestDensity {
				best, bestDensity, found = Alloc{GPUType: typ, N: n}, density, true
			}
		}
	}
	return best, found
}

// TestLaunchLadderMatchesKneeLoop checks Arena's ladder-based
// bestUnderFree against the knee loop for every workload of the test
// database, every requested type and a spread of requested counts
// (including a non-power-of-two one), random free-capacity vectors and
// random deadlines, under the default policy and the DisableHetero,
// DisableElastic and ObjDeadline variants — the knobs the ladder's
// signature and checks depend on — plus a DisablePlanner deadline variant
// whose perceived table has a knee. One policy instance per variant
// serves every job, so cached ladders are reused across signatures and
// free vectors.
func TestLaunchLadderMatchesKneeLoop(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*ArenaPolicy)
	}{
		{"arena", func(*ArenaPolicy) {}},
		{"w/o-hetero", func(p *ArenaPolicy) { p.DisableHetero = true }},
		{"w/o-elastic", func(p *ArenaPolicy) { p.DisableElastic = true }},
		{"ddl", func(p *ArenaPolicy) { p.Objective = ObjDeadline }},
		// The test database's Arena view has no knee (every doubling adds
		// over 30%); the DP view does (WRes-1B on A40 gains under 30% from
		// 8 to 16 GPUs), and only deadlines make a cut candidate matter.
		{"w/o-planner+ddl", func(p *ArenaPolicy) { p.DisablePlanner, p.Objective = true, ObjDeadline }},
	}
	r := rng.New(29)
	ctx := testCtx(t, nil, nil)
	ctx.Now = 3600
	for _, v := range variants {
		name := v.name
		p := NewArena()
		v.mod(p)
		p.ensureLadders(ctx)
		checked := 0
		for _, w := range testWorkloads() {
			for _, reqType := range []string{"A40", "A10"} {
				for _, req := range []int{1, 2, 3, 4, 8, 16} {
					for trial := 0; trial < 20; trial++ {
						job := mkJob("j", w.Model, w.GlobalBatch, req, 1)
						job.Trace.ReqType = reqType
						job.RemainingSamples = float64(1+r.Intn(1000)) * float64(w.GlobalBatch)
						// Half the jobs get a deadline just above or below
						// what a random (type, size) point can meet, so the
						// deadline check — and which sizes the knee rule
						// leaves on the ladder — decides the launch.
						if r.Intn(2) == 0 {
							n := 1 << r.Intn(5)
							if thr := p.PerceivedThr(ctx.DB, w, []string{"A40", "A10"}[r.Intn(2)], n); thr > 0 {
								job.Trace.Deadline = ctx.Now + job.RemainingSamples/thr*(0.9+0.2*r.Float64())
							}
						}
						free := map[string]int{"A40": r.Intn(33), "A10": r.Intn(33)}
						got, gotOK := p.bestUnderFree(ctx, job, free)
						want, wantOK := kneeLoopBestUnderFree(p, ctx, job, free)
						if got != want || gotOK != wantOK {
							t.Fatalf("%s: %v req %d×%s free %v deadline %g: ladder %v/%v, knee loop %v/%v",
								name, w, req, reqType, free, job.Trace.Deadline, got, gotOK, want, wantOK)
						}
						if wantOK {
							checked++
						}
					}
				}
			}
		}
		if checked == 0 {
			t.Errorf("%s: no launch ever fit; the free vectors do not exercise the search", name)
		}
	}
}

// stableSortOrder is the launch order Assign built before launchOrder: a
// copy of the queue stable-sorted by (CurPriority, SubmittedAt).
func stableSortOrder(queued []*Job) []*Job {
	out := append([]*Job(nil), queued...)
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].CurPriority != out[b].CurPriority {
			return out[a].CurPriority < out[b].CurPriority
		}
		return out[a].SubmittedAt < out[b].SubmittedAt
	})
	return out
}

// TestLaunchOrderMatchesStableSort checks launchOrder against the stable
// sort it replaced on random queues shaped like the engine's — admitted
// in SubmittedAt order with many equal submission times, then some jobs
// requeued to the back out of order (or the whole queue shuffled) — with
// priorities from 1 to far above P (plus a few below 1), for several P,
// including empty and one-job queues.
func TestLaunchOrderMatchesStableSort(t *testing.T) {
	r := rng.New(41)
	for trial := 0; trial < 3000; trial++ {
		p := []int{0, 1, 3, 5}[r.Intn(4)]
		n := r.Intn(40)
		if trial < 8 {
			n = trial % 2 // empty and one-job queues under every P
		}
		queue := make([]*Job, n)
		at := 0.0
		for i := range queue {
			if r.Intn(3) > 0 {
				at += float64(1 + r.Intn(4))
			}
			prio := 1 + r.Intn(p+1)
			switch r.Intn(10) {
			case 0:
				prio = p + 1 + r.Intn(1000) // far above P
			case 1:
				prio = 1 - r.Intn(3) // below the first queue
			}
			queue[i] = &Job{Trace: trace.Job{ID: fmt.Sprintf("j%02d", i)}, SubmittedAt: at, CurPriority: prio}
		}
		switch r.Intn(4) {
		case 0:
			// Requeue: move a few jobs to the back, as crash restarts and
			// failed moves do.
			for k := r.Intn(4); k > 0 && n > 1; k-- {
				i := r.Intn(n)
				j := queue[i]
				copy(queue[i:], queue[i+1:])
				queue[n-1] = j
			}
		case 1:
			for i := n - 1; i > 0; i-- {
				k := r.Intn(i + 1)
				queue[i], queue[k] = queue[k], queue[i]
			}
		}
		got, want := launchOrder(queue, p), stableSortOrder(queue)
		if !slices.Equal(got, want) {
			ids := func(js []*Job) []string {
				var s []string
				for _, j := range js {
					s = append(s, fmt.Sprintf("%s(p%d,t%g)", j.Trace.ID, j.CurPriority, j.SubmittedAt))
				}
				return s
			}
			t.Fatalf("trial %d (P=%d): launchOrder %v, stable sort %v", trial, p, ids(got), ids(want))
		}
	}
	if got := launchOrder(nil, 3); len(got) != 0 {
		t.Fatalf("launchOrder(nil) = %v", got)
	}
}

// scanScaleDown is the GetOptimalScaleDown the per-round cost cache
// replaced: every call rescans the running set at its current targets,
// two perceived-throughput lookups per job, keeping the strictly lowest
// cost, so ties go to the first job in ctx.Running. st counts what the
// scan saw: ties at the minimum, single-GPU jobs, halves with zero
// perceived throughput and halves that miss their deadline.
func scanScaleDown(p *ArenaPolicy, ctx *Context, target map[string]Alloc, st *scanStats) (*Job, Alloc, bool) {
	var bestJob *Job
	var bestAlloc Alloc
	bestCost := math.MaxFloat64
	ties := 0
	for _, j := range ctx.Running {
		if p.DisableElastic {
			continue
		}
		cur := target[j.Trace.ID]
		if cur.N < 2 {
			st.single++
			continue
		}
		half := cur.N / 2
		thrCur := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
		thrHalf := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, half)
		if thrHalf <= 0 {
			st.zeroHalf++
			continue
		}
		if !p.meetsDeadline(ctx, j, thrHalf) {
			st.late++
			continue
		}
		cost := (thrCur - thrHalf) / float64(cur.N-half)
		switch {
		case cost < bestCost:
			bestJob, bestAlloc, bestCost, ties = j, Alloc{GPUType: cur.GPUType, N: half}, cost, 0
		case cost == bestCost:
			ties++
		}
	}
	if ties > 0 {
		st.ties++
	}
	if bestJob == nil {
		return nil, Alloc{}, false
	}
	return bestJob, bestAlloc, true
}

type scanStats struct{ ties, single, zeroHalf, late int }

// TestScaleDownMatchesScan checks the cached optimalScaleDown against the
// per-call scan on random running sets — few distinct (workload, type,
// size) shapes, so equal-cost ties are common, with single-GPU jobs,
// halves the database cannot run and deadlines just above or below a
// half's finish — under the default policy, ObjDeadline, DisableElastic
// and DisablePlanner. Each set sees a random sequence of launch attempts
// made the way tryLaunch makes them: up to D picks, each staged through
// retarget, then either kept (the launch landed) or reverted in reverse
// order. After every step the cached pick must equal the scan's.
func TestScaleDownMatchesScan(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*ArenaPolicy)
	}{
		{"arena", func(*ArenaPolicy) {}},
		{"ddl", func(p *ArenaPolicy) { p.Objective = ObjDeadline }},
		{"w/o-elastic", func(p *ArenaPolicy) { p.DisableElastic = true }},
		{"w/o-planner", func(p *ArenaPolicy) { p.DisablePlanner = true }},
	}
	types := []string{"A40", "A10"}
	base := testCtx(t, nil, nil)
	r := rng.New(59)
	var st scanStats
	picks := 0
	for _, v := range variants {
		p := NewArena()
		v.mod(p)
		for trial := 0; trial < 150; trial++ {
			ctx := *base
			ctx.Now = 3600
			ctx.Running = make([]*Job, r.Intn(12))
			target := map[string]Alloc{}
			for i := range ctx.Running {
				w := testWorkloads()[r.Intn(2)]
				j := mkJob(fmt.Sprintf("r%02d", i), w.Model, w.GlobalBatch, 1, 1)
				j.State = StateRunning
				j.Alloc = Alloc{GPUType: types[r.Intn(2)], N: 1 << r.Intn(5)}
				if r.Intn(3) == 0 {
					if thr := p.PerceivedThr(ctx.DB, w, j.Alloc.GPUType, max(j.Alloc.N/2, 1)); thr > 0 {
						j.Trace.Deadline = ctx.Now + j.RemainingSamples/thr*(0.8+0.4*r.Float64())
					}
				}
				ctx.Running[i] = j
				target[j.Trace.ID] = j.Alloc
			}
			var downCost []float64
			pick := func(step int) (int, Alloc, bool) {
				t.Helper()
				i, got, ok := p.optimalScaleDown(&ctx, target, &downCost)
				want, wantAlloc, wantOK := scanScaleDown(p, &ctx, target, &st)
				if ok != wantOK || (ok && (ctx.Running[i] != want || got != wantAlloc)) {
					t.Fatalf("%s trial %d step %d: cached pick %d %v %v, scan picks %v %v %v (targets %v)",
						v.name, trial, step, i, got, ok, want, wantAlloc, wantOK, target)
				}
				if ok {
					picks++
				}
				return i, got, ok
			}
			for step := 0; step < 12; step++ {
				type staged struct {
					i   int
					old Alloc
				}
				var stack []staged
				for k := 1 + r.Intn(p.D); k > 0; k-- {
					i, half, ok := pick(step)
					if !ok {
						break
					}
					stack = append(stack, staged{i, target[ctx.Running[i].Trace.ID]})
					p.retarget(&ctx, target, downCost, i, half)
				}
				if r.Intn(2) == 0 {
					continue // landed: the shrinks stay
				}
				for k := len(stack) - 1; k >= 0; k-- {
					p.retarget(&ctx, target, downCost, stack[k].i, stack[k].old)
					pick(step)
				}
			}
		}
	}
	if picks == 0 || st.ties == 0 || st.single == 0 || st.zeroHalf == 0 || st.late == 0 {
		t.Errorf("the running sets miss a case: %d picks, scan stats %+v", picks, st)
	}
}

// TestLadderHintMatchesColdLookup gives launchLadder jobs whose hints
// index another policy instance's ladder list, the list from before an
// ensureLadders reset, or the list from before each ablation flip; each
// time the policy's current list is built in another order than the one
// the hints were written from. Every lookup must return the ladder a
// hint-free copy of the job gets from the same policy, with the
// candidates a fresh policy of the same configuration builds.
func TestLadderHintMatchesColdLookup(t *testing.T) {
	ctx := testCtx(t, nil, nil)
	var jobs []*Job
	for _, w := range testWorkloads() {
		for _, reqType := range []string{"A40", "A10"} {
			for _, req := range []int{1, 3, 8} {
				j := mkJob("j", w.Model, w.GlobalBatch, req, 1)
				j.Trace.ReqType = reqType
				jobs = append(jobs, j)
			}
		}
	}
	cold := func(j *Job) *Job {
		c := *j
		c.ladderHint = 0
		return &c
	}
	// hint writes p's list positions into the jobs' hints, building the
	// list in job order where it is empty.
	hint := func(p *ArenaPolicy) {
		for _, j := range jobs {
			p.launchLadder(ctx, j)
		}
	}
	// build fills p's list from hint-free copies, leaving the jobs' hints
	// alone, in reverse job order on odd calls and in job order on even
	// ones: never in the order the hints were last written from.
	builds := 0
	build := func(p *ArenaPolicy) {
		builds++
		for i := range jobs {
			if builds%2 == 1 {
				i = len(jobs) - 1 - i
			}
			p.launchLadder(ctx, cold(jobs[i]))
		}
	}
	check := func(stage string, p *ArenaPolicy) {
		t.Helper()
		fresh := NewArena()
		fresh.DisablePlanner, fresh.DisableElastic, fresh.DisableHetero = p.DisablePlanner, p.DisableElastic, p.DisableHetero
		fresh.ensureLadders(ctx)
		for _, j := range jobs {
			got := p.launchLadder(ctx, j)
			if want := p.launchLadder(ctx, cold(j)); got != want {
				t.Fatalf("%s: %v req %d×%s: the hinted lookup returned another ladder than a cold one", stage, j.Workload(), j.Trace.ReqGPUs, j.Trace.ReqType)
			}
			if want := fresh.launchLadder(ctx, cold(j)); !reflect.DeepEqual(got.cands, want.cands) || !slices.Equal(got.counts, want.counts) {
				t.Fatalf("%s: %v req %d×%s: ladder %+v, a fresh policy builds %+v", stage, j.Workload(), j.Trace.ReqGPUs, j.Trace.ReqType, got.cands, want.cands)
			}
		}
	}

	other := NewArena()
	other.ensureLadders(ctx)
	hint(other)
	p := NewArena()
	p.ensureLadders(ctx)
	build(p)
	check("another instance", p)

	hint(p)
	ctx.MaxPerJob = 8
	p.ensureLadders(ctx) // a new cap resets the cache
	build(p)
	check("reset", p)
	ctx.MaxPerJob = 16

	for _, flip := range []struct {
		name string
		set  func(*ArenaPolicy)
	}{
		{"w/o-hetero", func(p *ArenaPolicy) { p.DisableHetero = true }},
		{"w/o-elastic", func(p *ArenaPolicy) { p.DisableElastic = true }},
		{"w/o-planner", func(p *ArenaPolicy) { p.DisablePlanner = true }},
	} {
		hint(p)
		flip.set(p)
		p.ensureLadders(ctx)
		build(p)
		check(flip.name, p)
	}
}

// TestLaunchMemoStamps pins when a failure stamp may skip a job. A
// failure stamped in an earlier round never skips: the same job launches
// the next round once capacity frees up. Within a round, a landed launch
// that staged a shrink bumps the memo, so a later job with an earlier
// failure's signature runs its search again. The round is built for it
// (scale-down depth 1): A, a GPT-6.7B job (4×A40 or 8×A10), fails after
// the cheapest shrink frees 4 A10; B, a GPT-2.6B job, lands on 4 A10 by
// the same shrink; C, A's twin, then shrinks the next victim, which
// frees 4 A40, and lands.
func TestLaunchMemoStamps(t *testing.T) {
	giant := func(id string, at float64) *Job {
		j := mkJob(id, "GPT-6.7B", 128, 4, 1)
		j.SubmittedAt = at
		return j
	}

	p := NewArena()
	a := giant("a", 0)
	if asg := p.Assign(testCtx(t, []*Job{a}, unshrinkable(32, 32))); len(asg.Place) != 0 {
		t.Fatalf("round 1 placed %v on a full cluster", asg.Place)
	}
	if asg := p.Assign(testCtx(t, []*Job{a}, unshrinkable(28, 32))); asg.Place["a"] != (Alloc{GPUType: "A40", N: 4}) {
		t.Fatalf("round 2: the job failed in round 1 got %v with 4 A40 free", asg.Place)
	}

	p = NewArena()
	p.D = 1
	running := append([]*Job{runningWRes("v10", "A10", 8), runningWRes("v40", "A40", 8)}, unshrinkable(24, 22)...)
	b := mkJob("b", "GPT-2.6B", 128, 4, 1)
	b.SubmittedAt = 1
	asg := p.Assign(testCtx(t, []*Job{giant("a", 0), b, giant("c", 2)}, running))
	want := map[string]Alloc{
		"b": {GPUType: "A10", N: 4}, "c": {GPUType: "A40", N: 4},
		"v10": {GPUType: "A10", N: 4}, "v40": {GPUType: "A40", N: 4},
	}
	if !reflect.DeepEqual(asg.Place, want) {
		t.Fatalf("placements %v, want %v", asg.Place, want)
	}
}

// TestLadderCacheTracksDisablePlanner flips DisablePlanner between two
// Assign calls on one policy: the second must decide as a fresh policy
// built with the switch set. Two A40 GPUs are free; the planner's view
// runs GPT-2.6B on them, the static-DP view needs four.
func TestLadderCacheTracksDisablePlanner(t *testing.T) {
	round := func(p *ArenaPolicy) Assignment {
		return p.Assign(testCtx(t, []*Job{mkJob("q", "GPT-2.6B", 128, 2, 1)}, unshrinkable(30, 32)))
	}
	p := NewArena()
	if asg := round(p); asg.Place["q"] != (Alloc{GPUType: "A40", N: 2}) {
		t.Fatalf("with the planner: %v, want q on 2 A40", asg.Place)
	}
	p.DisablePlanner = true
	fresh := NewArena()
	fresh.DisablePlanner = true
	if got, want := round(p), round(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the flip: %+v, a fresh w/o-planner policy: %+v", got, want)
	}
}

// runningWRes returns a WRes-1B job holding n GPUs of the type, ready for
// testCtx's running set.
func runningWRes(id, typ string, n int) *Job {
	j := mkJob(id, "WRes-1B", 256, n, 1)
	j.Alloc = Alloc{GPUType: typ, N: n}
	return j
}

// unshrinkable returns running jobs holding a40 A40 and a10 A10 GPUs
// that no scale-down may pick: single A40 GPUs and A10 pairs (WRes-1B
// cannot run on one A10).
func unshrinkable(a40, a10 int) []*Job {
	var js []*Job
	for i := 0; i < a40; i++ {
		js = append(js, runningWRes(fmt.Sprintf("f40-%02d", i), "A40", 1))
	}
	for i := 0; i < a10; i += 2 {
		js = append(js, runningWRes(fmt.Sprintf("f10-%02d", i), "A10", 2))
	}
	return js
}
