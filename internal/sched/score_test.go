package sched

import (
	"fmt"
	"math"
	"reflect"
	"slices"
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/model"
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
	var h GainHeap // one heap, reset per trial as DoubleByGain resets it
	for trial := 0; trial < 300; trial++ {
		n := 1 + r.Intn(12)
		h.reset(n)
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
// capacity and placements. The candidates sit in ts.Jobs in a shuffled
// order with IDs of mixed lengths, so index order, numeric order and ID
// order all differ. Index tie order (elasticflow, sia) is checked against
// the rescan in ts.Jobs order; ID tie order (arena) against the rescan
// over the ID-sorted list, the order arena's scale-up once sorted its
// candidates into. In the ID trials most candidates share one of two
// workloads and their gain depends only on (workload, type, size), so
// exact ties are the rule.
func TestDoubleByGainMatchesRescan(t *testing.T) {
	types := []string{"A40", "A10"}
	alphabet := []float64{-1, 0, 0.5, 1, 1, 3}
	r := rng.New(23)
	ties := 0
	ts := &Targets{} // kept across trials, as a policy keeps it
	for _, byID := range []bool{false, true} {
		for trial := 0; trial < 300; trial++ {
			n := 1 + r.Intn(10)
			if byID {
				n = 1 + r.Intn(40)
			}
			ts.Types = types
			ts.Free = append(ts.Free[:0], r.Intn(24), r.Intn(24))
			ts.Jobs, ts.Target = ts.Jobs[:0], ts.Target[:0]
			ids := make([]string, n)
			class := map[string]int{}
			target := map[string]Alloc{}
			perm := make([]int, n)
			for i := range perm {
				k := r.Intn(i + 1)
				perm[i], perm[k] = perm[k], i
			}
			for i, k := range perm {
				ids[i] = fmt.Sprintf("j%d", k)
				class[ids[i]] = r.Intn(2)
				if r.Intn(8) == 0 {
					class[ids[i]] = 2 + i // a workload of its own
				}
				a := Alloc{GPUType: types[r.Intn(2)], N: 1 << r.Intn(4)}
				target[ids[i]] = a
				ts.Jobs = append(ts.Jobs, &Job{Trace: trace.Job{ID: ids[i]}})
				ts.Target = append(ts.Target, a)
			}
			free := map[string]int{"A40": ts.Free[0], "A10": ts.Free[1]}
			seed := r.Uint64()
			gain := func(id string, cur Alloc) (float64, bool) {
				key := rng.HashString(id)
				if byID {
					key = rng.HashString(fmt.Sprintf("w%d/%s", class[id], cur.GPUType))
				}
				x := rng.Derive(seed, key, uint64(cur.N))
				if x.Intn(5) == 0 {
					return 0, false
				}
				return alphabet[x.Intn(len(alphabet))], true
			}
			order := slices.Clone(ids)
			if byID {
				sort.Strings(order)
			}
			rounds := r.Intn(8)
			wantPlace := map[string]Alloc{}
			want := rescanDoubling(order, rounds, target, free, wantPlace, gain)
			gotPlace := map[string]Alloc{}
			scored := map[float64][]Alloc{}
			got := DoubleByGain(ts, rounds, byID, gotPlace, func(i int, cur Alloc) (float64, bool) {
				g, ok := gain(ts.Jobs[i].Trace.ID, cur)
				if ok && g > 0 {
					scored[g] = append(scored[g], cur)
				}
				return g, ok
			})
			for _, as := range scored {
				for k := 1; k < len(as); k++ {
					if slices.Contains(as[:k], as[k]) {
						ties++
					}
				}
			}
			gotTarget := map[string]Alloc{}
			for i, j := range ts.Jobs {
				gotTarget[j.Trace.ID] = ts.Target[i]
			}
			gotFree := map[string]int{"A40": ts.Free[0], "A10": ts.Free[1]}
			if got != want || !reflect.DeepEqual(gotTarget, target) || !reflect.DeepEqual(gotFree, free) || !reflect.DeepEqual(gotPlace, wantPlace) {
				t.Fatalf("byID %v trial %d: DoubleByGain made %d doublings (target %v free %v place %v), rescan %d (target %v free %v place %v)",
					byID, trial, got, gotTarget, gotFree, gotPlace, want, target, free, wantPlace)
			}
		}
	}
	if ties < 1000 {
		t.Errorf("only %d exact ties (equal gain, type and size) were scored; the ID trials do not stress the tie order", ties)
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
	for _, typ := range p.allowedTypes(job) {
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
// database, every requested type (and none) and a spread of requested
// counts (including zero and a non-power-of-two one), random
// free-capacity vectors and
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
			for _, reqType := range []string{"A40", "A10", ""} {
				for _, req := range []int{0, 1, 2, 3, 4, 8, 16} {
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
						freeByType := make([]int, len(p.types))
						for t, typ := range p.types {
							freeByType[t] = free[typ]
						}
						var got Alloc
						c, gotOK := p.bestUnderFree(ctx, job, p.launchLadder(ctx, job), freeByType)
						if gotOK {
							got = Alloc{GPUType: p.types[c.t], N: c.n}
						}
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

// scanScaleDown is the GetOptimalScaleDown the per-round cost cache
// replaced: every call rescans the running set at its current targets,
// two perceived-throughput lookups per job, keeping the strictly lowest
// cost, so ties go to the first job in ctx.Running. st counts what the
// scan saw: ties at the minimum, single-GPU jobs, halves with zero
// perceived throughput and halves that miss their deadline.
func scanScaleDown(p *ArenaPolicy, ctx *Context, target []Alloc, st *scanStats) (*Job, Alloc, bool) {
	var bestJob *Job
	var bestAlloc Alloc
	bestCost := math.MaxFloat64
	ties := 0
	for i, j := range ctx.Running {
		if p.DisableElastic {
			continue
		}
		cur := target[i]
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
			}
			p.ensureLadders(&ctx)
			ts := &p.ts
			ts.Reset(&ctx, p.types)
			p.downFilled = false
			pick := func(step int) (int, Alloc, bool) {
				t.Helper()
				i, got, ok := p.optimalScaleDown(&ctx, ts)
				want, wantAlloc, wantOK := scanScaleDown(p, &ctx, ts.Target, &st)
				if ok != wantOK || (ok && (ctx.Running[i] != want || got != wantAlloc)) {
					t.Fatalf("%s trial %d step %d: cached pick %d %v %v, scan picks %v %v %v (targets %v)",
						v.name, trial, step, i, got, ok, want, wantAlloc, wantOK, ts.Target)
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
					stack = append(stack, staged{i, ts.Target[i]})
					p.retarget(&ctx, ts, i, half)
				}
				if r.Intn(2) == 0 {
					continue // landed: the shrinks stay
				}
				for k := len(stack) - 1; k >= 0; k-- {
					p.retarget(&ctx, ts, stack[k].i, stack[k].old)
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
// candidates and tables a fresh policy of the same configuration builds.
// The jobs include empty requests (no type, zero GPUs): their signature
// is the same with the matching switch on and off.
func TestLadderHintMatchesColdLookup(t *testing.T) {
	ctx := testCtx(t, nil, nil)
	var jobs []*Job
	for _, w := range testWorkloads() {
		for _, reqType := range []string{"A40", "A10", ""} {
			for _, req := range []int{0, 1, 3, 8} {
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
		fresh.DisablePlanner, fresh.DisableElastic, fresh.DisableHetero, fresh.DisablePruning = p.DisablePlanner, p.DisableElastic, p.DisableHetero, p.DisablePruning
		fresh.ensureLadders(ctx)
		for _, j := range jobs {
			got := p.launchLadder(ctx, j)
			if want := p.launchLadder(ctx, cold(j)); got != want {
				t.Fatalf("%s: %v req %d×%q: the hinted lookup returned another ladder than a cold one", stage, j.Workload(), j.Trace.ReqGPUs, j.Trace.ReqType)
			}
			want := fresh.launchLadder(ctx, cold(j))
			if !reflect.DeepEqual(got.cands, want.cands) || !slices.Equal(got.counts, want.counts) {
				t.Fatalf("%s: %v req %d×%q: ladder %+v, a fresh policy builds %+v", stage, j.Workload(), j.Trace.ReqGPUs, j.Trace.ReqType, got.cands, want.cands)
			}
			if !slices.Equal(got.thr, want.thr) || !slices.Equal(got.deploy, want.deploy) {
				t.Fatalf("%s: %v req %d×%q: tables %v/%v, a fresh policy builds %v/%v", stage, j.Workload(), j.Trace.ReqGPUs, j.Trace.ReqType, got.thr, got.deploy, want.thr, want.deploy)
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
		{"w/o-pruning", func(p *ArenaPolicy) { p.DisablePruning = true }},
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

// flipMatchesFresh runs round on a default policy, sets one ablation
// switch on it with set and runs round again: the second round must
// decide as a fresh policy built with the switch set. It returns the
// first round's assignment.
func flipMatchesFresh(t *testing.T, set func(*ArenaPolicy), round func(*ArenaPolicy) Assignment) Assignment {
	t.Helper()
	p := NewArena()
	before := round(p)
	set(p)
	fresh := NewArena()
	set(fresh)
	if got, want := round(p), round(fresh); !reflect.DeepEqual(got, want) {
		t.Fatalf("after the flip: %+v, a fresh policy with the switch set: %+v", got, want)
	}
	return before
}

// TestLadderCacheTracksDisableHetero flips DisableHetero under a job
// that requests no GPU type: its signature is the same either way. With
// heterogeneity the job launches on A40; pinned to its (empty) request
// it can launch nowhere.
func TestLadderCacheTracksDisableHetero(t *testing.T) {
	q := mkJob("q", "GPT-2.6B", 128, 2, 1)
	q.Trace.ReqType = ""
	round := func(p *ArenaPolicy) Assignment {
		return p.Assign(testCtx(t, []*Job{q}, nil))
	}
	if asg := flipMatchesFresh(t, func(p *ArenaPolicy) { p.DisableHetero = true }, round); asg.Place["q"].GPUType != "A40" {
		t.Fatalf("before the flip: %v, want q on A40", asg.Place)
	}
}

// TestLadderCacheTracksDisableElastic flips DisableElastic under a
// WRes-1B job that requests zero GPUs: its signature is the same either
// way. All A40 GPUs and all but two A10 are taken; WRes-1B needs two A10
// GPUs, which elastic mode grants, while rigid mode snaps the request to
// one GPU and, with no single A40 free, leaves the job queued.
func TestLadderCacheTracksDisableElastic(t *testing.T) {
	q := mkJob("q", "WRes-1B", 256, 0, 1)
	round := func(p *ArenaPolicy) Assignment {
		return p.Assign(testCtx(t, []*Job{q}, unshrinkable(32, 30)))
	}
	if asg := flipMatchesFresh(t, func(p *ArenaPolicy) { p.DisableElastic = true }, round); asg.Place["q"] != (Alloc{GPUType: "A10", N: 2}) {
		t.Fatalf("before the flip: %v, want q on 2 A10", asg.Place)
	}
}

// TestLadderCacheTracksDisablePruning flips DisablePruning, which picks
// the deployment overhead the scale-up's promising-job rule charges. A
// running GPT-1.3B job on 2 A40 has just enough work left that doubling
// pays for the pruned search's restart but not for the full search's.
func TestLadderCacheTracksDisablePruning(t *testing.T) {
	w := testWorkloads()[1]
	dbp := db(t)
	pruned, full := NewArena(), NewArena()
	full.DisablePruning = true
	thrCur, thrNew := pruned.PerceivedThr(dbp, w, "A40", 2), pruned.PerceivedThr(dbp, w, "A40", 4)
	restartPruned := CheckpointResume + 0.2*pruned.DeployOverhead(dbp, w, "A40", 4)
	restartFull := CheckpointResume + 0.2*full.DeployOverhead(dbp, w, "A40", 4)
	if thrNew <= thrCur*1.02 || restartFull <= restartPruned {
		t.Fatalf("%v on A40: thr %g → %g, restart %g (pruned) vs %g (full): no room for the test", w, thrCur, thrNew, restartPruned, restartFull)
	}
	remaining := (restartPruned + restartFull) / 2 / (1/thrCur - 1/thrNew)
	round := func(p *ArenaPolicy) Assignment {
		r := mkJob("r", w.Model, w.GlobalBatch, 2, 1)
		r.Alloc = Alloc{GPUType: "A40", N: 2}
		r.RemainingSamples = remaining
		return p.Assign(testCtx(t, nil, []*Job{r}))
	}
	if asg := flipMatchesFresh(t, func(p *ArenaPolicy) { p.DisablePruning = true }, round); asg.Place["r"] != (Alloc{GPUType: "A40", N: 4}) {
		t.Fatalf("before the flip: %v, want r doubled to 4 A40", asg.Place)
	}
}

// directScaleGain is scaleGain as it read the database before the
// per-signature tables: every throughput and overhead a PerceivedThr or
// DeployOverhead call.
func directScaleGain(p *ArenaPolicy, ctx *Context, j *Job, cur Alloc) (float64, bool) {
	if cur.IsZero() || cur.N*2 > ctx.MaxPerJob {
		return 0, false
	}
	if j.Running() && j.BusyUntil > ctx.Now {
		return 0, false
	}
	double := cur.N * 2
	thrCur := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
	thrNew := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, double)
	if thrNew <= thrCur*1.02 {
		return 0, false
	}
	if j.Running() {
		restart := CheckpointResume + 0.2*p.DeployOverhead(ctx.DB, j.Workload(), cur.GPUType, double)
		tCur := j.RemainingSamples / thrCur
		tNew := j.RemainingSamples/thrNew + restart
		if tNew >= tCur {
			return 0, false
		}
	}
	gain := (thrNew - thrCur) / float64(cur.N)
	if p.Objective == ObjFairness {
		gain *= j.RemainingSamples / math.Max(thrCur, 1e-9)
	}
	return gain, true
}

// directHalvingCost is halvingCost on PerceivedThr calls.
func directHalvingCost(p *ArenaPolicy, ctx *Context, j *Job, cur Alloc) float64 {
	if p.DisableElastic || cur.N < 2 {
		return math.MaxFloat64
	}
	half := cur.N / 2
	thrCur := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, cur.N)
	thrHalf := p.PerceivedThr(ctx.DB, j.Workload(), cur.GPUType, half)
	if thrHalf <= 0 || !p.meetsDeadline(ctx, j, thrHalf) {
		return math.MaxFloat64
	}
	return (thrCur - thrHalf) / float64(cur.N-half)
}

// directHopeless is hopeless on PerceivedThr calls over allowedTypes ×
// allowedCounts.
func directHopeless(p *ArenaPolicy, ctx *Context, job *Job) bool {
	if job.Trace.Deadline <= 0 {
		return false
	}
	for _, typ := range p.allowedTypes(job) {
		for _, n := range p.allowedCounts(ctx, job) {
			thr := p.PerceivedThr(ctx.DB, job.Workload(), typ, n)
			if thr > 0 && p.meetsDeadline(ctx, job, thr) {
				return false
			}
		}
	}
	return true
}

// TestTablesMatchDirectEvaluation checks that scaleGain, halvingCost and
// hopeless, which read the per-signature tables, return bit for bit what
// the same formulas return on direct database calls — for every Arena
// variant (the default, the five ablations, deadline and fairness), on
// random running and queued jobs (every test workload plus one the
// database lacks, any requested type including none, requested counts
// including zero, some mid-reconfiguration, some with deadlines) at
// random targets: both cluster types and one outside the cluster, and
// sizes on and off the tables (3 GPUs, 32 GPUs).
func TestTablesMatchDirectEvaluation(t *testing.T) {
	variants := []struct {
		name string
		mod  func(*ArenaPolicy)
	}{
		{"arena", func(*ArenaPolicy) {}},
		{"w/o-planner", func(p *ArenaPolicy) { p.DisablePlanner = true }},
		{"w/o-profiler", func(p *ArenaPolicy) { p.DisableProfiler = true }},
		{"w/o-elastic", func(p *ArenaPolicy) { p.DisableElastic = true }},
		{"w/o-hetero", func(p *ArenaPolicy) { p.DisableHetero = true }},
		{"w/o-pruning", func(p *ArenaPolicy) { p.DisablePruning = true }},
		{"ddl", func(p *ArenaPolicy) { p.Objective = ObjDeadline }},
		{"fair", func(p *ArenaPolicy) { p.Objective = ObjFairness }},
	}
	workloads := append(testWorkloads(), model.Workload{Model: "GPT-1.3B", GlobalBatch: 64})
	types := []string{"A40", "A10", "V100"}
	sizes := []int{1, 2, 3, 4, 8, 16, 32}
	r := rng.New(61)
	ctx := testCtx(t, nil, nil)
	ctx.Now = 3600
	same := func(a, b float64) bool { return math.Float64bits(a) == math.Float64bits(b) }
	for _, v := range variants {
		p := NewArena()
		v.mod(p)
		p.ensureLadders(ctx)
		gains, costs, hopeful := 0, 0, 0
		for trial := 0; trial < 3000; trial++ {
			w := workloads[r.Intn(len(workloads))]
			j := mkJob(fmt.Sprintf("j%d", trial), w.Model, w.GlobalBatch, []int{0, 1, 2, 3, 8}[r.Intn(5)], 1)
			j.Trace.ReqType = []string{"A40", "A10", ""}[r.Intn(3)]
			j.RemainingSamples = float64(1+r.Intn(100_000)) * float64(w.GlobalBatch)
			if r.Intn(2) == 0 {
				j.State = StateRunning
				if r.Intn(4) == 0 {
					j.BusyUntil = ctx.Now + 60
				}
			}
			if r.Intn(2) == 0 {
				j.Trace.Deadline = ctx.Now + j.RemainingSamples/float64(1+r.Intn(2000))
			}
			cur := Alloc{GPUType: types[r.Intn(len(types))], N: sizes[r.Intn(len(sizes))]}
			if r.Intn(3) == 0 {
				j.ladderHint = uint32(1 + r.Intn(len(p.ladders)+1)) // maybe another signature's
			}

			g, ok := p.scaleGain(ctx, j, cur)
			wantG, wantOK := directScaleGain(p, ctx, j, cur)
			if ok != wantOK || !same(g, wantG) {
				t.Fatalf("%s: scaleGain(%v %s, %v) = %v/%v, direct %v/%v", v.name, w, j.State, cur, g, ok, wantG, wantOK)
			}
			if c, want := p.halvingCost(ctx, j, cur), directHalvingCost(p, ctx, j, cur); !same(c, want) {
				t.Fatalf("%s: halvingCost(%v, %v) = %v, direct %v", v.name, w, cur, c, want)
			} else if c != math.MaxFloat64 {
				costs++
			}
			if h, want := p.hopeless(ctx, j, p.launchLadder(ctx, j)), directHopeless(p, ctx, j); h != want {
				t.Fatalf("%s: hopeless(%v req %d×%q, deadline %g) = %v, direct %v", v.name, w, j.Trace.ReqGPUs, j.Trace.ReqType, j.Trace.Deadline, h, want)
			} else if !h && j.Trace.Deadline > 0 {
				hopeful++
			}
			if ok {
				gains++
			}
		}
		if gains == 0 || (costs == 0 && !p.DisableElastic) || hopeful == 0 {
			t.Errorf("%s: %d eligible gains, %d finite halving costs, %d feasible deadlines: the jobs miss a case", v.name, gains, costs, hopeful)
		}
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
