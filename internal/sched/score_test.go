package sched

import (
	"fmt"
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
