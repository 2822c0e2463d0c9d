package planner

import (
	"math/rand"
	"reflect"
	"sort"
	"testing"
)

// push drives the staircase exactly as offer does once a candidate's
// metrics are known, letting the tests feed synthetic (BComp, LComm,
// rank) populations without a graph or an intra-stage selector.
func (f *sweepFrontier) push(bComp, lComm float64, rank int) {
	idx := sort.Search(len(f.entries), func(i int) bool { return f.entries[i].cand.BComp > bComp })
	if !f.admit(idx, bComp, lComm, rank) {
		return
	}
	f.insert(frontierEntry{cand: &Candidate{BComp: bComp, LComm: lComm}, rank: rank}, idx)
}

type synthCand struct {
	b, l float64
	rank int
}

// bruteMinima computes the staircase's specified content directly: the
// minima of the strict partial order "≤ on both metrics and (< on one,
// or < on rank with both exactly tied)", sorted by BComp — the frontier
// as a pure function of the population, no insertion order anywhere.
func bruteMinima(pop []synthCand) []synthCand {
	var out []synthCand
	for _, c := range pop {
		beaten := false
		for _, k := range pop {
			if k.b <= c.b && k.l <= c.l &&
				(k.b < c.b || k.l < c.l || (k.b == c.b && k.l == c.l && k.rank < c.rank)) {
				beaten = true
				break
			}
		}
		if !beaten {
			out = append(out, c)
		}
	}
	sort.Slice(out, func(i, j int) bool { return out[i].b < out[j].b })
	return out
}

// TestSweepFrontierOrderIndependence is the staircase's core contract:
// for randomized populations dense with exact dual ties, every offer
// permutation — including the lexicographic and colexicographic orders
// the two enumerators use — yields the same staircase, and that
// staircase equals both the brute-force minima and the sorted reference
// (paretoFrontier fed in rank order).
func TestSweepFrontierOrderIndependence(t *testing.T) {
	rng := rand.New(rand.NewSource(7))
	for trial := 0; trial < 200; trial++ {
		n := 1 + rng.Intn(40)
		pop := make([]synthCand, n)
		for i := range pop {
			// Tiny value alphabets force duplicate metrics and dual ties.
			pop[i] = synthCand{
				b:    float64(1 + rng.Intn(4)),
				l:    float64(1+rng.Intn(5)) * 0.25,
				rank: i, // rank = position in the canonical (lex) order
			}
		}
		want := bruteMinima(pop)

		// The sorted reference: candidates presented in rank order.
		cands := make([]*Candidate, n)
		for i, c := range pop {
			cands[i] = &Candidate{BComp: c.b, LComm: c.l}
		}
		ref := paretoFrontier(cands)
		if len(ref) != len(want) {
			t.Fatalf("trial %d: sorted reference kept %d, brute force %d", trial, len(ref), len(want))
		}
		for i, c := range ref {
			if c.BComp != want[i].b || c.LComm != want[i].l || c != cands[want[i].rank] {
				t.Fatalf("trial %d: sorted reference diverged from brute force at %d", trial, i)
			}
		}

		for perm := 0; perm < 8; perm++ {
			order := rng.Perm(n)
			if perm == 0 {
				for i := range order {
					order[i] = i // lexicographic arrival
				}
			}
			if perm == 1 {
				for i := range order {
					order[i] = n - 1 - i // anti-lexicographic arrival
				}
			}
			f := &sweepFrontier{}
			for _, i := range order {
				f.push(pop[i].b, pop[i].l, pop[i].rank)
			}
			if len(f.entries) != len(want) {
				t.Fatalf("trial %d perm %d: staircase kept %d, want %d", trial, perm, len(f.entries), len(want))
			}
			for i, e := range f.entries {
				if e.cand.BComp != want[i].b || e.cand.LComm != want[i].l || e.rank != want[i].rank {
					t.Fatalf("trial %d perm %d: entry %d = (%v, %v, rank %d), want (%v, %v, rank %d)",
						trial, perm, i, e.cand.BComp, e.cand.LComm, e.rank, want[i].b, want[i].l, want[i].rank)
				}
			}
		}
	}
}

// TestSweepFrontierStaircaseShape pins the structural invariant the
// admit/insert pair maintains: entries strictly increasing in BComp and
// strictly decreasing in LComm, with no duplicates.
func TestSweepFrontierStaircaseShape(t *testing.T) {
	rng := rand.New(rand.NewSource(11))
	f := &sweepFrontier{}
	for i := 0; i < 500; i++ {
		f.push(rng.Float64()*4, rng.Float64()*4, i)
		for j := 1; j < len(f.entries); j++ {
			a, b := f.entries[j-1].cand, f.entries[j].cand
			if !(a.BComp < b.BComp && a.LComm > b.LComm) {
				t.Fatalf("step %d: staircase broken at %d: (%v,%v) then (%v,%v)",
					i, j, a.BComp, a.LComm, b.BComp, b.LComm)
			}
		}
	}
}

// TestSweepFrontierRandomGraphParity extends the deterministic matrix
// with randomized graphs: operator loads drawn from a small alphabet
// (duplicating real transformer uniformity) plus zero-load operators,
// swept across every enumerator × reduction combination.
func TestSweepFrontierRandomGraphParity(t *testing.T) {
	rng := rand.New(rand.NewSource(3))
	variants := plannerVariants()
	for trial := 0; trial < 12; trial++ {
		numOps := 6 + rng.Intn(8)
		g := zeroLoadGraph(numOps, 0)
		for i := range g.Ops {
			switch rng.Intn(3) {
			case 0:
				g.Ops[i].FLOPs, g.Ops[i].Bytes = 0, 0 // reshape/cast-like
			case 1:
				g.Ops[i].FLOPs = 2e12
			}
		}
		n := 4 << rng.Intn(3)
		s := 1 + rng.Intn(numOps)
		if s > n {
			s = n
		}
		gr := grid(g.Name, 64, "A40", n, s)
		want, err := variants[0].plan(g, gr)
		if err != nil {
			t.Fatalf("trial %d %v: %v", trial, gr, err)
		}
		for _, v := range variants[1:] {
			got, err := v.plan(g, gr)
			if err != nil {
				t.Fatalf("trial %d %v: %s: %v", trial, gr, v.name, err)
			}
			if !reflect.DeepEqual(got, want) {
				t.Fatalf("trial %d %v: %s diverged from %s", trial, gr, v.name, variants[0].name)
			}
		}
	}
}
