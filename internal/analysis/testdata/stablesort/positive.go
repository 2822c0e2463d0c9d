package fixture

import (
	"cmp"
	"slices"
	"sort"
)

type cand struct {
	score float64
	rank  int
}

// The PR 5 frontier bug: a bare metric comparator lets pdqsort pick an
// arbitrary survivor among equal scores.
func rankBare(cs []cand) {
	sort.Slice(cs, func(i, j int) bool { return cs[i].score > cs[j].score }) // want `sort.Slice without a tie-break chain`
}

// An opaque less func proves nothing about the order.
func rankOpaque(cs []cand, less func(i, j int) bool) {
	sort.Slice(cs, less) // want `sort.Slice with an opaque less func`
}

// A guard chain whose final comparison is non-strict violates the sort
// contract outright, so it is not accepted as a chain.
func rankNonStrict(cs []cand) {
	sort.Slice(cs, func(i, j int) bool { // want `sort.Slice without a tie-break chain`
		if cs[i].score != cs[j].score {
			return cs[i].score > cs[j].score
		}
		return cs[i].rank <= cs[j].rank
	})
}

// slices.SortFunc is pdqsort as well: whatever its cmp func, equal
// elements land in an arbitrary order.
func rankSortFunc(cs []cand) {
	slices.SortFunc(cs, func(a, b cand) int { return cmp.Compare(b.score, a.score) }) // want `slices.SortFunc is unstable`
}

// An explicitly instantiated call is the same call, with one type
// argument or both.
func rankSortFuncInstantiated(cs []cand) {
	slices.SortFunc[[]cand, cand](cs, func(a, b cand) int { return cmp.Compare(a.rank, b.rank) }) // want `slices.SortFunc is unstable`

	slices.SortFunc[[]cand](cs, func(a, b cand) int { // want `slices.SortFunc is unstable`
		if c := cmp.Compare(b.score, a.score); c != 0 {
			return c
		}
		return cmp.Compare(a.rank, b.rank)
	})
}
