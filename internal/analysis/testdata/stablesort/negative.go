package fixture

import (
	"cmp"
	"slices"
	"sort"
)

type item struct {
	key string
	n   int
}

// A tie-break chain ending in a strict final discriminator is the
// proven total-order shape.
func chained(xs []item) {
	sort.Slice(xs, func(i, j int) bool {
		a, b := xs[i], xs[j]
		if a.key != b.key {
			return a.key < b.key
		}
		return a.n < b.n
	})
}

// The expanded two-sided spelling of the same chain.
func twoSided(xs []item) {
	sort.Slice(xs, func(i, j int) bool {
		if xs[i].key < xs[j].key {
			return true
		}
		if xs[j].key < xs[i].key {
			return false
		}
		return xs[i].n < xs[j].n
	})
}

// SliceStable preserves a deterministic input order on ties.
func stable(xs []item) {
	sort.SliceStable(xs, func(i, j int) bool { return xs[i].n < xs[j].n })
}

// slices.SortStableFunc keeps equal elements in input order.
func stableFunc(xs []item) {
	slices.SortStableFunc(xs, func(a, b item) int { return cmp.Compare(a.n, b.n) })
}

// slices.Sort orders values that are equal only when indistinguishable.
func sortValues(ns []int) {
	slices.Sort(ns)
}
