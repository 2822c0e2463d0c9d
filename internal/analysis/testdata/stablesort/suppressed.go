package fixture

import (
	"cmp"
	"slices"
	"sort"
)

// A reasoned suppression: uniqueness makes the single key total, which
// the chain shape cannot express.
func byUniqueKey(ids []string) {
	//arena:allow stablesort ids are unique by construction, the order is total
	sort.Slice(ids, func(i, j int) bool { return ids[i] < ids[j] })
}

// A reasoned suppression of slices.SortFunc.
func byUniqueKeyFunc(ids []string) {
	//arena:allow stablesort ids are unique by construction, the order is total
	slices.SortFunc(ids, func(a, b string) int { return cmp.Compare(a, b) })
}
