package sim

import (
	"sort"
	"testing"

	"github.com/sjtu-epcc/arena/internal/rng"
)

// TestEventHeapPopOrderMatchesSort checks the event heap against the
// order it implements: a sort by (at, class, seq). Random interleavings
// of pushes and pops draw instants from a small alphabet, so same-instant
// events of both classes are common; seq is a random 64-bit value, unique
// per event in practice, as the engine's per-prediction counter and
// fault-schedule indices are, and unrelated to push order. Every pop must
// return the minimum of what a sorted copy holds.
func TestEventHeapPopOrderMatchesSort(t *testing.T) {
	r := rng.New(31)
	for trial := 0; trial < 200; trial++ {
		var h eventHeap
		var ref []event
		for step := 0; step < 80; step++ {
			if len(ref) == 0 || r.Intn(3) > 0 {
				ev := event{at: float64(r.Intn(6)) * 300, class: uint8(r.Intn(2)), seq: r.Uint64()}
				h.push(ev)
				ref = append(ref, ev)
				continue
			}
			sort.Slice(ref, func(i, j int) bool {
				a, b := ref[i], ref[j]
				if a.at != b.at {
					return a.at < b.at
				}
				if a.class != b.class {
					return a.class < b.class
				}
				return a.seq < b.seq
			})
			if got := h.pop(); got != ref[0] {
				t.Fatalf("trial %d step %d: popped %+v, sorted order gives %+v", trial, step, got, ref[0])
			}
			ref = ref[1:]
		}
		if len(h) != len(ref) {
			t.Fatalf("trial %d: heap holds %d events, reference %d", trial, len(h), len(ref))
		}
	}
}
