package sim

import "github.com/sjtu-epcc/arena/internal/sched"

// The event classes, in same-instant processing order. Completions beat
// fault events at the same instant — a job that finishes exactly when
// its node crashes has finished (internal/faults' kindRank orders
// crashes last among faults for the same reason).
const (
	classCompletion uint8 = iota
	classFault
)

// event is one entry of the simulator's unified event heap: a predicted
// job completion, or the next pending fault event from the materialized
// fault schedule.
//
// Completion entries are lazily deleted: any rate change bumps the job's
// epoch and pushes a fresh prediction, so an entry is live only while
// its epoch matches the job's. Stale entries pop and are skipped —
// cheaper than in-place heap repair, and the epoch check makes the skip
// O(1).
type event struct {
	at    float64
	class uint8
	// seq totally orders same-instant events of the same class:
	// completions carry the job's rate-change sequence number, fault
	// entries their schedule index (the schedule is pre-sorted by time,
	// then kind rank). A total order is what makes the event sequence —
	// and therefore every order-dependent float accumulation —
	// independent of the heap's internal layout.
	seq   uint64
	job   *sched.Job // completion entries
	epoch uint64     // completion entries: liveness check
	fault int        // fault entries: index into state.events
}

// eventHeap is a binary min-heap of events ordered by (at, class, seq).
type eventHeap []event

func (h eventHeap) less(i, j int) bool {
	a, b := h[i], h[j]
	if a.at != b.at {
		return a.at < b.at
	}
	if a.class != b.class {
		return a.class < b.class
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(ev event) {
	*h = append(*h, ev)
	i := len(*h) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		(*h)[i], (*h)[parent] = (*h)[parent], (*h)[i]
		i = parent
	}
}

func (h *eventHeap) pop() event {
	old := *h
	top := old[0]
	n := len(old) - 1
	old[0] = old[n]
	old[n] = event{} // drop the job pointer so retired jobs can be collected
	*h = old[:n]
	i := 0
	for {
		l, r := 2*i+1, 2*i+2
		small := i
		if l < n && h.less(l, small) {
			small = l
		}
		if r < n && h.less(r, small) {
			small = r
		}
		if small == i {
			break
		}
		(*h)[i], (*h)[small] = (*h)[small], (*h)[i]
		i = small
	}
	return top
}

// pushFault publishes the fault-schedule entry at index idx.
func (s *state) pushFault(idx int) {
	s.heap.push(event{at: s.events[idx].Time, class: classFault, seq: uint64(idx), fault: idx})
}

// advance is the event core: it processes every due event — completions
// at their predicted instants, fault events at theirs — up to and
// including t, in global (time, completion-before-fault, sequence) order,
// popping the heap until its front lies beyond t. Between-round work is
// O(events · log heap), with no per-event rescan of the running set. The
// fault stream is merged into the same heap one entry at a time (the
// schedule is already sorted, so a single cursor entry suffices); popping
// a fault event publishes its successor.
func (s *state) advance(t float64) {
	for len(s.heap) > 0 && s.heap[0].at <= t {
		ev := s.heap.pop()
		s.work.events++
		switch ev.class {
		case classCompletion:
			if ev.job.Slot == 0 || s.simFor(ev.job).epoch != ev.epoch {
				continue // stale prediction (or a retired job), lazily deleted
			}
			s.materialize(ev.job, ev.at)
			s.complete(ev.job, ev.at)
		case classFault:
			fe := s.events[ev.fault]
			s.evIdx = ev.fault + 1
			if s.evIdx < len(s.events) {
				s.pushFault(s.evIdx)
			}
			s.applyFault(fe)
		}
	}
}
