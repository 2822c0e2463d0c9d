package sched

import "sort"

// This file keeps Arena's launch order across rounds. Algorithm 1's
// launch phase takes queued jobs by ascending live priority, then
// SubmittedAt, then queue order (QueueSeq). Each (original priority,
// launch signature) pair gets a FIFO sorted by (SubmittedAt, QueueSeq):
// within one original priority the live priority
//
//	max(1, Trace.Priority − int((now − SubmittedAt)/PromoteAfter))
//
// never decreases as SubmittedAt grows, so every FIFO is already in
// launch order and a round's launch order is a lazy merge of the FIFO
// heads. The engine feeds the FIFOs the jobs that entered its queue
// (Context.Changes); departures need no list, because an entry is live
// only while its job is queued under the QueueSeq it was filed with.
// The launch phase then costs O(attempts · log k + entered jobs) for k
// FIFOs instead of O(queue): a signature whose launch failed leaves the
// merge in O(log k), and its queued jobs are never visited.

// queueEntry files one queued job: the job and the QueueSeq it entered
// the queue under (its position in Context.Queued for a context without
// Changes).
type queueEntry struct {
	job *Job
	seq uint64
}

// before is the FIFO order: SubmittedAt, then seq.
func (e queueEntry) before(o queueEntry) bool {
	if e.job.SubmittedAt != o.job.SubmittedAt {
		return e.job.SubmittedAt < o.job.SubmittedAt
	}
	return e.seq < o.seq
}

// launchFIFO holds the queued jobs of one original priority and launch
// signature, sorted by (SubmittedAt, seq). q[head:] are its entries,
// live and dead; next is the merge's position in q this round.
type launchFIFO struct {
	lad        *ladder
	prio       int // the entries' Trace.Priority
	q          []queueEntry
	head, next int
}

// mergeHead is a FIFO in the round's merge, keyed by its entry at next:
// the job's live priority, SubmittedAt and seq.
type mergeHead struct {
	prio int
	at   float64
	seq  uint64
	f    *launchFIFO
}

func (a mergeHead) before(b mergeHead) bool {
	if a.prio != b.prio {
		return a.prio < b.prio
	}
	if a.at != b.at {
		return a.at < b.at
	}
	return a.seq < b.seq
}

// livePrio is job's priority at now: §3.5's promotion ("a job priority λ
// is promoted to λ−1 after prolonged queuing"), one level per
// PromoteAfter seconds queued, never above the first queue.
func (p *ArenaPolicy) livePrio(now float64, j *Job) int {
	levels := 0
	if p.PromoteAfter > 0 {
		levels = int((now - j.SubmittedAt) / p.PromoteAfter)
	}
	return max(1, j.Trace.Priority-levels)
}

// syncQueue brings the FIFOs up to ctx.Queued: the jobs that entered,
// when ctx.Changes follows the round the FIFOs hold; nothing, when it is
// that round again; otherwise every queued job, filed from scratch. A
// context without Changes, another engine's Changes, a skipped round and
// a ladder-cache reset all rebuild.
func (p *ArenaPolicy) syncQueue(ctx *Context) {
	c := ctx.Changes
	if c != nil && c == p.changes && c.Round == p.round {
		return
	}
	if c != nil && c == p.changes && c.Round == p.round+1 {
		for _, j := range c.Entered {
			p.file(ctx, j, j.QueueSeq)
		}
	} else {
		for _, f := range p.fifos {
			clear(f.q)
			f.q, f.head, f.next = f.q[:0], 0, 0
		}
		p.entries = 0
		for i, j := range ctx.Queued {
			seq := j.QueueSeq
			if c == nil {
				seq = uint64(i)
			}
			p.file(ctx, j, seq)
		}
	}
	p.changes = c
	if c == nil {
		return
	}
	p.round = c.Round
	// Every queued job has one live entry, so dead entries outnumber live
	// ones past this bound; dropping them all then costs at most twice
	// the entries dropped.
	if p.entries > 2*len(ctx.Queued)+64 {
		p.entries = 0
		for _, f := range p.fifos {
			w := 0
			for _, e := range f.q[f.head:] {
				if p.live(e) {
					f.q[w] = e
					w++
				}
			}
			clear(f.q[w:])
			f.q, f.head, f.next = f.q[:w], 0, 0
			p.entries += w
		}
	}
}

// file enters job j into its FIFO under seq: appended when it sorts
// last, as admissions do, else inserted by binary search (requeues and
// submissions stamped in the past carry an older SubmittedAt).
func (p *ArenaPolicy) file(ctx *Context, j *Job, seq uint64) {
	lad := p.launchLadder(ctx, j)
	var f *launchFIFO
	for _, g := range lad.fifos {
		if g.prio == j.Trace.Priority {
			f = g
			break
		}
	}
	if f == nil {
		f = &launchFIFO{lad: lad, prio: j.Trace.Priority}
		lad.fifos = append(lad.fifos, f)
		p.fifos = append(p.fifos, f)
	}
	e := queueEntry{job: j, seq: seq}
	if f.head > 0 && 4*f.head >= len(f.q) {
		// A quarter of q is popped front: move the entries down into it
		// rather than grow. The move costs at most three entries per
		// popped slot.
		n := copy(f.q, f.q[f.head:])
		clear(f.q[n:])
		f.q, f.head = f.q[:n], 0
	}
	i := len(f.q)
	if i > f.head && e.before(f.q[i-1]) {
		i = f.head + sort.Search(i-f.head, func(k int) bool { return e.before(f.q[f.head+k]) })
	}
	f.q = append(f.q, queueEntry{})
	copy(f.q[i+1:], f.q[i:])
	f.q[i] = e
	p.entries++
}

// live reports whether e's job is still queued under the QueueSeq it was
// filed with. Without Changes the FIFOs are this call's Queued, all live.
func (p *ArenaPolicy) live(e queueEntry) bool {
	return p.changes == nil || (e.job.State == StateQueued && e.job.QueueSeq == e.seq)
}

// seek moves f.next to the first live entry at or after it, dropping
// dead entries at the front, and reports whether there is one.
func (p *ArenaPolicy) seek(f *launchFIFO) bool {
	for ; f.next < len(f.q); f.next++ {
		if p.live(f.q[f.next]) {
			return true
		}
		if f.next == f.head {
			f.q[f.head] = queueEntry{} // release the job
			f.head++
			p.entries--
		}
	}
	if f.head == len(f.q) {
		f.q, f.head, f.next = f.q[:0], 0, 0
	}
	return false
}

// keyOf keys entry e of FIFO f for the merge at instant now.
func (p *ArenaPolicy) keyOf(now float64, f *launchFIFO, e queueEntry) mergeHead {
	return mergeHead{prio: p.livePrio(now, e.job), at: e.job.SubmittedAt, seq: e.seq, f: f}
}

// rejoin moves parked FIFO f to its first live entry after merge
// position at and reports whether there is one. Keys grow along a FIFO,
// so the entry is found by binary search.
func (p *ArenaPolicy) rejoin(now float64, f *launchFIFO, at mergeHead) bool {
	rest := f.q[f.next:]
	f.next += sort.Search(len(rest), func(k int) bool { return at.before(p.keyOf(now, f, rest[k])) })
	return p.seek(f)
}

// mergeHeap is the round's merge: a binary min-heap of FIFO heads.
type mergeHeap []mergeHead

func (h *mergeHeap) push(m mergeHead) {
	*h = append(*h, m)
	s := *h
	for i := len(s) - 1; i > 0; {
		up := (i - 1) / 2
		if !s[i].before(s[up]) {
			break
		}
		s[i], s[up] = s[up], s[i]
		i = up
	}
}

// pop removes the top head.
func (h *mergeHeap) pop() {
	s := *h
	last := len(s) - 1
	s[0] = s[last]
	*h = s[:last]
	h.down()
}

// down restores the order after the top head's key grew.
func (h mergeHeap) down() {
	for i := 0; ; {
		best := i
		for _, c := range []int{2*i + 1, 2*i + 2} {
			if c < len(h) && h[c].before(h[best]) {
				best = c
			}
		}
		if best == i {
			return
		}
		h[i], h[best] = h[best], h[i]
		i = best
	}
}
