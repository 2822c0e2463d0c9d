package sim

import (
	"context"
	"encoding/json"
	"fmt"
	"os"
	"slices"
	"testing"

	"github.com/sjtu-epcc/arena/internal/faults"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// compactQueue is the filter the dequeue replaced, kept as its oracle:
// it read every queued job's state after any launch or drop and kept the
// jobs still StateQueued, in order.
func compactQueue(queued []*sched.Job) []*sched.Job {
	var q []*sched.Job
	for _, j := range queued {
		if j.State == sched.StateQueued {
			q = append(q, j)
		}
	}
	return q
}

// FuzzDequeue decodes the input into one apply's queue traffic. It
// builds a queue in ascending QueueSeq whose stamps have gaps, each gap
// the stamp of a job that has since left the queue; then some queued
// jobs launch or drop, each found by queuePos in the order the input
// gives, as apply finds them; then jobs are requeued behind them, as a
// failed migration or rescale requeues one; then the dequeue runs. The
// queue must be what compactQueue leaves, its vacated tail cleared, and
// queuePos must find every queued job at its position and neither a job
// that left, a pending one, nor a copy of a queued one.
func FuzzDequeue(f *testing.F) {
	f.Add([]byte{8, 0, 1, 0, 2, 1, 3, 0, 0, 2, 1, 3, 0, 1, 2})
	f.Add([]byte{40, 1, 0, 0, 1, 1, 0, 2, 2, 0, 1, 0, 1, 3, 1, 0, 0, 0, 1, 2, 3})
	f.Add([]byte{1, 0, 0, 3})
	f.Fuzz(func(t *testing.T, data []byte) {
		next := func() int {
			if len(data) == 0 {
				return 0
			}
			b := data[0]
			data = data[1:]
			return int(b)
		}
		s := &state{}
		job := func(kind string, i int) *sched.Job {
			return &sched.Job{Trace: trace.Job{ID: fmt.Sprintf("%s%d", kind, i)}, State: sched.StateQueued}
		}
		pending := job("pending", 0)
		var left []*sched.Job // stamped, then gone from the queue
		for i, n := 0, next()%64; i < n; i++ {
			for gap := next() % 3; gap > 0; gap-- {
				j := job("left", len(left))
				s.enqueue(j)
				j.State = sched.StateFinished
				left = append(left, j)
			}
			s.enqueue(job("q", i))
		}
		s.queued = compactQueue(s.queued)

		var leaving []*sched.Job
		for _, j := range s.queued {
			if next()%3 == 0 {
				leaving = append(leaving, j)
			}
		}
		for i := len(leaving) - 1; i > 0; i-- {
			k := next() % (i + 1)
			leaving[i], leaving[k] = leaving[k], leaving[i]
		}
		var gone []int
		for _, j := range leaving {
			pos := s.queuePos(j)
			if pos < 0 || s.queued[pos] != j {
				t.Fatalf("queuePos(%s) = %d", j.Trace.ID, pos)
			}
			gone = append(gone, pos)
			j.State = sched.StateRunning
			if next()%2 == 0 {
				j.State = sched.StateDropped
			}
			left = append(left, j)
		}
		for i, n := 0, next()%4; i < n; i++ {
			s.enqueue(job("requeued", i))
		}

		want := compactQueue(s.queued)
		before := s.queued
		s.dequeue(gone)
		if !slices.Equal(s.queued, want) {
			t.Fatalf("dequeue of positions %v left %d jobs, compactQueue %d", gone, len(s.queued), len(want))
		}
		for i, j := range before[len(s.queued):] {
			if j != nil {
				t.Fatalf("vacated queue slot %d still holds %s", len(s.queued)+i, j.Trace.ID)
			}
		}
		for i, j := range s.queued {
			if got := s.queuePos(j); got != i {
				t.Fatalf("queuePos(%s) = %d, at %d", j.Trace.ID, got, i)
			}
			if twin := *j; s.queuePos(&twin) != -1 {
				t.Fatalf("queuePos found a copy of %s", j.Trace.ID)
			}
		}
		for _, j := range append(left, pending) {
			if got := s.queuePos(j); got != -1 {
				t.Fatalf("queuePos(%s), a job not queued, = %d", j.Trace.ID, got)
			}
		}
	})
}

// TestCrashPreemptsInIDOrder fails a node under two jobs that launched
// in the order opposite to their IDs, beside a job on another node: the
// two are preempted and requeued in ID order (their QueueSeqs say in
// which order they were requeued), and the third keeps running.
func TestCrashPreemptsInIDOrder(t *testing.T) {
	crash := faults.Schedule{{Time: 700, Kind: faults.Crash, GPUType: "A40", Node: 0}}
	p := &scriptPolicy{thr: 1}
	e, err := NewEngine(Config{
		Spec: hw.ClusterA(), Policy: p, DB: db(t), MaxRounds: 10,
		Faults: &faults.Config{Trace: crash},
	})
	if err != nil {
		t.Fatal(err)
	}
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	j := map[string]*sched.Job{}
	for _, id := range []string{"a", "b", "c"} {
		j[id] = e.Submit(trace.Job{ID: id, Workload: w, Iterations: 1e6, ReqGPUs: 1, ReqType: "A40", Priority: 1}, 0)
	}
	one, two := sched.Alloc{GPUType: "A40", N: 1}, sched.Alloc{GPUType: "A40", N: 2}
	p.script = map[int]func(*sched.Context) sched.Assignment{
		// b takes node 0 and c node 1; a, a round later, the rest of node 0.
		0: fixed(sched.Assignment{Place: map[*sched.Job]sched.Alloc{j["b"]: one, j["c"]: two}}),
		1: fixed(sched.Assignment{Place: map[*sched.Job]sched.Alloc{j["a"]: one}}),
	}
	e.Round(0)
	e.Round(300)
	var running []string
	for _, r := range e.s.running {
		running = append(running, r.Trace.ID)
	}
	if !slices.Equal(running, []string{"b", "c", "a"}) {
		t.Fatalf("running %v before the crash, want [b c a]", running)
	}
	for id, node := range map[string]int{"a": 0, "b": 0, "c": 1} {
		if blocks := e.s.simFor(j[id]).blocks; len(blocks) != 1 || blocks[0].Node != node {
			t.Fatalf("%s holds %v, want one block on node %d", id, blocks, node)
		}
	}
	e.Round(900)
	var queued []string
	for _, q := range e.s.queued {
		queued = append(queued, q.Trace.ID)
	}
	if !slices.Equal(queued, []string{"a", "b"}) || j["a"].QueueSeq >= j["b"].QueueSeq {
		t.Fatalf("queue %v after the crash (QueueSeq a %d, b %d), want a requeued before b", queued, j["a"].QueueSeq, j["b"].QueueSeq)
	}
	for id, want := range map[string]int{"a": 1, "b": 1, "c": 0} {
		if got := j[id].Preemptions; got != want {
			t.Errorf("%s preempted %d times, want %d", id, got, want)
		}
	}
	if j["c"].State != sched.StateRunning || len(e.s.simFor(j["a"]).blocks) != 0 || len(e.s.simFor(j["b"]).blocks) != 0 {
		t.Errorf("after the crash c is %s; a holds %v and b %v", j["c"].State, e.s.simFor(j["a"]).blocks, e.s.simFor(j["b"]).blocks)
	}
}

// checkGrants checks the engine's hold on its jobs' grants and records:
// every running job holds blocks of its own type summing to its
// allocation, no queued job holds any, every slot belongs to one live
// job or to the free list, and the cluster's allocated GPUs on up nodes
// are exactly the running jobs' (a crash's victims left the down node
// when it failed).
func checkGrants(t *testing.T, name string, s *state) {
	t.Helper()
	held := map[string]int{}
	slots := map[uint32]string{}
	own := func(j *sched.Job) {
		if prev, dup := slots[j.Slot]; dup {
			t.Fatalf("%s: slot %d is %s's and %s's", name, j.Slot, prev, j.Trace.ID)
		}
		slots[j.Slot] = j.Trace.ID
	}
	for _, j := range s.running {
		if j.Slot == 0 {
			t.Fatalf("%s: running job %s has no slot", name, j.Trace.ID)
		}
		own(j)
		n := 0
		for _, b := range s.simFor(j).blocks {
			if b.GPUType != j.Alloc.GPUType {
				t.Fatalf("%s: %s runs on %v but holds %v", name, j.Trace.ID, j.Alloc, s.simFor(j).blocks)
			}
			n += b.GPUs
		}
		if n != j.Alloc.N {
			t.Fatalf("%s: %s runs on %v but holds %v", name, j.Trace.ID, j.Alloc, s.simFor(j).blocks)
		}
		held[j.Alloc.GPUType] += n
	}
	for _, j := range s.queued {
		if j.Slot == 0 {
			continue
		}
		own(j)
		if blocks := s.simFor(j).blocks; len(blocks) != 0 {
			t.Fatalf("%s: queued job %s holds %v", name, j.Trace.ID, blocks)
		}
	}
	for _, slot := range s.freeSlots {
		if prev, dup := slots[slot]; dup {
			t.Fatalf("%s: free slot %d is also %s's", name, slot, prev)
		}
		slots[slot] = "free"
	}
	if len(slots) != len(s.recs) {
		t.Fatalf("%s: %d records, %d of them live or free", name, len(s.recs), len(slots))
	}
	down := map[string]map[int]bool{}
	for _, ev := range s.events[:s.evIdx] {
		if down[ev.GPUType] == nil {
			down[ev.GPUType] = map[int]bool{}
		}
		switch ev.Kind {
		case faults.Crash:
			down[ev.GPUType][ev.Node] = true
		case faults.Recover:
			down[ev.GPUType][ev.Node] = false
		}
	}
	for _, r := range s.cfg.Spec.Regions {
		up := r.Nodes
		for _, isDown := range down[r.GPUType] {
			if isDown {
				up--
			}
		}
		used := up*hw.MustLookup(r.GPUType).GPUsPerNode - s.cluster.FreeGPUs(r.GPUType)
		if used != held[r.GPUType] {
			t.Fatalf("%s: %d %s GPUs allocated on up nodes, running jobs hold %d", name, used, r.GPUType, held[r.GPUType])
		}
	}
}

// TestEngineHoldsEachGrant runs golden configurations with and without
// faults, the crash storm among them, and checks the engine's grants
// and records (checkGrants) before every round's Assign and at the end.
// The cluster keeps no record of who holds what, so this is where a
// grant taken twice or never returned would show.
func TestEngineHoldsEachGrant(t *testing.T) {
	cfgs := exactGoldenConfigs(t)
	for _, name := range []string{"arena+storm", "fcfs+storm", "philly-6h/arena+faults", "philly-6h/sia+faults", "philly-6h/gavel+faults", "deep/elasticflow", "variant/ddl"} {
		cfg, ok := cfgs[name]
		if !ok {
			t.Fatalf("no golden configuration %s", name)
		}
		hook := &roundHook{Policy: cfg.Policy}
		cfg.Policy = hook
		e, err := NewEngine(cfg)
		if err != nil {
			t.Fatal(err)
		}
		hook.hook = func(int) bool {
			checkGrants(t, name, e.s)
			return true
		}
		if _, err := e.run(context.Background()); err != nil {
			t.Fatal(err)
		}
		checkGrants(t, name, e.s)
	}
}

// TestLaunchWhileHoldingPanics puts a running job back in the queued
// state with its grant still held and launches it: the engine must
// refuse, since a second grant would leak the first.
func TestLaunchWhileHoldingPanics(t *testing.T) {
	a40x2 := sched.Alloc{GPUType: "A40", N: 2}
	p := &scriptPolicy{thr: 1}
	e, err := NewEngine(Config{Spec: hw.ClusterA(), Policy: p, DB: db(t), MaxRounds: 10})
	if err != nil {
		t.Fatal(err)
	}
	j := e.Submit(trace.Job{ID: "j", Workload: model.Workload{Model: "WRes-1B", GlobalBatch: 256}, Iterations: 1e6, ReqGPUs: 2, ReqType: "A40", Priority: 1}, 0)
	p.script = map[int]func(*sched.Context) sched.Assignment{
		0: fixed(sched.Assignment{Place: map[*sched.Job]sched.Alloc{j: a40x2}}),
	}
	e.Round(0)
	if j.State != sched.StateRunning {
		t.Fatalf("job %s, want running", j.State)
	}
	j.State = sched.StateQueued
	defer func() {
		if recover() == nil {
			t.Fatal("a job holding a grant launched again")
		}
	}()
	e.s.launch(300, j, a40x2)
}

const workPath = "testdata/work.json"

// ledgerRow is one run's work ledger as testdata/work.json holds it.
type ledgerRow struct {
	EventsPopped     int `json:"events_popped"`
	QueueProbes      int `json:"queue_probes"`
	QueueMoved       int `json:"queue_moved"`
	EligibilityReads int `json:"eligibility_reads"`
}

// TestWorkLedger runs three golden configurations — a deep queue under
// Arena, a faulted streamed Philly trace under Arena, and a 10k-job
// Helios day under FCFS — and compares the engine's work ledger with
// testdata/work.json exactly. The counts are deterministic, so a change
// that moves one, on any host, says so here; a change meant to move
// them re-records the file with -update and lists the counts that moved.
// Each run must finish a job, or its counts measure an empty schedule.
func TestWorkLedger(t *testing.T) {
	cfgs := exactGoldenConfigs(t)
	got := map[string]ledgerRow{}
	for _, name := range []string{"deep/arena", "philly-6h/arena+faults", "helios-10k/fcfs"} {
		e, err := NewEngine(cfgs[name])
		if err != nil {
			t.Fatal(err)
		}
		res, err := e.run(context.Background())
		if err != nil {
			t.Fatal(err)
		}
		if res.Summary.Finished == 0 {
			t.Errorf("%s finished no job", name)
		}
		w := e.s.work
		got[name] = ledgerRow{
			EventsPopped:     w.events,
			QueueProbes:      w.queueProbes,
			QueueMoved:       w.queueMoved,
			EligibilityReads: w.eligible,
		}
	}
	if *updateGolden {
		data, err := json.MarshalIndent(got, "", "  ")
		if err != nil {
			t.Fatal(err)
		}
		if err := os.WriteFile(workPath, append(data, '\n'), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(workPath)
	if err != nil {
		t.Fatal(err)
	}
	var want map[string]ledgerRow
	if err := json.Unmarshal(data, &want); err != nil {
		t.Fatal(err)
	}
	for name, g := range got {
		if g != want[name] {
			t.Errorf("%s: work %+v, ledger %+v", name, g, want[name])
		}
	}
	if len(got) != len(want) {
		t.Errorf("%d runs, %d in the ledger", len(got), len(want))
	}
}
