package evalcache

import (
	"math"
	"reflect"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
)

// rowCandidates lists every stage of g on up to maxGPUs GPUs, start-major
// as the search enumerates them: start, then end, then GPU count, then
// TP width.
func rowCandidates(g *model.Graph, maxGPUs int) []parallel.StagePlan {
	var sts []parallel.StagePlan
	for start := range len(g.Ops) {
		for end := start + 1; end <= len(g.Ops); end++ {
			for gpus := 1; gpus <= maxGPUs; gpus *= 2 {
				for tp := 1; tp <= gpus; tp *= 2 {
					sts = append(sts, parallel.StagePlan{OpStart: start, OpEnd: end, DP: gpus / tp, TP: tp})
				}
			}
		}
	}
	return sts
}

// bitsOf returns the bit patterns of m's fields, so that measurements
// compare bit for bit.
func bitsOf(m exec.StageMeasure) [6]uint64 {
	return [6]uint64{
		math.Float64bits(m.FwdCompute), math.Float64bits(m.BwdCompute), math.Float64bits(m.TPComm),
		math.Float64bits(m.Straggler), math.Float64bits(m.GradSync), math.Float64bits(m.ParamBytes),
	}
}

// TestMeasureRowsConcurrent runs four goroutines over one shard, each
// measuring the same start-major list in its own chunk size, as the
// search's workers do. They race for the same slots; the memo must end
// as a serial run leaves it, every read must count once, and the misses
// must be the distinct slots.
func TestMeasureRowsConcurrent(t *testing.T) {
	eng := exec.NewEngine(42)
	g := testGraph(t)
	spec := hw.MustLookup("A40")
	sts := rowCandidates(g, 8)
	want := make([]float64, len(sts))
	serial := New(eng).StageShard(g, spec, 0)
	serial.MeasureRows(sts, 16, want)

	c := New(eng)
	sh := c.StageShard(g, spec, 0)
	var wg sync.WaitGroup
	for _, chunk := range []int{1, 7, 50, len(sts)} {
		wg.Add(1)
		go func(chunk int) {
			defer wg.Done()
			times := make([]float64, len(sts))
			for lo := 0; lo < len(sts); lo += chunk {
				hi := min(lo+chunk, len(sts))
				sh.MeasureRows(sts[lo:hi], 16, times[lo:hi])
			}
			for i := range times {
				if math.Float64bits(times[i]) != math.Float64bits(want[i]) {
					t.Errorf("chunk %d: %+v latency %v, serial %v", chunk, sts[i], times[i], want[i])
					return
				}
			}
		}(chunk)
	}
	wg.Wait()

	if s := c.Stats(); s.StageMisses != len(sts) || s.StageHits+s.StageMisses != 4*len(sts) {
		t.Errorf("4 × %d reads of %d distinct slots counted %d hits and %d misses", len(sts), len(sts), s.StageHits, s.StageMisses)
	}
	if !reflect.DeepEqual(sh.stages, serial.stages) {
		t.Errorf("concurrent stage memo (%d shapes) differs from the serial one (%d)", len(sh.stages), len(serial.stages))
	}
	if len(sh.ops) != len(serial.ops) {
		t.Errorf("concurrent memo holds %d op contexts, the serial one %d", len(sh.ops), len(serial.ops))
	}
	for k, ref := range serial.ops {
		if got, ok := sh.ops[k]; !ok || !reflect.DeepEqual(got.vals, ref.vals) || !reflect.DeepEqual(got.have, ref.have) {
			t.Errorf("op context %+v differs from the serial one", k)
		}
	}
}

// FuzzMeasureRows measures fuzzed candidate lists through MeasureRows
// against eng.MeasureStage. The input picks the micro-batch size, the
// chunks the list is handed over in, and per candidate its op range, its
// (DP, TP) shape and whether Measure fills it first. The list keeps the
// input's order, so rows repeat, split across chunks and come with
// unsorted or repeated ends. Every latency MeasureRows returns and every
// measurement it stores must equal the engine's bit for bit, every read
// must count once, as a hit or a miss, and the misses must be the slots
// the calls filled.
func FuzzMeasureRows(f *testing.F) {
	eng := exec.NewEngine(42)
	full, err := model.Build("GPT-1.3B")
	if err != nil {
		f.Fatal(err)
	}
	g := full.Cluster(8)
	g.Name = "GPT-1.3B/8"
	spec := hw.MustLookup("A40")
	numOps := len(g.Ops)

	// Seeds: two start rows in enumeration order, one with a shape
	// repeated and ends unsorted, and a pre-filled list in chunks of 2.
	f.Add([]byte{16, 0, 0, 0, 0, 0, 1, 1, 0, 9, 0, 1, 0, 2, 2, 1, 0, 1, 1, 1, 1, 2, 1})
	f.Add([]byte{0x2f, 3, 2, 5, 1, 2, 2, 1, 2, 0, 1, 2, 5, 1, 2, 3, 7, 10})
	f.Add([]byte{7, 1, 0, 3, 0x81, 0, 3, 1, 0, 5, 0x82, 4, 1, 0, 4, 2, 0x81})

	f.Fuzz(func(t *testing.T, data []byte) {
		if len(data) < 2 {
			return
		}
		micro := float64(1+int(data[0]&31)) / float64(1+int(data[0]>>5))
		chunk := 1 + int(data[1])%16
		var sts []parallel.StagePlan
		var prefill []bool
		for data = data[2:]; len(data) >= 3; data = data[3:] {
			start := int(data[0]) % numOps
			end := start + 1 + int(data[1])%(numOps-start)
			lg := int(data[2]&7) % 5
			tp := 1 << ((int(data[2]>>3) & 7) % (lg + 1))
			sts = append(sts, parallel.StagePlan{OpStart: start, OpEnd: end, DP: (1 << lg) / tp, TP: tp})
			prefill = append(prefill, data[2]&0x80 != 0)
		}

		c := New(eng)
		sh := c.StageShard(g, spec, 0)
		filled := map[parallel.StagePlan]bool{}
		for i, st := range sts {
			if prefill[i] {
				sh.Measure(st, micro)
				filled[st] = true
			}
		}
		fresh := 0
		for _, st := range sts {
			if !filled[st] {
				filled[st] = true
				fresh++
			}
		}
		before := c.Stats()
		times := make([]float64, len(sts))
		for lo := 0; lo < len(sts); lo += chunk {
			hi := min(lo+chunk, len(sts))
			sh.MeasureRows(sts[lo:hi], micro, times[lo:hi])
		}
		after := c.Stats()
		hits, misses := after.StageHits-before.StageHits, after.StageMisses-before.StageMisses
		if hits+misses != len(sts) || misses != fresh {
			t.Fatalf("%d reads counted %d hits and %d misses, want %d misses", len(sts), hits, misses, fresh)
		}
		for i, st := range sts {
			want := eng.MeasureStage(g, st, spec, micro, spec.GPUsPerNode)
			if math.Float64bits(times[i]) != math.Float64bits(want.Time()) {
				t.Fatalf("%+v at micro %v: latency %v, engine %v", st, micro, times[i], want.Time())
			}
			if got := sh.Measure(st, micro); bitsOf(got) != bitsOf(want) {
				t.Fatalf("%+v at micro %v: stored %+v, engine %+v", st, micro, got, want)
			}
		}
		if s := c.Stats(); s.StageMisses != after.StageMisses {
			t.Fatalf("reading back the stored measurements missed %d times", s.StageMisses-after.StageMisses)
		}
	})
}
