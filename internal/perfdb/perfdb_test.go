package perfdb

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"math"
	"sync"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/model"
)

var (
	once   sync.Once
	testDB *DB
	bErr   error
)

func testWorkloads() []model.Workload {
	return []model.Workload{
		{Model: "WRes-1B", GlobalBatch: 256},
		{Model: "GPT-2.6B", GlobalBatch: 128},
		{Model: "MoE-2.4B", GlobalBatch: 256},
		{Model: "GPT-6.7B", GlobalBatch: 128},
	}
}

func db(t *testing.T) *DB {
	t.Helper()
	once.Do(func() {
		testDB, bErr = BuildCtx(context.Background(), exec.NewEngine(42), Options{
			GPUTypes:  []string{"A40", "A10"},
			MaxN:      16,
			Workloads: testWorkloads(),
		})
	})
	if bErr != nil {
		t.Fatal(bErr)
	}
	return testDB
}

func TestBuildCoversAllKeys(t *testing.T) {
	d := db(t)
	// 4 workloads × 2 types × 5 counts.
	if got := len(d.Keys()); got != 40 {
		t.Fatalf("%d entries, want 40", got)
	}
	for _, k := range d.Keys() {
		if _, ok := d.Entry(k.Workload, k.GPUType, k.N); !ok {
			t.Fatalf("missing entry %v", k)
		}
	}
}

func TestAPDominatesOrMatchesDP(t *testing.T) {
	// The AP optimum includes pure DP in its search space: wherever DP is
	// feasible, AP throughput must be at least as high.
	d := db(t)
	for _, k := range d.Keys() {
		dp := d.DPThr(k.Workload, k.GPUType, k.N)
		ap := d.APThr(k.Workload, k.GPUType, k.N)
		if dp > 0 && ap < dp*0.999 {
			t.Errorf("%v: AP %v below DP %v", k, ap, dp)
		}
	}
}

func TestCase2DemandOverestimation(t *testing.T) {
	// §2.2 Case#2: models with DP floors above their AP floors.
	d := db(t)
	w := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	dpMin := d.MinFeasibleDP(w, "A40")
	apMin := d.MinFeasibleAP(w, "A40")
	if apMin == 0 {
		t.Fatal("GPT-2.6B should run with AP on A40")
	}
	if dpMin != 0 && dpMin <= apMin {
		t.Errorf("DP floor %d should exceed AP floor %d", dpMin, apMin)
	}
	// The AP-only giant: DP fits nowhere.
	giant := model.Workload{Model: "GPT-6.7B", GlobalBatch: 128}
	for _, typ := range []string{"A40", "A10"} {
		if d.MinFeasibleDP(giant, typ) != 0 {
			t.Errorf("GPT-6.7B should have no DP floor on %s", typ)
		}
	}
	if d.MinFeasibleAP(giant, "A40") == 0 {
		t.Error("GPT-6.7B should be AP-schedulable on A40")
	}
}

func TestArenaEstimateAccuracy(t *testing.T) {
	// Arena's scheduling estimates stay within ~20% of what its deployed
	// plans achieve (profiling error, Fig. 16a).
	d := db(t)
	for _, k := range d.Keys() {
		est := d.ArenaEstThr(k.Workload, k.GPUType, k.N)
		act := d.ArenaActualThr(k.Workload, k.GPUType, k.N)
		if est <= 0 || act <= 0 {
			continue
		}
		ratio := est / act
		if ratio < 0.75 || ratio > 1.30 {
			t.Errorf("%v: estimate %v vs actual %v (ratio %.2f)", k, est, act, ratio)
		}
	}
}

func TestArenaActualNearAPOptimal(t *testing.T) {
	// §5.4: the pruned-search plan achieves ≈96% of the full-search one.
	d := db(t)
	var sum float64
	var count int
	for _, k := range d.Keys() {
		ap := d.APThr(k.Workload, k.GPUType, k.N)
		act := d.ArenaActualThr(k.Workload, k.GPUType, k.N)
		if ap <= 0 || act <= 0 {
			continue
		}
		sum += act / ap
		count++
	}
	if count == 0 {
		t.Fatal("no comparable entries")
	}
	if mean := sum / float64(count); mean < 0.88 {
		t.Errorf("mean pruned/full quality %.3f below 0.88", mean)
	}
}

func TestSiaEstOverestimatesAtScale(t *testing.T) {
	// §2.3: linear estimation error grows with GPU count.
	d := db(t)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	truth := d.APThr(w, "A40", 16)
	est := d.SiaEst(w, "A40", 16, 1)
	if truth <= 0 || est <= 0 {
		t.Fatal("expected feasible entries")
	}
	if est <= truth {
		t.Errorf("linear estimate %v should overestimate truth %v at 16 GPUs", est, truth)
	}
}

func TestSiaEtaKnob(t *testing.T) {
	d := db(t)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	// η=5 makes every entry up to 16 GPUs precise.
	if got, want := d.SiaEst(w, "A40", 16, 5), d.APThr(w, "A40", 16); got != want {
		t.Errorf("eta=5 estimate %v, want precise %v", got, want)
	}
	// η=1: only the floor is profiled; everything else linear.
	minN := d.MinFeasibleDP(w, "A40")
	if minN == 0 {
		t.Fatal("WRes-1B should fit DP on A40")
	}
	base := d.DPThr(w, "A40", minN)
	if got := d.SiaEst(w, "A40", 8, 1); got != base/float64(minN)*8 {
		t.Errorf("linear extrapolation mismatch: %v", got)
	}
}

func TestSiaDPFloorHidesDenseAllocations(t *testing.T) {
	// Sia's DP-based view returns 0 below the DP floor even where AP runs.
	d := db(t)
	w := model.Workload{Model: "GPT-2.6B", GlobalBatch: 128}
	apMin := d.MinFeasibleAP(w, "A40")
	dpMin := d.MinFeasibleDP(w, "A40")
	if apMin == 0 || dpMin == 0 || apMin >= dpMin {
		t.Skip("fixture does not exhibit a floor gap on A40")
	}
	if d.SiaEst(w, "A40", apMin, 1) != 0 {
		t.Error("Sia should not see the dense AP-only allocation")
	}
}

func TestObservedRefinement(t *testing.T) {
	d := db(t)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	if d.ObservedThr(w, "A40", 4) != 0 {
		t.Fatal("fresh DB should have no observations")
	}
	d.Observe(w, "A40", 4, 123.4)
	if d.ObservedThr(w, "A40", 4) != 123.4 {
		t.Fatal("observation not recorded")
	}
}

func TestProfilingWallTimes(t *testing.T) {
	d := db(t)
	for _, w := range testWorkloads() {
		if d.ArenaProfileWall(w) <= 0 {
			t.Errorf("%v: no Arena profiling wall time", w)
		}
		if d.DPProfileWall(w) <= 0 {
			t.Errorf("%v: no DP profiling wall time", w)
		}
		if d.SiaProfileWall(w) <= 0 {
			t.Errorf("%v: no Sia profiling wall time", w)
		}
		// Arena's single-GPU grid profiling should be minutes, not hours
		// (§5.8: <20 minutes).
		if d.ArenaProfileWall(w) > 3600 {
			t.Errorf("%v: Arena profiling %vs too long", w, d.ArenaProfileWall(w))
		}
	}
}

func TestSearchTimes(t *testing.T) {
	d := db(t)
	w := model.Workload{Model: "WRes-1B", GlobalBatch: 256}
	full := d.SearchTimeFull(w, "A40", 8)
	pruned := d.SearchTimePruned(w, "A40", 8)
	if full <= 0 || pruned <= 0 {
		t.Fatal("missing search times")
	}
	if pruned >= full {
		t.Errorf("pruned search (%v) should undercut full (%v)", pruned, full)
	}
}

func TestMeanEstimationError(t *testing.T) {
	// The mean relative error of an estimator against the AP ground truth,
	// over the entries where both are positive (§2.3).
	d := db(t)
	meanErr := func(est func(model.Workload, string, int) float64) float64 {
		var sum float64
		var count int
		for _, k := range d.Keys() {
			truth := d.APThr(k.Workload, k.GPUType, k.N)
			e := est(k.Workload, k.GPUType, k.N)
			if truth <= 0 || e <= 0 {
				continue
			}
			sum += math.Abs(e-truth) / truth
			count++
		}
		if count == 0 {
			return 0
		}
		return sum / float64(count)
	}
	arenaErr := meanErr(d.ArenaEstThr)
	siaErr := meanErr(func(w model.Workload, typ string, n int) float64 {
		return d.SiaEst(w, typ, n, 1)
	})
	if arenaErr <= 0 || siaErr <= 0 {
		t.Fatal("errors should be positive")
	}
	if arenaErr >= siaErr {
		t.Errorf("Arena's estimation error (%.3f) should undercut Sia's linear one (%.3f)", arenaErr, siaErr)
	}
}

func TestBuildValidation(t *testing.T) {
	if _, err := BuildCtx(context.Background(), exec.NewEngine(1), Options{}); err == nil {
		t.Fatal("missing GPU types should error")
	}
}

func TestBuildDeterministic(t *testing.T) {
	opts := Options{
		GPUTypes:  []string{"A40"},
		MaxN:      4,
		Workloads: []model.Workload{{Model: "WRes-1B", GlobalBatch: 256}},
	}
	a, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	b, err := BuildCtx(context.Background(), exec.NewEngine(42), opts)
	if err != nil {
		t.Fatal(err)
	}
	for _, k := range a.Keys() {
		ea, _ := a.Entry(k.Workload, k.GPUType, k.N)
		eb, _ := b.Entry(k.Workload, k.GPUType, k.N)
		if *ea != *eb {
			t.Fatalf("entry %v differs across identical builds", k)
		}
	}
}

// uncachedSerialDigest is dbDigest of the storeTestOpts build of
// storeTestWorkloads, recorded from the uncached, fully serial build the
// memoized fan-out build replaced (the two were then compared field by
// field and matched).
const uncachedSerialDigest = "ab8c97aa3dd537cd5cf0c4e4cd6c805e2096ba72739844e2a6b0063d3d340075"

// dbDigest hashes a database's entries (throughputs, plans, modeled
// search times) in key order and its profiling wall-time accumulators in
// storeTestWorkloads order. JSON prints each float64 in its shortest
// round-tripping form, so equal digests mean bit-identical databases.
func dbDigest(t *testing.T, d *DB) string {
	t.Helper()
	type entryRow struct {
		Key   Key
		Entry Entry
	}
	type wallRow struct {
		Workload       string
		Arena, DP, Sia float64
	}
	var entries []entryRow
	for _, k := range d.Keys() {
		e, _ := d.Entry(k.Workload, k.GPUType, k.N)
		entries = append(entries, entryRow{k, *e})
	}
	var walls []wallRow
	for _, w := range storeTestWorkloads {
		walls = append(walls, wallRow{w.String(), d.ArenaProfileWall(w), d.DPProfileWall(w), d.SiaProfileWall(w)})
	}
	data, err := json.Marshal(struct {
		Entries []entryRow
		Walls   []wallRow
	}{entries, walls})
	if err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])
}

// TestCachedBuildMatchesUncachedSerial is the perfdb half of the
// memoization determinism guarantee: the memoized fan-out build
// reproduces, bit for bit, the database the pre-cache serial build
// produced — entries and profiling wall-time accumulators, pinned by
// uncachedSerialDigest. Update the digest only for a change that is
// meant to alter the database.
func TestCachedBuildMatchesUncachedSerial(t *testing.T) {
	d, err := BuildCtx(context.Background(), exec.NewEngine(42), storeTestOpts(storeTestWorkloads...))
	if err != nil {
		t.Fatal(err)
	}
	if got := dbDigest(t, d); got != uncachedSerialDigest {
		t.Fatalf("database digest %s, want %s", got, uncachedSerialDigest)
	}
}
