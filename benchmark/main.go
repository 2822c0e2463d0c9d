// Command benchmark runs one Arena workload end to end, prints its
// end-to-end metrics and checks its outputs. With -trace 1 it also runs
// the workload once more with a span around every layer call and prints
// the per-layer metrics. See README.md for the workloads and metrics.
//
//	go run . -workload sim-helios-deep [-seed 7] [-seconds 8] [-trace 1]
//
// The last line of standard output is one JSON object:
//
//	{"correct": true, "attempted": N, "failed": 0, "metrics": {...}}
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"math"
	"os"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"slices"
	"strings"
	"syscall"
	"time"

	"github.com/sjtu-epcc/arena/internal/metrics"
	"github.com/sjtu-epcc/arena/internal/rng"
)

// config is one invocation.
type config struct {
	workload string
	seed     uint64
	seconds  float64 // measured window; set-up repeats for a tenth of it
	trace    bool
	scale    float64 // input size relative to the defined workload
	dir      string  // scratch space for stores
	spans    string  // where -trace 1 writes its spans
}

// result is what a workload measured and checked.
type result struct {
	setup  []float64 // seconds per set-up
	passes []float64 // seconds per untraced pass
	ops    opStats   // ms per operation
	// attempted and failed count the workload's operations: simulations,
	// HTTP requests, rounds and recoveries, or database builds.
	attempted, failed int
	problems          []string  // failed correctness checks
	info              []metric  // workload-specific figures, printed only
	heapMB, allocMB   []float64 // per untraced pass
	gcs               []float64

	// Trace mode only.
	rec        *recorder
	tracedPass float64            // seconds of the traced pass, checks excluded
	refPass    float64            // seconds of the untraced pass it compares to
	figures    map[string]float64 // per-layer figures beyond count and self time
}

func (r *result) check(ok bool, format string, args ...any) {
	if !ok {
		r.problems = append(r.problems, fmt.Sprintf(format, args...))
	}
}

// opStats keeps the latency percentiles of every untraced pass, and a
// run reports their medians, so a pass caught in a slow spell of the
// machine moves them no more than it moves pass_s. Only the percentiles
// are kept: raw latencies kept from pass to pass would grow the live
// heap that peak_heap_mb measures.
type opStats struct {
	n             int // operations over all passes
	p50, p90, p99 []float64
}

func (s *opStats) add(ms []float64) {
	s.n += len(ms)
	s.p50 = append(s.p50, metrics.Percentile(ms, 0.50))
	s.p90 = append(s.p90, metrics.Percentile(ms, 0.90))
	s.p99 = append(s.p99, metrics.Percentile(ms, 0.99))
}

func (r *result) figure(name string, v float64) {
	if r.figures == nil {
		r.figures = map[string]float64{}
	}
	r.figures[name] = v
}

type metric struct {
	name  string
	value float64
	unit  string
}

// layers lists the layers every traced run reports. A layer a workload
// does not reach reads 0.
var layers = []string{
	"trace.next",
	"sim.pre_assign", "sched.assign", "sim.post_assign", "sim.finish",
	"client.http", "http.submit", "http.get_job",
	"server.step.pre_assign", "server.step.post_assign",
	"server.replay", "server.replay.assign",
	"store.open_journal", "store.journal_append",
	"profiler.comm_sample", "model.build_graph", "planner.plan_grid",
	"profiler.profile_grid_plan", "exec.evaluate_dp", "search.full", "search.pruned",
}

// layerExtras lists the per-layer figures beyond count and self time.
var layerExtras = []struct{ name, unit string }{
	{"sched.assign.queued_seen", "count"},
	{"sched.assign.placed", "count"},
	{"sched.assign.place_ratio", "ratio"},
	{"planner.plan_grid.feasible", "count"},
	{"store.journal.bytes", "bytes"},
	{"evalcache.stage_hit_ratio", "ratio"},
	{"evalcache.plan_hit_ratio", "ratio"},
	{"go.alloc_mb", "MB"},
	{"go.gc.count", "count"},
	{"trace.overhead_pct", "%"},
	{"trace.unattributed_pct", "%"},
}

type workload struct {
	name string
	run  func(ctx context.Context, c config) (*result, error)
}

var workloads = []workload{
	{"sim-helios-deep", heliosDeep.run},
	{"sim-helios-light", heliosLight.run},
	{"daemon-philly", phillyDaemon.run},
	{"perfdb-cold", perfdbCold},
}

func main() {
	if err := run(os.Args[1:], os.Stdout); err != nil {
		fmt.Fprintln(os.Stderr, "benchmark:", err)
		os.Exit(1)
	}
}

// run parses args, runs one workload, and prints its metrics to w.
func run(args []string, w io.Writer) error {
	fs := flag.NewFlagSet("benchmark", flag.ContinueOnError)
	var c config
	var traceFlag int
	fs.StringVar(&c.workload, "workload", "", "workload to run: "+workloadNames())
	fs.Uint64Var(&c.seed, "seed", 7, "workload seed (11 is the held-out seed)")
	fs.Float64Var(&c.seconds, "seconds", 8, "measured window in seconds: passes run until it is over")
	fs.IntVar(&traceFlag, "trace", 0, "1 adds a traced pass and prints per-layer metrics instead of end-to-end ones")
	fs.Float64Var(&c.scale, "scale", 1, "input size relative to the defined workload (smoke tests use 0.01)")
	fs.StringVar(&c.dir, "dir", ".bench_build", "scratch directory for stores and spans")
	fs.StringVar(&c.spans, "spans", "", "file for the traced pass's spans (default <dir>/spans-<workload>-<seed>.json)")
	cpuprofile := fs.String("cpuprofile", "", "write a CPU profile of the whole run to this file")
	memprofile := fs.String("memprofile", "", "write a heap profile at exit to this file")
	if err := fs.Parse(args); err != nil {
		return err
	}
	if fs.NArg() > 0 {
		return fmt.Errorf("unexpected arguments %q", fs.Args())
	}
	if traceFlag != 0 && traceFlag != 1 {
		return fmt.Errorf("-trace is 0 or 1, not %d", traceFlag)
	}
	c.trace = traceFlag == 1
	if c.scale <= 0 || c.seconds < 0 {
		return fmt.Errorf("-scale must be positive and -seconds non-negative")
	}
	if c.spans == "" {
		c.spans = filepath.Join(c.dir, fmt.Sprintf("spans-%s-%d.json", c.workload, c.seed))
	}
	var wl *workload
	for i := range workloads {
		if workloads[i].name == c.workload {
			wl = &workloads[i]
		}
	}
	if wl == nil {
		return fmt.Errorf("unknown -workload %q (want one of %s)", c.workload, workloadNames())
	}
	if err := os.MkdirAll(c.dir, 0o755); err != nil {
		return err
	}

	if *cpuprofile != "" {
		f, err := os.Create(*cpuprofile)
		if err != nil {
			return err
		}
		defer f.Close()
		if err := pprof.StartCPUProfile(f); err != nil {
			return err
		}
		defer pprof.StopCPUProfile()
	}

	fmt.Fprintf(w, "# workload=%s seed=%d seconds=%g trace=%d scale=%g\n", c.workload, c.seed, c.seconds, traceFlag, c.scale)
	fmt.Fprintf(w, "# cpu: nproc=%d gomaxprocs=%d go=%s model=%q\n", runtime.NumCPU(), runtime.GOMAXPROCS(0), runtime.Version(), cpuModel())
	res, err := wl.run(context.Background(), c)
	if err != nil {
		return err
	}
	if *memprofile != "" {
		if err := writeHeapProfile(*memprofile); err != nil {
			return err
		}
	}
	if c.trace {
		if err := res.rec.writeSpans(c.spans, c.workload, c.seed); err != nil {
			return err
		}
		fmt.Fprintf(w, "# spans: %s\n", c.spans)
	}
	return report(w, c, res)
}

// report prints every metric as "name value unit", the failed checks,
// and the result line. A failed check makes run return an error after
// the result line is out.
func report(w io.Writer, c config, res *result) error {
	e2e := []metric{
		{"setup_s", median(res.setup), "s"},
		{"pass_s", median(res.passes), "s"},
		{"op_ms_p50", median(res.ops.p50), "ms"},
		{"op_ms_p90", median(res.ops.p90), "ms"},
		{"peak_heap_mb", median(res.heapMB), "MB"},
	}
	fmt.Fprintf(w, "# %d set-ups, %d passes, %d operations\n", len(res.setup), len(res.passes), res.ops.n)
	fmt.Fprintf(w, "# pass seconds: %s\n", strings.Trim(fmt.Sprint(res.passes), "[]"))
	for _, m := range e2e {
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
	}
	// Printed, not bounded: p99 does not repeat within a tenth between two
	// sets of runs on the reference machine, and RSS moves with GC timing.
	printed := append(res.info,
		metric{"op_ms_p99", median(res.ops.p99), "ms"},
		metric{"peak_rss_mb", peakRSSMB(), "MB"})
	for _, m := range printed {
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
	}
	out := e2e
	if c.trace {
		out = perLayer(w, res)
	}
	for _, p := range res.problems {
		fmt.Fprintln(w, "# check failed:", p)
	}
	correct := len(res.problems) == 0 && res.failed == 0
	type value struct {
		Value float64 `json:"value"`
		Unit  string  `json:"unit"`
	}
	line := struct {
		Correct   bool             `json:"correct"`
		Attempted int              `json:"attempted"`
		Failed    int              `json:"failed"`
		Metrics   map[string]value `json:"metrics"`
	}{correct, res.attempted, res.failed, map[string]value{}}
	for _, m := range out {
		if math.IsNaN(m.value) || math.IsInf(m.value, 0) {
			return fmt.Errorf("metric %s is %v", m.name, m.value)
		}
		line.Metrics[m.name] = value{m.value, m.unit}
	}
	data, err := json.Marshal(line)
	if err != nil {
		return err
	}
	fmt.Fprintln(w, string(data))
	if !correct {
		return fmt.Errorf("%d checks failed, %d of %d operations failed", len(res.problems), res.failed, res.attempted)
	}
	return nil
}

// perLayer prints the layer table and returns the per-layer metrics.
func perLayer(w io.Writer, res *result) []metric {
	sum := res.rec.summarize()
	wall := float64(sum.wall)
	fmt.Fprintf(w, "# traced wall %.4fs; layer self times cover %.2f%%\n", wall/1e9, 100*(1-float64(sum.unattributed)/wall))
	var out []metric
	for _, name := range layers {
		l := sum.layers[name]
		if l == nil {
			l = &layerStat{}
		}
		fmt.Fprintf(w, "# layer %-28s count=%-8d busy_s=%-10.4f self_s=%-10.4f p50_ms=%-9.4f p99_ms=%.4f\n",
			name, l.count, float64(l.busy)/1e9, float64(l.self)/1e9,
			metrics.Percentile(l.durs, 0.50), metrics.Percentile(l.durs, 0.99))
		out = append(out,
			metric{name + ".count", float64(l.count), "count"},
			metric{name + ".self_pct", 100 * float64(l.self) / wall, "%"})
	}
	for name := range sum.layers {
		if !slices.Contains(layers, name) {
			panic(fmt.Sprintf("span %q is not a listed layer", name))
		}
	}
	res.figure("trace.overhead_pct", 100*(res.tracedPass/res.refPass-1))
	res.figure("trace.unattributed_pct", 100*float64(sum.unattributed)/wall)
	res.figure("go.alloc_mb", median(res.allocMB))
	res.figure("go.gc.count", median(res.gcs))
	for _, x := range layerExtras {
		out = append(out, metric{x.name, res.figures[x.name], x.unit})
	}
	for _, m := range out {
		fmt.Fprintf(w, "%s %.6g %s\n", m.name, m.value, m.unit)
	}
	return out
}

// measure repeats a set-up fn until the window is over, at least three
// times, so that setup_s is a median even where one set-up outlasts the
// window. With no window (-seconds 0, a smoke run) it runs fn once.
func measure(seconds float64, fn func() error) error {
	start := time.Now()
	for i := 1; ; i++ {
		if err := fn(); err != nil {
			return err
		}
		if (i >= 3 || seconds <= 0) && time.Since(start).Seconds() >= seconds {
			return nil
		}
	}
}

// passSeed is the input seed of pass i. Each pass of a simulation draws
// its own trace, and each daemon pass its own queries, so a run's
// medians average over several inputs instead of hinging on one; the
// traced pass repeats pass 0.
func passSeed(seed uint64, i int) uint64 { return rng.Derive(seed, uint64(i)).Uint64() }

// runPasses runs untraced passes until the window is over, at least
// one, recording each one's wall seconds (fn's return value), peak live
// heap, allocation and GC cycles. Pass i always gets the same input, so
// a slower machine measures fewer of a seed's inputs, not other ones.
func (r *result) runPasses(seconds float64, fn func(i int) (float64, error)) error {
	start := time.Now()
	for i := 0; i == 0 || time.Since(start).Seconds() < seconds; i++ {
		runtime.GC() // each pass starts from the live heap alone
		liveHeap.reset()
		var wall float64
		alloc, gcs, err := memDelta(func() (err error) {
			wall, err = fn(i)
			return err
		})
		if err != nil {
			return err
		}
		r.passes = append(r.passes, wall)
		r.heapMB = append(r.heapMB, liveHeap.mb())
		r.allocMB = append(r.allocMB, alloc)
		r.gcs = append(r.gcs, gcs)
	}
	return nil
}

// timed runs fn and returns its wall seconds.
func timed(fn func() error) (float64, error) {
	start := time.Now()
	err := fn()
	return time.Since(start).Seconds(), err
}

// memDelta runs fn and returns the MB it allocated and the GC cycles it
// triggered.
func memDelta(fn func() error) (allocMB, gcs float64, err error) {
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	err = fn()
	runtime.ReadMemStats(&after)
	return float64(after.TotalAlloc-before.TotalAlloc) / 1e6, float64(after.NumGC - before.NumGC), err
}

func median(xs []float64) float64 { return metrics.Percentile(xs, 0.5) }

func ms(d time.Duration) float64 { return float64(d) / 1e6 }

func ratio(a, b int) float64 {
	if b == 0 {
		return 0
	}
	return float64(a) / float64(b)
}

// peakRSSMB is the process's peak resident set (VmHWM).
func peakRSSMB() float64 {
	var ru syscall.Rusage
	if err := syscall.Getrusage(syscall.RUSAGE_SELF, &ru); err != nil {
		return math.NaN()
	}
	return float64(ru.Maxrss) * 1024 / 1e6 // Maxrss is in KiB on Linux
}

// cpuModel names the processor, for the CPU regime line.
func cpuModel() string {
	data, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, line := range strings.Split(string(data), "\n") {
		if k, v, ok := strings.Cut(line, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}

func writeHeapProfile(path string) error {
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	runtime.GC()
	if err := pprof.WriteHeapProfile(f); err != nil {
		f.Close()
		return err
	}
	return f.Close()
}

func workloadNames() string {
	var names []string
	for _, wl := range workloads {
		names = append(names, wl.name)
	}
	return strings.Join(names, ", ")
}
