// Package cli holds the plumbing shared by the four arena command-line
// tools (arena-sim, arena-bench, arena-plan, arena-profile): the common
// -seed/-workers/-store flags, the -cpuprofile/-memprofile profiling
// flags, cluster and trace pickers, a signal-aware root context, and one
// error/warning path so every tool reports failures in the same format.
package cli

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"path/filepath"
	"runtime"
	"runtime/pprof"
	"syscall"

	arena "github.com/sjtu-epcc/arena"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Common carries the flags every arena tool spells identically.
type Common struct {
	// Seed is the determinism seed (-seed).
	Seed uint64
	// Workers bounds profiling/search/build worker pools; 0 = all cores
	// (-workers).
	Workers int
	// Store is the content-addressed measurement store directory
	// (-store): per-workload performance-database columns persist across
	// invocations, so a repeated run builds no column and adding a
	// workload rebuilds only its own.
	Store string
}

// CommonFlags registers the shared flag set on flag.CommandLine. Call
// before flag.Parse.
func CommonFlags() *Common {
	c := &Common{}
	flag.Uint64Var(&c.Seed, "seed", 42, "determinism seed")
	flag.IntVar(&c.Workers, "workers", 0, "worker goroutines for profiling/search/build fan-out (0 = all cores)")
	flag.StringVar(&c.Store, "store", "", "content-addressed measurement store directory: persists per-workload PerfDB columns across runs")
	return c
}

// Profile carries the standard profiling flags: -cpuprofile and
// -memprofile, written with runtime/pprof and read with `go tool pprof`.
type Profile struct {
	// CPU is the CPU profile's path (-cpuprofile); empty = off.
	CPU string
	// Mem is the allocation profile's path (-memprofile), written when
	// the tool finishes; empty = off.
	Mem string

	cpu *os.File
}

// ProfileFlags registers -cpuprofile and -memprofile on flag.CommandLine.
// Call before flag.Parse, then Start after it and Stop when the tool
// finishes.
func ProfileFlags() *Profile {
	p := &Profile{}
	flag.StringVar(&p.CPU, "cpuprofile", "", "write a CPU profile of the run to this file (go tool pprof)")
	flag.StringVar(&p.Mem, "memprofile", "", "write an allocation profile to this file when the run finishes (go tool pprof)")
	return p
}

// Start begins CPU profiling when -cpuprofile is set.
func (p *Profile) Start() {
	if p.CPU == "" {
		return
	}
	f, err := os.Create(p.CPU)
	if err != nil {
		Fatal(err)
	}
	if err := pprof.StartCPUProfile(f); err != nil {
		f.Close()
		Fatal(err)
	}
	p.cpu = f
}

// Stop ends CPU profiling and writes the allocation profile. A tool that
// exits early through Fatal or os.Exit writes neither.
func (p *Profile) Stop() {
	if p.cpu != nil {
		pprof.StopCPUProfile()
		if err := p.cpu.Close(); err != nil {
			fmt.Fprintf(os.Stderr, "%s: warning: %v (CPU profile incomplete)\n", Tool(), err)
		}
		p.cpu = nil
	}
	if p.Mem == "" {
		return
	}
	f, err := os.Create(p.Mem)
	if err != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: %v (no allocation profile)\n", Tool(), err)
		return
	}
	defer f.Close()
	runtime.GC() // bring the in-use figures up to date
	if err := pprof.Lookup("allocs").WriteTo(f, 0); err != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: %v (allocation profile incomplete)\n", Tool(), err)
	}
}

// NewSession constructs the tool's session from the given options plus
// the -store flag. A store written by an incompatible schema version is
// warned about and skipped — the tool runs without persistence rather
// than aborting, since the store is only a cache. A store held by
// another process is different: silently proceeding without it would look
// like a cold run, so the tool fails fast and names the conflict.
func NewSession(c *Common, opts ...arena.Option) *arena.Session {
	full := append(append([]arena.Option(nil), opts...), arena.WithStore(c.Store))
	sess, err := arena.New(full...)
	if err != nil && c.Store != "" && errors.Is(err, store.ErrSchema) {
		fmt.Fprintf(os.Stderr, "%s: warning: %v (continuing without the store)\n", Tool(), err)
		sess, err = arena.New(opts...)
	}
	if err != nil && c.Store != "" && errors.Is(err, store.ErrLocked) {
		Fatal(fmt.Errorf("%w; another arena process (an arena-server?) holds -store %s — stop it or point this tool elsewhere", err, c.Store))
	}
	if err != nil {
		Fatal(err)
	}
	return sess
}

// CloseSession closes the session's store. A failure to release it only
// loses the lock, so it warns instead of failing the tool.
func CloseSession(sess *arena.Session) {
	if err := sess.Close(); err != nil {
		fmt.Fprintf(os.Stderr, "%s: warning: %v (closing the store)\n", Tool(), err)
	}
}

// Tool returns the running tool's name for message prefixes.
func Tool() string { return filepath.Base(os.Args[0]) }

// Fatal prints "<tool>: <err>" to stderr and exits 1.
func Fatal(err error) {
	fmt.Fprintf(os.Stderr, "%s: %v\n", Tool(), err)
	os.Exit(1)
}

// WarnPersist prints the uniform store-persistence warning: the database
// was built fine, only the cross-run cache write failed.
func WarnPersist(err error) {
	fmt.Fprintf(os.Stderr, "%s: warning: %v (continuing with the built database)\n", Tool(), err)
}

// ReportDB funnels every tool's BuildPerfDB outcome through one policy:
// nil error passes, a persistence failure on a usable database warns and
// continues, anything else is fatal.
func ReportDB(db *perfdb.DB, err error) {
	if err == nil {
		return
	}
	var perr *perfdb.PersistError
	if db != nil && errors.As(err, &perr) {
		WarnPersist(err)
		return
	}
	Fatal(err)
}

// BuildDB builds (or store-loads) the session's performance database,
// funnels the outcome through ReportDB, and labels the source the way the
// tools print it: "store" (all columns reused), "store, partial" (some
// columns built), or "searched".
func BuildDB(ctx context.Context, sess *arena.Session) (*perfdb.DB, string) {
	db, err := sess.BuildPerfDB(ctx)
	ReportDB(db, err)
	stats := sess.PerfDBStoreStats()
	for _, serr := range stats.Skipped {
		fmt.Fprintf(os.Stderr, "%s: warning: %v (column rebuilt)\n", Tool(), serr)
	}
	switch {
	case stats.FromStore():
		return db, "store"
	case stats.LoadedColumns > 0:
		return db, fmt.Sprintf("store, partial: %d columns reused, %d built", stats.LoadedColumns, stats.BuiltColumns)
	default:
		return db, "searched"
	}
}

// Context returns the tool's root context, cancelled on SIGINT/SIGTERM —
// the one signal-handling path every arena process shares. For the batch
// tools a ^C aborts in-flight database builds and searches promptly
// instead of killing the process mid-write; for arena-server a SIGTERM
// is the graceful-shutdown request: the round loop observes cancellation
// between rounds, drains the in-flight round, and flushes the journal.
// After the first signal the registration is dropped, so a second ^C (or
// a supervisor's escalation to a repeat SIGTERM) terminates the process
// the default way even if some code path ignores the cancellation.
func Context() context.Context {
	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	go func() {
		<-ctx.Done()
		stop()
	}()
	return ctx
}

// PickPolicies resolves the -policy flag spelling shared by the tools:
// one scheduler by name, or "all" for the paper's five in §5.1 order.
func PickPolicies(name string) ([]arena.Policy, error) {
	switch name {
	case "fcfs":
		return []arena.Policy{arena.NewFCFS()}, nil
	case "gavel":
		return []arena.Policy{arena.NewGavel()}, nil
	case "elasticflow":
		return []arena.Policy{arena.NewElasticFlow()}, nil
	case "sia":
		return []arena.Policy{arena.NewSia()}, nil
	case "arena":
		return []arena.Policy{arena.NewArenaPolicy()}, nil
	case "all":
		return []arena.Policy{
			arena.NewFCFS(), arena.NewGavel(), arena.NewElasticFlow(),
			arena.NewSia(), arena.NewArenaPolicy(),
		}, nil
	default:
		return nil, fmt.Errorf("unknown policy %q", name)
	}
}

// PickPolicy is PickPolicies for tools that run exactly one scheduler
// (arena-server schedules one queue; "all" makes no sense there).
func PickPolicy(name string) (arena.Policy, error) {
	if name == "all" {
		return nil, fmt.Errorf("pick one policy (fcfs|gavel|elasticflow|sia|arena)")
	}
	pols, err := PickPolicies(name)
	if err != nil {
		return nil, err
	}
	return pols[0], nil
}

// PickCluster resolves the -cluster flag spelling shared by the tools.
func PickCluster(name string) (hw.ClusterSpec, error) {
	switch name {
	case "a":
		return hw.ClusterA(), nil
	case "b":
		return hw.ClusterB(), nil
	case "sim":
		return hw.ClusterSim(), nil
	case "b-homogeneous":
		return hw.ClusterBHomogeneous(), nil
	default:
		return hw.ClusterSpec{}, fmt.Errorf("unknown cluster %q", name)
	}
}

// PickTraceGen resolves the -trace-gen flag: a streaming-generator preset
// name (philly-6h|philly-week|helios-day|pai-day) to the trace.Config a
// trace.Stream source is built from, applying the preset's default job
// count when jobs is 0. Unlike PickTrace, the returned Config describes
// an expected Poisson job count — the realized count varies around it.
func PickTraceGen(name string, seed uint64, types []string, jobs int) (trace.Config, error) {
	return trace.GenPreset(name, seed, types, jobs)
}

// PickTrace resolves the -trace flag spelling shared by the tools,
// applying each trace's default job count when jobs is 0.
func PickTrace(kind string, seed uint64, types []string, jobs int) (trace.Config, error) {
	switch kind {
	case "philly":
		if jobs == 0 {
			jobs = 3000
		}
		return trace.PhillyWeek(seed, types, jobs), nil
	case "helios":
		if jobs == 0 {
			jobs = 900
		}
		return trace.HeliosDay(seed, types, jobs), nil
	case "pai":
		if jobs == 0 {
			jobs = 450
		}
		return trace.PAIDay(seed, types, jobs), nil
	default:
		return trace.Config{}, fmt.Errorf("unknown trace %q", kind)
	}
}
