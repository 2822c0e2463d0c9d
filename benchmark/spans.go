package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"time"
)

// span is one timed call at a layer boundary. Start and End are
// nanoseconds since the recorder started; Parent indexes the enclosing
// span, -1 at top level.
type span struct {
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
	Parent int    `json:"parent"`
}

// Span names with special meaning. A frame groups the layers of one
// pass, set-up or probe; its self time is the benchmark's own glue and is
// reported as unattributed. A span under benchPrefix is the benchmark's
// own checking work, absent from untraced passes, so it is left out of
// the traced wall time altogether.
const benchPrefix = "bench."

var frames = map[string]bool{"pass": true, "setup": true, "probe": true}

// recorder keeps spans in memory until the run ends. Every span comes
// from the one goroutine that drives the workload, so a stack of open
// spans gives each new span its parent. A nil recorder records nothing;
// untraced passes run with one.
type recorder struct {
	t0    time.Time
	spans []span
	open  []int
}

func newRecorder() *recorder { return &recorder{t0: time.Now()} }

func (r *recorder) now() int64 { return int64(time.Since(r.t0)) }

// begin opens a span under the innermost open one.
func (r *recorder) begin(name string) {
	if r == nil {
		return
	}
	parent := -1
	if n := len(r.open); n > 0 {
		parent = r.open[n-1]
	}
	r.spans = append(r.spans, span{Name: name, Start: r.now(), Parent: parent})
	r.open = append(r.open, len(r.spans)-1)
}

// end closes the innermost open span, which must be called name: the
// layer wrappers open and close spans from different call sites, and a
// mismatch means the benchmark's own bookkeeping is wrong.
func (r *recorder) end(name string) {
	if r == nil {
		return
	}
	top := r.top(name)
	r.spans[top].End = r.now()
	r.open = r.open[:len(r.open)-1]
}

// rename relabels the innermost open span: a span opened for one phase
// that turned out to be another (the pre-assign span open when the
// simulation loop returns is the finish phase).
func (r *recorder) rename(from, to string) {
	if r == nil {
		return
	}
	r.spans[r.top(from)].Name = to
}

func (r *recorder) top(name string) int {
	n := len(r.open)
	if n == 0 || r.spans[r.open[n-1]].Name != name {
		panic(fmt.Sprintf("span %q is not the innermost open span (open: %v)", name, r.openNames()))
	}
	return r.open[n-1]
}

func (r *recorder) openNames() []string {
	var names []string
	for _, i := range r.open {
		names = append(names, r.spans[i].Name)
	}
	return names
}

// layerStat aggregates the spans of one name.
type layerStat struct {
	count int
	busy  int64     // Σ span duration, ns
	self  int64     // Σ duration not covered by child spans, ns
	durs  []float64 // per-call durations, ms
}

// summary folds the spans into per-layer statistics. wall is the traced
// wall time: top-level spans minus the benchmark's own checking work.
// unattributed is the frames' self time.
type summary struct {
	layers       map[string]*layerStat
	wall         int64
	unattributed int64
}

func (r *recorder) summarize() summary {
	if len(r.open) > 0 {
		panic(fmt.Sprintf("summarize with open spans %v", r.openNames()))
	}
	children := make([]int64, len(r.spans))
	for _, s := range r.spans {
		if s.Parent >= 0 {
			children[s.Parent] += s.End - s.Start
		}
	}
	sum := summary{layers: map[string]*layerStat{}}
	for i, s := range r.spans {
		d := s.End - s.Start
		switch {
		case strings.HasPrefix(s.Name, benchPrefix):
			sum.wall -= d
			continue
		case s.Parent < 0:
			sum.wall += d
		}
		if frames[s.Name] {
			sum.unattributed += d - children[i]
			continue
		}
		l := sum.layers[s.Name]
		if l == nil {
			l = &layerStat{}
			sum.layers[s.Name] = l
		}
		l.count++
		l.busy += d
		l.self += d - children[i]
		l.durs = append(l.durs, float64(d)/1e6)
	}
	return sum
}

// writeSpans stores every span as JSON for offline analysis.
func (r *recorder) writeSpans(path, workload string, seed uint64) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	data, err := json.Marshal(struct {
		Workload string `json:"workload"`
		Seed     uint64 `json:"seed"`
		Spans    []span `json:"spans"`
	}{workload, seed, r.spans})
	if err != nil {
		return err
	}
	return os.WriteFile(path, data, 0o644)
}
