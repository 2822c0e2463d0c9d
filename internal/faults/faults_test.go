package faults

import (
	"errors"
	"reflect"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/hw"
)

func testModel() *Model {
	return &Model{
		Default: TypeFaults{MTBF: 6 * 3600, MTTR: 1800, SlowEvery: 12 * 3600},
	}
}

func TestModelScheduleDeterministic(t *testing.T) {
	spec := hw.ClusterA()
	a := testModel().Schedule(spec, 42, 7*24*3600)
	b := testModel().Schedule(spec, 42, 7*24*3600)
	if len(a) == 0 {
		t.Fatal("week-long horizon with 6h MTBF produced no events")
	}
	if !reflect.DeepEqual(a, b) {
		t.Fatal("same seed must produce an identical fault realization")
	}
	c := testModel().Schedule(spec, 43, 7*24*3600)
	if reflect.DeepEqual(a, c) {
		t.Fatal("different seeds should produce different realizations")
	}
}

func TestModelScheduleWellFormed(t *testing.T) {
	spec := hw.ClusterA()
	horizon := 7 * 24 * 3600.0
	s := testModel().Schedule(spec, 7, horizon)
	if err := s.Validate(spec); err != nil {
		t.Fatalf("generated schedule must validate against its own spec: %v", err)
	}
	// Sorted by time; per-node crash/recover strictly alternate.
	type nodeKey struct {
		typ  string
		node int
	}
	downState := map[nodeKey]bool{}
	prev := -1.0
	for i, ev := range s {
		if ev.Time < prev {
			t.Fatalf("event %d out of order: %v after %v", i, ev.Time, prev)
		}
		prev = ev.Time
		if ev.Time < 0 || ev.Time >= horizon {
			t.Fatalf("event %d outside horizon: %v", i, ev.Time)
		}
		k := nodeKey{ev.GPUType, ev.Node}
		switch ev.Kind {
		case Crash:
			if downState[k] {
				t.Fatalf("event %d: node %v crashed while down", i, k)
			}
			downState[k] = true
		case Recover:
			if !downState[k] {
				t.Fatalf("event %d: node %v recovered while up", i, k)
			}
			downState[k] = false
		}
	}
}

func TestParseTrace(t *testing.T) {
	in := `
# failure storm
100 crash A40 3
1900 recover A40 3
500 slow A10 0 0.4 1000
`
	s, err := ParseTrace(strings.NewReader(in))
	if err != nil {
		t.Fatal(err)
	}
	want := Schedule{
		{Time: 100, Kind: Crash, GPUType: "A40", Node: 3},
		{Time: 500, Kind: SlowStart, GPUType: "A10", Node: 0, Factor: 0.4},
		{Time: 1500, Kind: SlowEnd, GPUType: "A10", Node: 0},
		{Time: 1900, Kind: Recover, GPUType: "A40", Node: 3},
	}
	if !reflect.DeepEqual(s, want) {
		t.Fatalf("parsed %+v,\nwant %+v", s, want)
	}
	if err := s.Validate(hw.ClusterA()); err != nil {
		t.Fatal(err)
	}
}

func TestParseTraceRejectsMalformed(t *testing.T) {
	cases := map[string]string{
		"too few fields":   "100 crash A40",
		"bad time":         "abc crash A40 0",
		"negative time":    "-5 crash A40 0",
		"bad node":         "100 crash A40 x",
		"unknown kind":     "100 explode A40 0",
		"crash extra":      "100 crash A40 0 0.5",
		"slow missing dur": "100 slow A40 0 0.5",
		"slow factor 0":    "100 slow A40 0 0 600",
		"slow factor 1.2":  "100 slow A40 0 1.2 600",
		"slow bad dur":     "100 slow A40 0 0.5 -600",
	}
	for name, in := range cases {
		_, err := ParseTrace(strings.NewReader("# header\n" + in))
		if err == nil {
			t.Errorf("%s: accepted %q", name, in)
			continue
		}
		var pe *ParseError
		if !errors.As(err, &pe) || !errors.Is(err, ErrTraceSyntax) {
			t.Errorf("%s: want *ParseError wrapping ErrTraceSyntax, got %v", name, err)
			continue
		}
		if pe.Line != 2 {
			t.Errorf("%s: reported line %d, want 2", name, pe.Line)
		}
	}
}

func TestValidateRejectsOffSpec(t *testing.T) {
	spec := hw.ClusterA()
	cases := map[string]Event{
		"unknown type": {Time: 1, Kind: Crash, GPUType: "H100", Node: 0},
		"node beyond":  {Time: 1, Kind: Crash, GPUType: "A40", Node: 16},
		"node neg":     {Time: 1, Kind: Crash, GPUType: "A40", Node: -1},
		"bad kind":     {Time: 1, Kind: Kind("melt"), GPUType: "A40", Node: 0},
		"bad factor":   {Time: 1, Kind: SlowStart, GPUType: "A40", Node: 0, Factor: 1.5},
	}
	for name, ev := range cases {
		if err := (Schedule{ev}).Validate(spec); err == nil {
			t.Errorf("%s: accepted %+v", name, ev)
		}
	}
}

func TestConfigDefaultsAndEnabled(t *testing.T) {
	var nilCfg *Config
	if nilCfg.Enabled() {
		t.Fatal("nil config must be disabled")
	}
	if (&Config{}).Enabled() {
		t.Fatal("zero config must be disabled")
	}
	if !(&Config{Model: &Model{}}).Enabled() {
		t.Fatal("a model enables injection")
	}
	if !(&Config{Trace: Schedule{{Time: 1, Kind: Crash, GPUType: "A40"}}}).Enabled() {
		t.Fatal("a trace enables injection")
	}
	d := Config{}.WithDefaults()
	if d.CheckpointInterval != 1800 || d.RetryBudget != 5 || d.BackoffBase != 60 {
		t.Fatalf("unexpected defaults: %+v", d)
	}
	keep := Config{CheckpointInterval: 60, RetryBudget: 1, BackoffBase: 5}.WithDefaults()
	if keep.CheckpointInterval != 60 || keep.RetryBudget != 1 || keep.BackoffBase != 5 {
		t.Fatalf("explicit knobs overwritten: %+v", keep)
	}
}
