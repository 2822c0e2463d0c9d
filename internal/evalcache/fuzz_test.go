package evalcache

import (
	"encoding/json"
	"errors"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/exec"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/parallel"
	"github.com/sjtu-epcc/arena/internal/store"
)

// FuzzLoadShard drives a measurement context's hydration with arbitrary
// store objects. A payload that is valid JSON is stored through Put, so
// the envelope checks pass and the shard decode and its identity and
// range checks see it; any other input becomes the object file itself.
// The contract: AttachStore, StageShard, Measure and Evaluate never
// panic; every refused object is a *store.Error or wraps ErrStale; and a
// refused object leaves the session measuring cold, bit-identical to the
// engine.
func FuzzLoadShard(f *testing.F) {
	dir := f.TempDir()
	st, err := store.Open(dir)
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { st.Close() })
	eng := exec.NewEngine(42)

	// Seeds: a real saved object's payload, the same with a stage before
	// op 0, with an op index past the graph and with a foreign seed, the
	// payload cut short, and an empty object. The object is a two-op
	// clustering of GPT-1.3B, which holds every kind of entry in under two
	// kilobytes: the minimizer re-runs the target for every byte it tries
	// to drop from a new input.
	full, err := model.Build("GPT-1.3B")
	if err != nil {
		f.Fatal(err)
	}
	g := full.Cluster(2)
	g.Name = "GPT-1.3B/2"
	spec := hw.MustLookup("A40")
	stages := []parallel.StagePlan{
		{OpStart: 0, OpEnd: 1, DP: 2, TP: 1},
		{OpStart: 1, OpEnd: 2, DP: 1, TP: 2},
		{OpStart: 0, OpEnd: 2, DP: 4, TP: 1},
	}
	c := New(eng)
	c.AttachStore(st)
	for _, sp := range stages {
		c.MeasureStage(g, sp, spec, 16, 0)
	}
	if _, err := c.Evaluate(g, parallel.PureDP(g, 4), spec, 128, 0); err != nil {
		f.Fatal(err)
	}
	if err := c.SaveStore(st); err != nil {
		f.Fatal(err)
	}
	key := shardStoreKey(eng.Fingerprint(), GraphFingerprint(g), GPUFingerprint(spec), spec.GPUsPerNode)
	path := filepath.Join(dir, evalDomain, string(key)+".json")
	obj, err := os.ReadFile(path)
	if err != nil {
		f.Fatal(err)
	}
	var env struct{ Payload json.RawMessage }
	if err := json.Unmarshal(obj, &env); err != nil {
		f.Fatal(err)
	}
	payload := string(env.Payload)
	f.Add([]byte(payload))
	f.Add([]byte(strings.Replace(payload, `"start":0,`, `"start":-1,`, 1)))
	f.Add([]byte(strings.Replace(payload, `"i":0,`, `"i":99,`, 1)))
	f.Add([]byte(strings.Replace(payload, `"seed":42,`, `"seed":7,`, 1)))
	f.Add([]byte(payload[:len(payload)/2]))
	f.Add([]byte(`{}`))

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := st.Put(evalDomain, key, json.RawMessage(data)); err != nil {
			if err := os.WriteFile(path, data, 0o644); err != nil {
				t.Fatal(err)
			}
		}
		c := New(eng)
		c.AttachStore(st)
		sh := c.StageShard(g, spec, 0)
		for _, sp := range stages {
			sh.Measure(sp, 16)
		}
		if _, err := c.Evaluate(g, parallel.PureDP(g, 4), spec, 128, 0); err != nil {
			t.Fatal(err)
		}
		skipped := c.StoreStats().Skipped
		for _, err := range skipped {
			var serr *store.Error
			if !errors.As(err, &serr) && !errors.Is(err, ErrStale) {
				t.Fatalf("refusal is neither a *store.Error nor ErrStale: %T %v", err, err)
			}
		}
		if len(skipped) == 0 {
			return
		}
		for _, sp := range stages {
			if got, want := sh.Measure(sp, 16), eng.MeasureStage(g, sp, spec, 16, spec.GPUsPerNode); got != want {
				t.Fatalf("refused object: %+v measured %+v, want %+v", sp, got, want)
			}
		}
	})
}
