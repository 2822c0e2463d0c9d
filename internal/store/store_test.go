package store

import (
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"sync"
	"syscall"
	"testing"
)

type payload struct {
	Name string    `json:"name"`
	Vals []float64 `json:"vals"`
}

func TestRoundTrip(t *testing.T) {
	s, err := Open(t.TempDir() + "/cache")
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "a", "b")
	in := payload{Name: "x", Vals: []float64{1.5, 0.1, 2.25e-300}}
	if err := s.Put("test", k, in); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k, &out); err != nil {
		t.Fatal(err)
	}
	if out.Name != in.Name || len(out.Vals) != len(in.Vals) {
		t.Fatalf("round trip mismatch: %+v vs %+v", out, in)
	}
	for i := range in.Vals {
		if out.Vals[i] != in.Vals[i] {
			t.Fatalf("val %d: %v != %v", i, out.Vals[i], in.Vals[i])
		}
	}
}

func TestKeyDerivation(t *testing.T) {
	a := NewKey("d", "ab", "c")
	b := NewKey("d", "a", "bc")
	if a == b {
		t.Fatal("length-prefixed fields must not collide by concatenation")
	}
	if a != NewKey("d", "ab", "c") {
		t.Fatal("keys must be deterministic")
	}
	if NewKey("d1", "x") == NewKey("d2", "x") {
		t.Fatal("domains must separate keys")
	}
	if !a.valid() {
		t.Fatalf("derived key %q should be valid", a)
	}
	if Key("../../etc/passwd").valid() || Key("short").valid() {
		t.Fatal("non-digest keys must be rejected")
	}
}

func TestGetMissing(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	var out payload
	err = s.Get("test", NewKey("test", "nope"), &out)
	if !errors.Is(err, ErrNotFound) {
		t.Fatalf("want ErrNotFound, got %v", err)
	}
	var se *Error
	if !errors.As(err, &se) {
		t.Fatalf("want *Error, got %T", err)
	}
}

func TestTruncatedObject(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "trunc")
	if err := s.Put("test", k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("test", k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, data[:len(data)/2], 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated object: want ErrCorrupt, got %v", err)
	}
}

func TestTamperedPayload(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "tamper")
	if err := s.Put("test", k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("test", k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	// Flip the payload's name in place: still valid JSON, wrong checksum.
	tampered := []byte(string(data))
	for i := 0; i+2 < len(tampered); i++ {
		if tampered[i] == '"' && tampered[i+1] == 'x' && tampered[i+2] == '"' {
			tampered[i+1] = 'y'
		}
	}
	if err := os.WriteFile(path, tampered, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered payload: want ErrCorrupt, got %v", err)
	}
}

func TestObjectSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "ver")
	if err := s.Put("test", k, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("test", k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	skewed := []byte(fmt.Sprintf(`{"version":%d,"key":"%s","sum":"","payload":{}}`, Version+1, k))
	if err := os.WriteFile(path, skewed, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k, &out); !errors.Is(err, ErrSchema) {
		t.Fatalf("skewed object: want ErrSchema, got %v", err)
	}
	_ = data
}

func TestKeyMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	k1 := NewKey("test", "one")
	k2 := NewKey("test", "two")
	if err := s.Put("test", k1, payload{Name: "x"}); err != nil {
		t.Fatal(err)
	}
	// Simulate a misplaced file: copy k1's object under k2's name.
	data, err := os.ReadFile(s.objectPath("test", k1))
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(s.objectPath("test", k2), data, 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k2, &out); !errors.Is(err, ErrKeyMismatch) {
		t.Fatalf("misplaced object: want ErrKeyMismatch, got %v", err)
	}
}

func TestManifestSchemaMismatch(t *testing.T) {
	dir := t.TempDir()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	if err := s.Close(); err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(filepath.Join(dir, "MANIFEST.json"),
		[]byte(fmt.Sprintf(`{"version":%d}`, Version+1)), 0o644); err != nil {
		t.Fatal(err)
	}
	_, err = Open(dir)
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("manifest skew: want ErrSchema, got %v", err)
	}
}

// TestConcurrentWriters hammers one key from many goroutines and verifies
// every subsequent read sees a complete, checksum-valid object — the
// atomic-rename guarantee that makes cross-process sharing safe.
func TestConcurrentWriters(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "contended")
	var wg sync.WaitGroup
	for w := 0; w < 8; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < 25; i++ {
				p := payload{Name: fmt.Sprintf("w%d-%d", w, i), Vals: []float64{float64(w), float64(i)}}
				if err := s.Put("test", k, p); err != nil {
					t.Errorf("put: %v", err)
					return
				}
				var out payload
				if err := s.Get("test", k, &out); err != nil {
					t.Errorf("get after concurrent puts: %v", err)
					return
				}
				if len(out.Vals) != 2 {
					t.Errorf("torn object observed: %+v", out)
					return
				}
			}
		}(w)
	}
	wg.Wait()
}

// TestCrashBetweenWriteAndRename kills a Put in the crash window — temp
// file durably written, rename not yet executed — and proves the previous
// object under the final name survives uncorrupted, the failure surfaces
// as a typed *Error (not silent loss), and no temp debris is left behind.
func TestCrashBetweenWriteAndRename(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("d", "crash")
	if err := s.Put("d", k, payload{Name: "old", Vals: []float64{1}}); err != nil {
		t.Fatal(err)
	}

	crash := errors.New("simulated crash")
	beforeRename = func(string) error { return crash }
	defer func() { beforeRename = nil }()

	err = s.Put("d", k, payload{Name: "new"})
	var se *Error
	if !errors.As(err, &se) || !errors.Is(err, crash) {
		t.Fatalf("crashed Put must return a typed *Error wrapping the cause, got %v", err)
	}

	var out payload
	if err := s.Get("d", k, &out); err != nil {
		t.Fatalf("old object must survive the crash, got %v", err)
	}
	if out.Name != "old" || len(out.Vals) != 1 || out.Vals[0] != 1 {
		t.Fatalf("old object corrupted: %+v", out)
	}
	entries, err := os.ReadDir(filepath.Join(s.dir, "d"))
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range entries {
		if filepath.Ext(e.Name()) != ".json" {
			t.Fatalf("crash left temp debris: %s", e.Name())
		}
	}
}

// TestOrphanTempFileIgnored plants a half-written temp file (what a real
// crash leaves) and checks reads never surface it.
func TestOrphanTempFileIgnored(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("d", "x")
	if err := s.Put("d", k, payload{Name: "good"}); err != nil {
		t.Fatal(err)
	}
	orphan := filepath.Join(s.dir, "d", ".store-12345")
	if err := os.WriteFile(orphan, []byte(`{"version":1,"key":"trunc`), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("d", k, &out); err != nil || out.Name != "good" {
		t.Fatalf("orphan temp file disturbed reads: %+v, %v", out, err)
	}
}

// TestTransientWriteRetry fails the first rename window with a transient
// error (EINTR) and checks the Put succeeds on retry; a persistent
// transient error exhausts the attempts and surfaces.
func TestTransientWriteRetry(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("d", "retry")
	calls := 0
	beforeRename = func(string) error {
		calls++
		if calls == 1 {
			return fmt.Errorf("flaky disk: %w", syscall.EINTR)
		}
		return nil
	}
	defer func() { beforeRename = nil }()
	if err := s.Put("d", k, payload{Name: "v"}); err != nil {
		t.Fatalf("transient failure must be retried, got %v", err)
	}
	if calls != 2 {
		t.Fatalf("want 1 retry (2 attempts), got %d attempts", calls)
	}

	calls = 0
	beforeRename = func(string) error {
		calls++
		return fmt.Errorf("flaky disk: %w", syscall.EINTR)
	}
	err = s.Put("d", NewKey("d", "retry2"), payload{})
	if !errors.Is(err, syscall.EINTR) {
		t.Fatalf("exhausted retries must surface the cause, got %v", err)
	}
	if calls != writeAttempts {
		t.Fatalf("want %d attempts, got %d", writeAttempts, calls)
	}
}

// TestRespacedPayloadRefused re-spaces an object's payload without
// changing its JSON value: the checksum covers the payload bytes as
// written, so the object no longer verifies.
func TestRespacedPayloadRefused(t *testing.T) {
	s, err := Open(t.TempDir())
	if err != nil {
		t.Fatal(err)
	}
	k := NewKey("test", "respace")
	if err := s.Put("test", k, payload{Name: "x", Vals: []float64{1, 2}}); err != nil {
		t.Fatal(err)
	}
	path := s.objectPath("test", k)
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	respaced := strings.Replace(string(data), `"vals":[1,2]`, `"vals": [1, 2]`, 1)
	if respaced == string(data) {
		t.Fatalf("payload not found in %s", data)
	}
	if err := os.WriteFile(path, []byte(respaced), 0o644); err != nil {
		t.Fatal(err)
	}
	var out payload
	if err := s.Get("test", k, &out); !errors.Is(err, ErrCorrupt) {
		t.Fatalf("re-spaced payload: want ErrCorrupt, got %v", err)
	}
}
