package store

import (
	"bytes"
	"errors"
	"os"
	"strings"
	"testing"
)

// FuzzOpenJournal drives OpenJournal with arbitrary journal file bytes.
// The contract under fuzzing: never panic; any refusal is a *Error
// wrapping ErrCorrupt or ErrSchema; and an accepted file holds only
// frames as Append writes them — re-appending the returned payloads to
// a fresh journal reproduces its trimmed non-blank lines byte for byte.
func FuzzOpenJournal(f *testing.F) {
	s, err := Open(f.TempDir())
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(func() { s.Close() })

	// Seeds: a valid three-record journal, the torn, tampered, spliced
	// and version-skewed files of the journal tests, and an empty file.
	j, _, err := s.OpenJournal("seed")
	if err != nil {
		f.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(jrec{"round", float64(i) * 300}); err != nil {
			f.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		f.Fatal(err)
	}
	valid, err := os.ReadFile(journalPath(s, "seed"))
	if err != nil {
		f.Fatal(err)
	}
	lines := strings.SplitAfter(string(valid), "\n")
	f.Add(valid)
	f.Add(valid[:len(valid)-10])
	f.Add([]byte(strings.Replace(string(valid), `"at":300`, `"at":301`, 1)))
	f.Add([]byte(lines[0] + lines[2]))
	f.Add([]byte(strings.ReplaceAll(string(valid), `{"version":1,`, `{"version":99,`)))
	f.Add([]byte{})

	f.Fuzz(func(t *testing.T, data []byte) {
		if err := os.WriteFile(journalPath(s, "fuzz"), data, 0o644); err != nil {
			t.Fatal(err)
		}
		j, entries, err := s.OpenJournal("fuzz")
		if err != nil {
			var serr *Error
			if !errors.As(err, &serr) {
				t.Fatalf("non-*Error failure: %T %v", err, err)
			}
			if !errors.Is(err, ErrCorrupt) && !errors.Is(err, ErrSchema) {
				t.Fatalf("failure wraps neither ErrCorrupt nor ErrSchema: %v", err)
			}
			return
		}
		if err := j.Close(); err != nil {
			t.Fatal(err)
		}

		if err := os.Remove(journalPath(s, "replay")); err != nil && !errors.Is(err, os.ErrNotExist) {
			t.Fatal(err)
		}
		r, _, err := s.OpenJournal("replay")
		if err != nil {
			t.Fatal(err)
		}
		for _, e := range entries {
			if err := r.Append(e); err != nil {
				t.Fatal(err)
			}
		}
		if err := r.Close(); err != nil {
			t.Fatal(err)
		}
		got, err := os.ReadFile(journalPath(s, "replay"))
		if err != nil {
			t.Fatal(err)
		}
		var want []byte
		for _, line := range bytes.Split(data, []byte("\n")) {
			if line = bytes.TrimSpace(line); len(line) > 0 {
				want = append(append(want, line...), '\n')
			}
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("re-appended payloads differ from the accepted file:\n got  %q\n want %q", got, want)
		}
	})
}
