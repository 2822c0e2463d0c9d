package store

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"math"
	"math/rand"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"testing"
)

// mustOpen opens a store or fails the test.
func mustOpen(t *testing.T, dir string) *Store {
	t.Helper()
	s, err := Open(dir)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestOpenLocksOutSecondProcess(t *testing.T) {
	dir := t.TempDir()
	s1 := mustOpen(t, dir)

	// flock follows the open file description, so a second Open — even in
	// the same process — models a second process exactly.
	_, err := Open(dir)
	if !errors.Is(err, ErrLocked) {
		t.Fatalf("second Open returned %v, want ErrLocked", err)
	}
	var serr *Error
	if !errors.As(err, &serr) || serr.Op != "open" {
		t.Fatalf("second Open error %v is not a typed store *Error", err)
	}

	if err := s1.Close(); err != nil {
		t.Fatal(err)
	}
	if err := s1.Close(); err != nil {
		t.Fatalf("second Close not idempotent: %v", err)
	}
	s2 := mustOpen(t, dir)
	defer s2.Close()
}

type jrec struct {
	Kind string  `json:"kind"`
	At   float64 `json:"at"`
}

// journalPath returns the on-disk file behind a named journal.
func journalPath(s *Store, name string) string {
	return filepath.Join(s.dir, "journal", name+".log")
}

func TestJournalRoundTrip(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()

	j, entries, err := s.OpenJournal("rounds")
	if err != nil {
		t.Fatal(err)
	}
	if len(entries) != 0 {
		t.Fatalf("fresh journal has %d entries", len(entries))
	}
	want := []jrec{{"submit", 0}, {"round", 300}, {"round", 600}}
	for _, r := range want {
		if err := j.Append(r); err != nil {
			t.Fatal(err)
		}
	}
	if j.Len() != len(want) {
		t.Fatalf("Len = %d, want %d", j.Len(), len(want))
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}

	j2, entries, err := s.OpenJournal("rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != len(want) {
		t.Fatalf("reopened journal has %d entries, want %d", len(entries), len(want))
	}
	for i, raw := range entries {
		var got jrec
		if err := json.Unmarshal(raw, &got); err != nil {
			t.Fatal(err)
		}
		if got != want[i] {
			t.Fatalf("entry %d = %+v, want %+v", i, got, want[i])
		}
	}
	// Appends continue the sequence after a reopen.
	if err := j2.Append(jrec{"round", 900}); err != nil {
		t.Fatal(err)
	}
	if j2.Len() != len(want)+1 {
		t.Fatalf("Len after reopen+append = %d", j2.Len())
	}
}

// corruptJournal writes three valid records then mangles the file via fn.
func corruptJournal(t *testing.T, fn func(data []byte) []byte) error {
	t.Helper()
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	j, _, err := s.OpenJournal("rounds")
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 3; i++ {
		if err := j.Append(jrec{"round", float64(i) * 300}); err != nil {
			t.Fatal(err)
		}
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	path := journalPath(s, "rounds")
	data, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if err := os.WriteFile(path, fn(data), 0o644); err != nil {
		t.Fatal(err)
	}
	j2, _, err := s.OpenJournal("rounds")
	if err == nil {
		j2.Close()
	}
	return err
}

func TestJournalTruncatedTailRefused(t *testing.T) {
	err := corruptJournal(t, func(data []byte) []byte {
		return data[:len(data)-10] // tear the last record mid-frame
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("truncated journal opened with %v, want ErrCorrupt", err)
	}
}

func TestJournalTamperedPayloadRefused(t *testing.T) {
	err := corruptJournal(t, func(data []byte) []byte {
		return []byte(strings.Replace(string(data), `"at":300`, `"at":301`, 1))
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("tampered journal opened with %v, want ErrCorrupt", err)
	}
}

func TestJournalSplicedSequenceRefused(t *testing.T) {
	err := corruptJournal(t, func(data []byte) []byte {
		// Drop the middle record: checksums still pass, sequence does not.
		lines := strings.SplitAfter(string(data), "\n")
		return []byte(lines[0] + lines[2])
	})
	if !errors.Is(err, ErrCorrupt) {
		t.Fatalf("spliced journal opened with %v, want ErrCorrupt", err)
	}
}

func TestJournalVersionSkewRefused(t *testing.T) {
	err := corruptJournal(t, func(data []byte) []byte {
		return []byte(strings.ReplaceAll(string(data), `{"version":1,`, `{"version":99,`))
	})
	if !errors.Is(err, ErrSchema) {
		t.Fatalf("version-skewed journal opened with %v, want ErrSchema", err)
	}
}

func TestJournalRejectsBadName(t *testing.T) {
	dir := t.TempDir()
	s := mustOpen(t, dir)
	defer s.Close()
	for _, name := range []string{"", "UPPER", "../escape", "a/b"} {
		if _, _, err := s.OpenJournal(name); err == nil {
			t.Fatalf("OpenJournal(%q) succeeded", name)
		}
	}
}

// marshaledRecord is the frame struct the journal once marshaled with
// encoding/json. json.Marshal of it is the reference for the hand-built
// frame: matching it byte for byte is what lets journals written before
// and after frames were built by hand open under either reader.
type marshaledRecord struct {
	Version int             `json:"version"`
	Seq     int             `json:"seq"`
	Sum     string          `json:"sum"`
	Payload json.RawMessage `json:"payload"`
}

// marshaledFrame frames v the way the encoding/json writer did: the sum
// over the compacted payload, the line from json.Marshal.
func marshaledFrame(t *testing.T, seq int, v any) []byte {
	t.Helper()
	payload, err := json.Marshal(v)
	if err != nil {
		t.Fatal(err)
	}
	var compact bytes.Buffer
	if err := json.Compact(&compact, payload); err != nil {
		t.Fatal(err)
	}
	sum := sha256.Sum256(compact.Bytes())
	line, err := json.Marshal(marshaledRecord{Version: Version, Seq: seq, Sum: hex.EncodeToString(sum[:]), Payload: payload})
	if err != nil {
		t.Fatal(err)
	}
	return append(line, '\n')
}

// awkwardRunes are the characters encoding/json treats specially:
// HTML-escapable, quote and backslash, control characters, the JSON-
// hostile line separators, non-ASCII and an invalid UTF-8 byte.
var awkwardRunes = []string{
	"a", "Z", "0", " ", "<", ">", "&", `"`, `\`, "/", "\t", "\n", "\r",
	"\x00", "\x01", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本", "😀", "\xff",
}

func randomString(r *rand.Rand) string {
	var sb strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		sb.WriteString(awkwardRunes[r.Intn(len(awkwardRunes))])
	}
	return sb.String()
}

// randomPayload builds a random JSON-marshalable value: scalars, nested
// arrays and objects, and json.RawMessage fields laid out with
// whitespace that json.Marshal compacts.
func randomPayload(r *rand.Rand, depth int) any {
	k := r.Intn(9)
	if depth > 3 {
		k = r.Intn(5)
	}
	switch k {
	case 0:
		return randomString(r)
	case 1:
		return r.NormFloat64() * math.Pow(10, float64(r.Intn(80)-40))
	case 2:
		return r.Int63() - r.Int63()
	case 3:
		return r.Intn(2) == 0
	case 4:
		return nil
	case 5:
		arr := make([]any, r.Intn(4))
		for i := range arr {
			arr[i] = randomPayload(r, depth+1)
		}
		return arr
	case 6:
		obj := map[string]any{}
		for n := r.Intn(4); n > 0; n-- {
			obj[randomString(r)] = randomPayload(r, depth+1)
		}
		return obj
	case 7:
		raw, err := json.MarshalIndent(randomPayload(r, depth+1), " ", "\t")
		if err != nil {
			panic(err)
		}
		return json.RawMessage("\n " + string(raw) + " \n")
	default:
		raw, err := json.MarshalIndent(randomPayload(r, depth+1), "", "  ")
		if err != nil {
			panic(err)
		}
		return struct {
			Kind string          `json:"kind"`
			Raw  json.RawMessage `json:"raw"`
			At   float64         `json:"at,omitempty"`
		}{randomString(r), raw, r.Float64()}
	}
}

// TestJournalFrameMatchesMarshal appends random payloads and checks
// every line on disk against json.Marshal of marshaledRecord, then that
// a reopen returns each payload as json.Marshal encodes it.
func TestJournalFrameMatchesMarshal(t *testing.T) {
	s := mustOpen(t, t.TempDir())
	defer s.Close()
	j, _, err := s.OpenJournal("rounds")
	if err != nil {
		t.Fatal(err)
	}
	r := rand.New(rand.NewSource(17))
	var want bytes.Buffer
	var payloads [][]byte
	for seq := 0; seq < 1000; seq++ {
		v := randomPayload(r, 0)
		if err := j.Append(v); err != nil {
			t.Fatal(err)
		}
		want.Write(marshaledFrame(t, seq, v))
		payload, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		payloads = append(payloads, payload)
	}
	if err := j.Close(); err != nil {
		t.Fatal(err)
	}
	got, err := os.ReadFile(journalPath(s, "rounds"))
	if err != nil {
		t.Fatal(err)
	}
	gotLines, wantLines := bytes.SplitAfter(got, []byte("\n")), bytes.SplitAfter(want.Bytes(), []byte("\n"))
	if len(gotLines) != len(wantLines) {
		t.Fatalf("journal has %d lines, json.Marshal frames %d", len(gotLines), len(wantLines))
	}
	for i := range wantLines {
		if !bytes.Equal(gotLines[i], wantLines[i]) {
			t.Fatalf("record %d:\n got  %q\n want %q", i, gotLines[i], wantLines[i])
		}
	}

	j2, entries, err := s.OpenJournal("rounds")
	if err != nil {
		t.Fatal(err)
	}
	defer j2.Close()
	if len(entries) != len(payloads) {
		t.Fatalf("reopened journal has %d entries, want %d", len(entries), len(payloads))
	}
	for i, e := range entries {
		if !bytes.Equal(e, payloads[i]) {
			t.Fatalf("entry %d = %q, want %q", i, e, payloads[i])
		}
	}
}

// TestJournalRefusesNonCanonicalFrames feeds frames that encoding/json
// would parse but no writer produces, and frames from another schema.
// The version is read first, so a skewed version is ErrSchema even when
// the rest of its frame is garbage; every other departure is ErrCorrupt.
func TestJournalRefusesNonCanonicalFrames(t *testing.T) {
	sum := payloadSum([]byte(`{"kind":"round"}`))
	frame := func(version, seq, sum, payload string) string {
		return `{"version":` + version + `,"seq":` + seq + `,"sum":"` + sum + `","payload":` + payload + `}`
	}
	for _, tc := range []struct {
		name, line string
		want       error
	}{
		{"reordered keys", `{"seq":0,"version":1,"sum":"` + sum + `","payload":{"kind":"round"}}`, ErrCorrupt},
		{"spaces", `{"version": 1, "seq": 0, "sum": "` + sum + `", "payload": {"kind":"round"}}`, ErrCorrupt},
		{"unknown field", `{"version":1,"seq":0,"sum":"` + sum + `","payload":{"kind":"round"},"extra":1}`, ErrCorrupt},
		{"leading zero seq", frame("1", "00", sum, `{"kind":"round"}`), ErrCorrupt},
		{"negative zero seq", frame("1", "-0", sum, `{"kind":"round"}`), ErrCorrupt},
		{"leading zero version", frame("01", "0", sum, `{"kind":"round"}`), ErrCorrupt},
		{"float version", frame("1.0", "0", sum, `{"kind":"round"}`), ErrCorrupt},
		{"upper-case hex", frame("1", "0", strings.ToUpper(sum), `{"kind":"round"}`), ErrCorrupt},
		{"short sum", frame("1", "0", sum[:63], `{"kind":"round"}`), ErrCorrupt},
		{"payload respaced after summing", frame("1", "0", sum, `{"kind": "round"}`), ErrCorrupt},
		{"summed invalid payload", frame("1", "0", payloadSum([]byte(`{"kind":`)), `{"kind":`), ErrCorrupt},
		{"empty payload", frame("1", "0", payloadSum(nil), ``), ErrCorrupt},
		{"skewed version", frame("2", "0", sum, `{"kind":"round"}`), ErrSchema},
		{"skewed version, garbage after", `{"version":-7 garbage`, ErrSchema},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			defer s.Close()
			if err := os.MkdirAll(filepath.Dir(journalPath(s, "rounds")), 0o755); err != nil {
				t.Fatal(err)
			}
			if err := os.WriteFile(journalPath(s, "rounds"), []byte(tc.line+"\n"), 0o644); err != nil {
				t.Fatal(err)
			}
			j, _, err := s.OpenJournal("rounds")
			if err == nil {
				j.Close()
			}
			var serr *Error
			if !errors.As(err, &serr) || !errors.Is(err, tc.want) {
				t.Fatalf("OpenJournal(%s) = %v, want a *Error wrapping %v", tc.line, err, tc.want)
			}
		})
	}
}

// TestJournalFailedAppendIsSticky fails one Append mid-way — a torn
// write (half the frame, then ENOSPC) or a failed fsync (EIO) — and
// checks that the failure poisons the journal: every later Append
// returns it without writing a byte, so no frame lands on the end of a
// torn line and nothing after the failure is ever acknowledged.
func TestJournalFailedAppendIsSticky(t *testing.T) {
	for _, tc := range []struct {
		name     string
		write    func(f *os.File, frame []byte) error
		cause    error
		reopened int // records a reopen returns; -1: refused as torn
	}{
		{"torn write", func(f *os.File, frame []byte) error {
			if _, err := f.Write(frame[:len(frame)/2]); err != nil {
				return err
			}
			return syscall.ENOSPC
		}, syscall.ENOSPC, -1},
		{"failed fsync", func(f *os.File, frame []byte) error {
			if _, err := f.Write(frame); err != nil {
				return err
			}
			return syscall.EIO
		}, syscall.EIO, 3},
	} {
		t.Run(tc.name, func(t *testing.T) {
			s := mustOpen(t, t.TempDir())
			defer s.Close()
			j, _, err := s.OpenJournal("rounds")
			if err != nil {
				t.Fatal(err)
			}
			defer j.Close()
			for i := 0; i < 2; i++ {
				if err := j.Append(jrec{"round", float64(i) * 300}); err != nil {
					t.Fatal(err)
				}
			}
			journalWrite = tc.write
			err = j.Append(jrec{"round", 600})
			journalWrite = nil
			var serr *Error
			if !errors.As(err, &serr) || !errors.Is(err, tc.cause) {
				t.Fatalf("failed Append returned %v, want a *Error wrapping %v", err, tc.cause)
			}
			info, err := os.Stat(journalPath(s, "rounds"))
			if err != nil {
				t.Fatal(err)
			}
			for i := 0; i < 3; i++ {
				if err := j.Append(jrec{"round", 900}); !errors.Is(err, tc.cause) {
					t.Fatalf("Append %d after the failure returned %v, want the sticky %v", i, err, tc.cause)
				}
			}
			after, err := os.Stat(journalPath(s, "rounds"))
			if err != nil {
				t.Fatal(err)
			}
			if after.Size() != info.Size() || j.Len() != 2 {
				t.Fatalf("Appends after the failure wrote: %d -> %d bytes, Len %d", info.Size(), after.Size(), j.Len())
			}
			if err := j.Close(); err != nil {
				t.Fatal(err)
			}

			j2, entries, err := s.OpenJournal("rounds")
			if tc.reopened < 0 {
				if !errors.Is(err, ErrCorrupt) {
					t.Fatalf("torn journal reopened with %v, want ErrCorrupt", err)
				}
				return
			}
			if err != nil {
				t.Fatal(err)
			}
			defer j2.Close()
			if len(entries) != tc.reopened {
				t.Fatalf("reopened journal has %d entries, want %d", len(entries), tc.reopened)
			}
		})
	}
}
