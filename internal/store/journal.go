package store

import (
	"bufio"
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strconv"
	"strings"
)

// A Journal is an append-only, per-record-checksummed log inside a store
// — the durability mechanism behind the server's crash recovery. Records
// are JSON payloads framed one per line as
//
//	{"version":1,"seq":N,"sum":"<64 lowercase hex>","payload":<payload>}
//
// where sum is the sha256 of the payload bytes exactly as written, and
// sequence numbers are contiguous from 0. The frame is built and read by
// hand, byte for byte what json.Marshal of a struct with those four
// fields writes, so a payload is encoded once on append and read on open
// only by its checksum. OpenJournal validates every frame before
// returning: any unparseable, version-skewed, out-of-order or
// checksum-failing record — including a torn final line — yields a
// *Error wrapping ErrCorrupt (or ErrSchema), and the caller is expected
// to refuse to proceed rather than replay garbage. The journal verifies
// a payload's bytes, not its grammar: Append writes only json.Marshal
// output, so a payload that passes its checksum and is not JSON was
// forged together with its sha256, and the reader that decodes the
// payload is the one that refuses it. Append
// fsyncs each record before returning, so an acknowledged record
// survives the process; the first failed write or fsync is sticky, so
// nothing is ever appended after a torn tail.
//
// A Journal is not safe for concurrent use; the store's single-writer
// lock already serializes processes, and the owning process serializes
// its own appends.
type Journal struct {
	path string
	f    *os.File
	next int   // sequence number of the next record to append
	err  error // first write or fsync failure; every later Append returns it
}

// The frame's fixed parts, in order around version, seq, sum and payload.
const (
	frameVersion = `{"version":`
	frameSeq     = `,"seq":`
	frameSum     = `,"sum":"`
	framePayload = `","payload":`
	frameEnd     = `}`
	sumLen       = 64 // hex digits of a sha256
)

// journalName guards path construction the way Key.valid does for keys.
func journalName(name string) bool {
	if name == "" || len(name) > 64 {
		return false
	}
	for _, c := range name {
		if !strings.ContainsRune("abcdefghijklmnopqrstuvwxyz0123456789-", c) {
			return false
		}
	}
	return true
}

// OpenJournal opens (creating if needed) the journal `name`, validates
// every existing frame, and returns the journal positioned to append
// along with the verified payloads in order — the replay input. Any
// invalid frame fails the open; a store that has been tampered with or
// torn is surfaced, never silently truncated. A payload is returned as
// the bytes its checksum covers: checking their grammar is the caller's
// job, done by whatever decodes them.
func (s *Store) OpenJournal(name string) (*Journal, []json.RawMessage, error) {
	if !journalName(name) {
		return nil, nil, &Error{Op: "journal", Path: name, Err: fmt.Errorf("invalid journal name %q", name)}
	}
	dir := filepath.Join(s.dir, "journal")
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, nil, &Error{Op: "journal", Path: dir, Err: err}
	}
	path := filepath.Join(dir, name+".log")
	f, err := os.OpenFile(path, os.O_CREATE|os.O_RDWR|os.O_APPEND, 0o644)
	if err != nil {
		return nil, nil, &Error{Op: "journal", Path: path, Err: err}
	}
	entries, next, err := readJournal(path, f)
	if err != nil {
		f.Close()
		return nil, nil, err
	}
	return &Journal{path: path, f: f, next: next}, entries, nil
}

// readJournal scans and validates every frame, returning the payloads
// and the next sequence number.
func readJournal(path string, f *os.File) ([]json.RawMessage, int, error) {
	sc := bufio.NewScanner(f)
	sc.Buffer(make([]byte, 0, 64*1024), 16*1024*1024)
	var entries []json.RawMessage
	seq := 0
	for sc.Scan() {
		line := bytes.TrimSpace(sc.Bytes())
		if len(line) == 0 {
			continue
		}
		payload, err := readFrame(line, seq)
		if err != nil {
			return nil, 0, &Error{Op: "journal", Path: path, Err: err}
		}
		entries = append(entries, append(json.RawMessage(nil), payload...))
		seq++
	}
	if err := sc.Err(); err != nil {
		return nil, 0, &Error{Op: "journal", Path: path, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return entries, seq, nil
}

// readFrame checks one trimmed line against the frame layout and
// returns its payload, a subslice of line. The version is read first,
// so a frame from another schema is ErrSchema whatever follows it; any
// other departure from the exact bytes appendFrame writes is
// ErrCorrupt. The payload is checked against its sum only.
func readFrame(line []byte, seq int) ([]byte, error) {
	malformed := func(what string) error {
		return fmt.Errorf("%w: record %d: malformed frame (%s)", ErrCorrupt, seq, what)
	}
	rest, ok := bytes.CutPrefix(line, []byte(frameVersion))
	if !ok {
		return nil, malformed("version")
	}
	version, rest, ok := cutInt(rest)
	if !ok {
		return nil, malformed("version")
	}
	if version != Version {
		return nil, fmt.Errorf("%w: record %d has v%d, this build reads v%d", ErrSchema, seq, version, Version)
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(frameSeq)); !ok {
		return nil, malformed("seq")
	}
	got, rest, ok := cutInt(rest)
	if !ok {
		return nil, malformed("seq")
	}
	if got != seq {
		return nil, fmt.Errorf("%w: record %d carries seq %d (reordered or spliced)", ErrCorrupt, seq, got)
	}
	if rest, ok = bytes.CutPrefix(rest, []byte(frameSum)); !ok || len(rest) < sumLen {
		return nil, malformed("sum")
	}
	sum := rest[:sumLen]
	if rest, ok = bytes.CutPrefix(rest[sumLen:], []byte(framePayload)); !ok {
		return nil, malformed("payload")
	}
	payload, ok := bytes.CutSuffix(rest, []byte(frameEnd))
	if !ok {
		return nil, malformed("end")
	}
	// The digest is encoded in lowercase hex, as payloadSum writes it, so
	// an upper-case sum fails here too.
	digest := sha256.Sum256(payload)
	var want [sumLen]byte
	hex.Encode(want[:], digest[:])
	if !bytes.Equal(want[:], sum) {
		return nil, fmt.Errorf("%w: record %d payload checksum mismatch", ErrCorrupt, seq)
	}
	return payload, nil
}

// cutInt reads a decimal integer from the front of b in the form
// strconv.AppendInt writes it — an optional minus sign, no leading
// zeros, no "-0" — and returns it with the rest of b.
func cutInt(b []byte) (int, []byte, bool) {
	i := 0
	if len(b) > 0 && b[0] == '-' {
		i = 1
	}
	start := i
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	// At least one digit, and a zero only alone and unsigned.
	if i == start || b[start] == '0' && i > 1 {
		return 0, nil, false
	}
	n, err := strconv.ParseInt(string(b[:i]), 10, 0)
	if err != nil {
		return 0, nil, false
	}
	return int(n), b[i:], true
}

// appendFrame appends one newline-terminated frame around payload.
func appendFrame(dst []byte, seq int, payload []byte) []byte {
	dst = append(dst, frameVersion...)
	dst = strconv.AppendInt(dst, Version, 10)
	dst = append(dst, frameSeq...)
	dst = strconv.AppendInt(dst, int64(seq), 10)
	dst = append(dst, frameSum...)
	dst = append(dst, payloadSum(payload)...)
	dst = append(dst, framePayload...)
	dst = append(dst, payload...)
	return append(dst, frameEnd+"\n"...)
}

// Len returns the number of records appended so far (validated records
// at open plus Appends since).
func (j *Journal) Len() int { return j.next }

// journalWrite, when non-nil, replaces the write and fsync of one frame.
// Tests inject torn writes and failing fsyncs here to prove a failed
// Append poisons the journal instead of letting the next frame land on
// the end of a torn line.
var journalWrite func(f *os.File, frame []byte) error

// Append frames, writes and fsyncs one record. When Append returns nil
// the record is durable. The first write or fsync error may leave a
// torn tail, which the next OpenJournal surfaces as corruption rather
// than drops; it is also sticky: every later Append returns it without
// writing, so a caller that keeps going can never acknowledge a record
// that no restart would read.
func (j *Journal) Append(v any) error {
	if j.f == nil {
		return &Error{Op: "journal", Path: j.path, Err: errors.New("append to closed journal")}
	}
	if j.err != nil {
		return j.err
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return &Error{Op: "journal", Path: j.path, Err: err}
	}
	// The frame around a payload is under 128 bytes: one allocation.
	frame := appendFrame(make([]byte, 0, len(payload)+128), j.next, payload)
	if err := j.write(frame); err != nil {
		j.err = &Error{Op: "journal", Path: j.path, Err: err}
		return j.err
	}
	j.next++
	return nil
}

// write writes and fsyncs one frame.
func (j *Journal) write(frame []byte) error {
	if journalWrite != nil {
		return journalWrite(j.f, frame)
	}
	if _, err := j.f.Write(frame); err != nil {
		return err
	}
	return j.f.Sync()
}

// Close flushes and closes the journal file. Idempotent.
func (j *Journal) Close() error {
	if j.f == nil {
		return nil
	}
	err := j.f.Close()
	j.f = nil
	if err != nil {
		return &Error{Op: "journal", Path: j.path, Err: err}
	}
	return nil
}
