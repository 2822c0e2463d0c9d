package store

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"os"
	"path/filepath"
	"strings"
	"syscall"
	"time"
)

// Version is the store schema version; bump on incompatible envelope or
// layout change. It is also hashed into every client key, so a bump
// invalidates all prior objects without touching them.
const Version = 1

// Sentinel errors distinguishing read-side failure modes; always wrapped
// in a *Error, test with errors.Is.
var (
	// ErrNotFound marks a key with no stored object — the ordinary cache
	// miss, not a failure.
	ErrNotFound = errors.New("object not found")
	// ErrSchema marks a store or object written under a different schema
	// version.
	ErrSchema = errors.New("schema version mismatch")
	// ErrCorrupt marks an unparseable or checksum-failing object (torn
	// write, truncation, external modification).
	ErrCorrupt = errors.New("corrupt object")
	// ErrKeyMismatch marks an object whose embedded key differs from the
	// one it was looked up under (renamed or misplaced file).
	ErrKeyMismatch = errors.New("key mismatch")
	// ErrLocked marks a store directory already held by another process —
	// a daemon and a CLI pointed at the same -store, or two daemons. The
	// second opener fails fast instead of racing the first's writes.
	ErrLocked = errors.New("store locked by another process")
)

// Error reports one store operation failure with enough context to warn
// usefully. Unwrap exposes the sentinel (or underlying I/O) cause.
type Error struct {
	Op   string // "open", "get", "put", "list"
	Path string // file or directory involved
	Err  error
}

func (e *Error) Error() string {
	return fmt.Sprintf("store: %s %s: %v", e.Op, e.Path, e.Err)
}

func (e *Error) Unwrap() error { return e.Err }

// Key addresses one object: the hex digest of the canonical encoding of
// everything that determines the object's content.
type Key string

// NewKey derives a key from a domain label and the ordered fields that
// determine the object. Fields are length-prefixed before hashing so
// distinct field lists can never collide by concatenation.
func NewKey(domain string, fields ...string) Key {
	h := sha256.New()
	fmt.Fprintf(h, "%d:%s", len(domain), domain)
	for _, f := range fields {
		fmt.Fprintf(h, "%d:%s", len(f), f)
	}
	return Key(hex.EncodeToString(h.Sum(nil))[:32])
}

// valid reports whether k looks like a NewKey product; it guards file-path
// construction against injection through hand-built keys.
func (k Key) valid() bool {
	if len(k) != 32 {
		return false
	}
	for _, c := range k {
		if !strings.ContainsRune("0123456789abcdef", c) {
			return false
		}
	}
	return true
}

// Store is an open store directory. The zero value is not usable;
// construct with Open. A Store is safe for concurrent use by multiple
// goroutines, but Open enforces a single writer per directory across
// processes: the store is held via an advisory file lock until Close (or
// process exit — the kernel releases the lock either way, so a crashed
// holder never wedges the directory).
type Store struct {
	dir  string
	lock *os.File
}

// manifest is the store-level version stamp.
type manifest struct {
	Version int `json:"version"`
}

// Open opens (creating if needed) the store at dir. A directory written by
// a different schema version yields a *Error wrapping ErrSchema — the
// caller decides whether to warn and continue without persistence or to
// abort; Open never deletes existing data.
func Open(dir string) (*Store, error) {
	if dir == "" {
		return nil, &Error{Op: "open", Path: dir, Err: errors.New("empty store directory")}
	}
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return nil, &Error{Op: "open", Path: dir, Err: err}
	}
	lock, err := acquireLock(dir)
	if err != nil {
		return nil, err
	}
	if err := checkManifest(dir); err != nil {
		lock.Close()
		return nil, err
	}
	return &Store{dir: dir, lock: lock}, nil
}

// checkManifest verifies (stamping on first open) the store's schema
// version.
func checkManifest(dir string) error {
	mpath := filepath.Join(dir, "MANIFEST.json")
	data, err := os.ReadFile(mpath)
	switch {
	case errors.Is(err, os.ErrNotExist):
		if err := writeAtomic(mpath, mustJSON(manifest{Version: Version})); err != nil {
			return &Error{Op: "open", Path: mpath, Err: err}
		}
	case err != nil:
		return &Error{Op: "open", Path: mpath, Err: err}
	default:
		var m manifest
		if err := json.Unmarshal(data, &m); err != nil {
			return &Error{Op: "open", Path: mpath, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
		}
		if m.Version != Version {
			return &Error{Op: "open", Path: mpath, Err: fmt.Errorf("%w: store has v%d, this build writes v%d", ErrSchema, m.Version, Version)}
		}
	}
	return nil
}

// acquireLock takes the store's advisory single-writer lock (LOCK inside
// dir), failing fast with ErrLocked if another process holds it. flock
// follows the open file description, so the lock outlives forks but
// vanishes with the process — a crash cannot leave the store wedged.
func acquireLock(dir string) (*os.File, error) {
	lpath := filepath.Join(dir, "LOCK")
	f, err := os.OpenFile(lpath, os.O_CREATE|os.O_RDWR, 0o644)
	if err != nil {
		return nil, &Error{Op: "open", Path: lpath, Err: err}
	}
	if err := syscall.Flock(int(f.Fd()), syscall.LOCK_EX|syscall.LOCK_NB); err != nil {
		f.Close()
		if err == syscall.EWOULDBLOCK {
			return nil, &Error{Op: "open", Path: lpath, Err: ErrLocked}
		}
		return nil, &Error{Op: "open", Path: lpath, Err: err}
	}
	return f, nil
}

// Close releases the store's single-writer lock. Idempotent; using the
// Store after Close is a caller bug (another process may own the
// directory by then).
func (s *Store) Close() error {
	if s.lock == nil {
		return nil
	}
	err := s.lock.Close() // closing the descriptor drops the flock
	s.lock = nil
	if err != nil {
		return &Error{Op: "close", Path: s.dir, Err: err}
	}
	return nil
}

// Dir returns the store's root directory.
func (s *Store) Dir() string { return s.dir }

// envelope is the on-disk frame around every object payload.
type envelope struct {
	Version int             `json:"version"`
	Key     Key             `json:"key"`
	Sum     string          `json:"sum"` // payloadSum of the Payload bytes as written
	Payload json.RawMessage `json:"payload"`
}

// objectPath names the file for a (domain, key) pair.
func (s *Store) objectPath(domain string, k Key) string {
	return filepath.Join(s.dir, domain, string(k)+".json")
}

// Put stores v (JSON-marshaled) under (domain, key), atomically replacing
// any previous object. Concurrent Puts to the same key are safe; the last
// complete write wins.
func (s *Store) Put(domain string, k Key, v any) error {
	if !k.valid() {
		return &Error{Op: "put", Path: domain, Err: fmt.Errorf("invalid key %q", k)}
	}
	payload, err := json.Marshal(v)
	if err != nil {
		return &Error{Op: "put", Path: s.objectPath(domain, k), Err: err}
	}
	env := envelope{Version: Version, Key: k, Sum: payloadSum(payload), Payload: payload}
	path := s.objectPath(domain, k)
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return &Error{Op: "put", Path: path, Err: err}
	}
	data, err := json.Marshal(env)
	if err != nil {
		return &Error{Op: "put", Path: path, Err: err}
	}
	if err := writeAtomic(path, data); err != nil {
		return &Error{Op: "put", Path: path, Err: err}
	}
	return nil
}

// Get loads the object at (domain, key) into v. A missing object returns a
// *Error wrapping ErrNotFound; a truncated, tampered or version-skewed
// object returns a *Error wrapping ErrCorrupt / ErrKeyMismatch /
// ErrSchema. The object file is never trusted: version, embedded key and
// payload checksum are all verified before v sees a byte.
func (s *Store) Get(domain string, k Key, v any) error {
	if !k.valid() {
		return &Error{Op: "get", Path: domain, Err: fmt.Errorf("invalid key %q", k)}
	}
	path := s.objectPath(domain, k)
	data, err := os.ReadFile(path)
	if errors.Is(err, os.ErrNotExist) {
		return &Error{Op: "get", Path: path, Err: ErrNotFound}
	}
	if err != nil {
		return &Error{Op: "get", Path: path, Err: err}
	}
	var env envelope
	if err := json.Unmarshal(data, &env); err != nil {
		return &Error{Op: "get", Path: path, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	if env.Version != Version {
		return &Error{Op: "get", Path: path, Err: fmt.Errorf("%w: object has v%d, this build reads v%d", ErrSchema, env.Version, Version)}
	}
	if env.Key != k {
		return &Error{Op: "get", Path: path, Err: fmt.Errorf("%w: object written under %s", ErrKeyMismatch, env.Key)}
	}
	if payloadSum(env.Payload) != env.Sum {
		return &Error{Op: "get", Path: path, Err: fmt.Errorf("%w: payload checksum mismatch", ErrCorrupt)}
	}
	if err := json.Unmarshal(env.Payload, v); err != nil {
		return &Error{Op: "get", Path: path, Err: fmt.Errorf("%w: %v", ErrCorrupt, err)}
	}
	return nil
}

// List returns the keys of every object file present in a domain, sorted
// lexically. Files that do not look like object files are ignored; the
// objects themselves are not validated (Get does that per object).
func (s *Store) List(domain string) ([]Key, error) {
	entries, err := os.ReadDir(filepath.Join(s.dir, domain))
	if errors.Is(err, os.ErrNotExist) {
		return nil, nil
	}
	if err != nil {
		return nil, &Error{Op: "list", Path: filepath.Join(s.dir, domain), Err: err}
	}
	var keys []Key
	for _, e := range entries {
		name, ok := strings.CutSuffix(e.Name(), ".json")
		if !ok || e.IsDir() {
			continue
		}
		if k := Key(name); k.valid() {
			keys = append(keys, k)
		}
	}
	return keys, nil
}

// payloadSum is the checksum objects and journal frames carry: the
// lowercase hex sha256 of the payload bytes exactly as written.
func payloadSum(payload []byte) string {
	sum := sha256.Sum256(payload)
	return hex.EncodeToString(sum[:])
}

// writeAttempts bounds writeAtomic's retry loop; transient I/O errors
// (interrupted syscalls, momentary descriptor exhaustion) back off and
// retry, anything else fails immediately.
const writeAttempts = 3

// beforeRename, when non-nil, runs between the temp file's durable write
// and its rename — the crash window. Tests inject failures here to prove
// a process dying at the worst moment leaves the previous object intact
// under the final name.
var beforeRename func(path string) error

// writeAtomic writes data to path via a temp file + rename in the same
// directory, so concurrent writers and crashed processes can never leave a
// partial file under the final name. The temp file is fsynced before the
// rename — otherwise a machine crash could rename a name onto contents
// still in the page cache, replacing a good object with a hole — and the
// directory is fsynced after, so the rename itself is durable. Transient
// I/O errors are retried with a short exponential backoff.
func writeAtomic(path string, data []byte) error {
	var err error
	delay := 2 * time.Millisecond
	for attempt := 0; attempt < writeAttempts; attempt++ {
		if attempt > 0 {
			time.Sleep(delay)
			delay *= 2
		}
		err = writeAtomicOnce(path, data)
		if err == nil || !transientIO(err) {
			return err
		}
	}
	return err
}

// writeAtomicOnce is one write-fsync-rename attempt.
func writeAtomicOnce(path string, data []byte) error {
	dir := filepath.Dir(path)
	tmp, err := os.CreateTemp(dir, ".store-*")
	if err != nil {
		return err
	}
	cleanup := func(err error) error {
		tmp.Close()
		os.Remove(tmp.Name())
		return err
	}
	if _, err := tmp.Write(data); err != nil {
		return cleanup(err)
	}
	if err := tmp.Sync(); err != nil {
		return cleanup(err)
	}
	if err := tmp.Close(); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	if beforeRename != nil {
		if err := beforeRename(path); err != nil {
			os.Remove(tmp.Name())
			return err
		}
	}
	if err := os.Rename(tmp.Name(), path); err != nil {
		os.Remove(tmp.Name())
		return err
	}
	syncDir(dir)
	return nil
}

// syncDir makes a completed rename durable by fsyncing its directory.
// Best-effort: not every platform or filesystem supports directory sync,
// and the rename's atomicity does not depend on it.
func syncDir(dir string) {
	d, err := os.Open(dir)
	if err != nil {
		return
	}
	defer d.Close()
	_ = d.Sync()
}

// transientIO classifies errors worth retrying: interrupted syscalls and
// momentary resource exhaustion clear on their own; corrupt input or
// permission failures never do.
func transientIO(err error) bool {
	return errors.Is(err, syscall.EINTR) ||
		errors.Is(err, syscall.EAGAIN) ||
		errors.Is(err, syscall.ENFILE) ||
		errors.Is(err, syscall.EMFILE)
}

// mustJSON marshals a value whose encoding cannot fail (static structs).
func mustJSON(v any) []byte {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	return data
}
