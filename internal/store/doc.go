// Package store is a content-addressed, versioned, on-disk object store —
// the persistence substrate under the performance database's per-workload
// columns (internal/perfdb, the one object client) and the daemon's
// journal (internal/server). It knows nothing about its clients: it
// stores JSON payloads under keys that a client derives by hashing the
// inputs that determine the payload (engine seed and constants,
// model-graph fingerprint, GPU spec, workload params, schema version).
//
// Content addressing is what makes invalidation free: when any input
// changes — a model definition, a device spec, the schema — the derived
// key changes with it, so stale objects are simply never looked up again.
// There is no mtime logic, no manual cache busting, and two processes (or
// two seeds) whose inputs are content-identical share objects.
//
// On disk a store is a directory:
//
//	dir/
//	  MANIFEST.json          {"version": 1}
//	  LOCK                   the single-writer flock
//	  <domain>/<key>.json    one object per key
//	  journal/<name>.log     one append-only journal per name
//
// Every object is an envelope carrying the store schema version, the key
// it was written under, and a checksum of the payload, so torn or tampered
// files are detected on read instead of poisoning results. Writes are
// atomic (temp file + rename in the target directory), which makes
// concurrent writers safe: the last complete write wins and a reader never
// observes a partial object.
//
// A Journal is the store's other shape: an append-only log of fsynced
// lines, one record each, framed with the schema version, a contiguous
// sequence number and the payload checksum, and validated in full when
// opened. The daemon replays it after a crash (internal/server). Its
// frames are written and read by hand, so a restart never re-encodes a
// payload; the first failed write or fsync is sticky, so nothing is
// appended after a torn line.
//
// One checksum rule covers both shapes: the lowercase hex sha256 of the
// payload bytes exactly as written. The store writes only json.Marshal
// output, which is already compact, so no payload is re-encoded to be
// checked.
//
// All read-side failures are reported as a *Error wrapping one of the
// sentinel errors (ErrNotFound, ErrSchema, ErrCorrupt, ErrKeyMismatch), so
// callers can route each object onto the rebuild-and-warn path — the same
// convention as perfdb.PersistError: persistence is a cache concern and
// must never abort work that can be recomputed.
//
// The column key's derivation and invalidation rules — which fields feed
// the hash, and what a drifted input orphans — are documented in
// docs/ARCHITECTURE.md alongside the rest of the persistence design.
package store
