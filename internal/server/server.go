// Package server is the scheduler as a long-running service: the same
// sim.Engine and clock.Tick round loop the batch simulator runs, wrapped
// in an HTTP job API and a write-ahead journal so a killed daemon
// restarts, replays its journal, and resumes with bit-identical
// scheduler state. The paper's dynamic-scheduling half (§3.5) only pays
// off operationally when re-planning runs continuously as jobs arrive
// and leave — this is that form.
//
// Determinism is the design axis. Scheduling decisions are pure
// functions of (engine state, policy, perf database, seed); engine state
// is a pure function of the journaled operation sequence applied at
// nominal round instants k*RoundSeconds. So the journal — submits and
// cancels written before they apply, rounds written after they commit
// with a digest of the policy's Assignment — is the whole truth, and
// recovery is re-execution: replay ops in order, re-fire each journaled
// round at its recorded instant, and verify every digest. A crash
// between a round's in-memory commit and its journal record loses
// nothing: restart replays up to the previous round and the resumed
// clock re-fires the lost round, deterministically reproducing it.
//
// Replay reads without reflection, since a restart reads every record
// ever written. decodeRecord accepts exactly the layout json.Marshal
// writes for a record and refuses anything else as corrupt, and
// roundDigest appends the bytes json.Marshal would write for an
// Assignment before hashing them. Appends still go through json.Marshal,
// so the bytes on disk and every digest are what they always were. The
// store checks each frame's checksum but not its payload's grammar, so
// decodeRecord is the one parse a payload gets.
//
// Clients poll the jobs they wait on, so every JobView body is appended
// by hand (appendJobView), byte for byte what writeJSON's indenting
// json.Encoder writes; the other replies still go through writeJSON.
//
// Time discipline: the server never reads the wall clock directly
// (the clockdiscipline analyzer in internal/analysis, run by
// arena-vet, enforces this package-wide); all instants come
// from the configured internal/clock, so tests drive the very same loop
// with a stepped clock and the journal's timeline is the only timeline.
package server

import (
	"context"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"sync"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/perfdb"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/sim"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// Typed failures the HTTP layer and operators branch on.
var (
	// ErrReplay marks a journal that is internally valid but does not
	// reproduce under this binary: a round's recorded digest disagrees
	// with the re-executed decision, or the round sequence has gaps. The
	// server refuses to start rather than diverge silently.
	ErrReplay = errors.New("journal replay diverged")
	// ErrConfig marks a journal written under a different scheduler
	// configuration (policy, round length, seed or cluster); resuming it
	// would replay decisions the current configuration cannot reproduce.
	ErrConfig = errors.New("journal written under a different configuration")
	// ErrBadJob marks a submission that fails validation.
	ErrBadJob = errors.New("invalid job")
	// ErrExists marks a submission reusing a live or historical job ID.
	ErrExists = errors.New("job ID already exists")
	// ErrUnknownJob marks an operation on a job the server has never seen.
	ErrUnknownJob = errors.New("no such job")
	// ErrJobDone marks a cancel of a job already finished, dropped or
	// failed.
	ErrJobDone = errors.New("job already completed")
)

// Config assembles a server. Spec, Policy and DB are the scheduling
// inputs the batch simulator takes; they must be identical across
// restarts of the same store (the journal records and enforces this).
type Config struct {
	Spec   hw.ClusterSpec
	Policy sched.Policy
	DB     *perfdb.DB

	// RoundSeconds is the scheduling interval (paper: 5 minutes); 0
	// defaults to 300.
	RoundSeconds float64
	Seed         uint64

	// Store persists the journal and must be held for the server's
	// lifetime (its single-writer lock is what makes the journal safe).
	Store *store.Store

	// Clock drives rounds and timestamps submissions. Nil defaults to a
	// wall clock resumed at the journal's tail, so a restarted daemon
	// continues the run timeline where the dead one stopped. Tests plug
	// in clock.Stepped to drive the identical loop deterministically.
	Clock clock.Clock
}

// journalKind* name the record kinds in the server's journal.
const (
	kindConfig = "config"
	kindSubmit = "submit"
	kindCancel = "cancel"
	kindRound  = "round"
)

// record is one journal entry; Kind selects which fields are meaningful.
// Appends encode it with json.Marshal and replay reads it back with
// decodeRecord, which knows this field order and trace.Job's: a field
// added to either needs its case there, or TestRecordDecodeMatchesUnmarshal
// fails.
type record struct {
	Kind string `json:"kind"`

	// kindConfig: the run's identity, verified on every restart.
	Policy       string  `json:"policy,omitempty"`
	RoundSeconds float64 `json:"round_seconds,omitempty"`
	Seed         uint64  `json:"seed,omitempty"`
	Cluster      string  `json:"cluster,omitempty"`

	// kindSubmit: the full job, written before it enters the engine.
	Job *trace.Job `json:"job,omitempty"`

	// kindCancel: the target job, written before it enters the inbox.
	ID string `json:"id,omitempty"`

	// kindRound: written after the round commits in memory. Digest is
	// the Assignment's fingerprint; replay re-executes the round and
	// must reproduce it exactly.
	Round  int     `json:"round,omitempty"`
	Now    float64 `json:"now,omitempty"`
	Digest string  `json:"digest,omitempty"`
}

// Server is the daemon: an Engine, its journal, and the round cursor.
// All mutable state is behind mu; HTTP handlers and the round loop
// serialize through it, which is also what keeps the journal ordered.
type Server struct {
	cfg Config
	clk clock.Clock

	mu      sync.Mutex
	eng     *sim.Engine
	journal *store.Journal
	// inbox holds journaled cancels awaiting the next round: cancels
	// apply at round boundaries, at the round's nominal instant, so
	// replay and live execution see identical timing.
	inbox     []string
	inboxSet  map[string]bool
	nextRound int
	lastNow   float64
	autoID    int // all-time submit count, for generated job IDs

	// digestBuf and digestKeys are roundDigest's encoding buffer and
	// sorted Place keys, kept from round to round.
	digestBuf  []byte
	digestKeys []*sched.Job
}

// crashBeforeCommit, when non-nil, runs between a round's in-memory
// commit and its journal record — the widest recovery window. Tests
// simulate a process dying mid-round by failing here and discarding the
// server, then proving a restart reproduces the lost round.
var crashBeforeCommit func() error

// New builds a server over the store's journal: an empty journal starts
// a fresh run (stamping the configuration as record 0); a non-empty one
// is replayed — configuration verified, every submit and cancel
// re-applied, every round re-executed at its recorded instant with its
// digest checked — so the returned server's engine state is bit-identical
// to the dead process's at its last journaled round. Corrupt journals
// (store.ErrCorrupt/ErrSchema) and non-reproducing ones (ErrReplay,
// ErrConfig) refuse to start.
func New(cfg Config) (*Server, error) {
	if cfg.Store == nil {
		return nil, fmt.Errorf("server: need an open store (the journal lives there)")
	}
	if cfg.RoundSeconds <= 0 {
		cfg.RoundSeconds = 300
	}
	eng, err := sim.NewEngine(sim.Config{
		Spec: cfg.Spec, Policy: cfg.Policy, DB: cfg.DB,
		RoundSeconds: cfg.RoundSeconds, Seed: cfg.Seed,
	})
	if err != nil {
		return nil, err
	}
	journal, entries, err := cfg.Store.OpenJournal("server")
	if err != nil {
		return nil, err
	}
	s := &Server{cfg: cfg, eng: eng, journal: journal, inboxSet: map[string]bool{}}
	if len(entries) == 0 {
		if err := journal.Append(s.configRecord()); err != nil {
			journal.Close()
			return nil, err
		}
	} else if err := s.replay(entries); err != nil {
		journal.Close()
		return nil, err
	}
	s.clk = cfg.Clock
	if s.clk == nil {
		s.clk = clock.NewWallAt(s.resumeOffsetLocked())
	}
	return s, nil
}

// configRecord fingerprints the run's scheduling identity.
func (s *Server) configRecord() record {
	return record{
		Kind:         kindConfig,
		Policy:       s.cfg.Policy.Name(),
		RoundSeconds: s.cfg.RoundSeconds,
		Seed:         s.cfg.Seed,
		Cluster:      jsonDigest(s.cfg.Spec),
	}
}

// replay re-executes the journal, reading each record with decodeRecord
// through one string table. Called once, before the server is shared, so
// it runs unlocked.
func (s *Server) replay(entries []json.RawMessage) error {
	shared := strTable{}
	for i, raw := range entries {
		rec, err := decodeRecord(raw, shared)
		if err != nil {
			return fmt.Errorf("server: journal record %d: %w: %v", i, store.ErrCorrupt, err)
		}
		if i == 0 {
			if rec.Kind != kindConfig {
				return fmt.Errorf("server: journal record 0 is %q, not a config stamp: %w", rec.Kind, store.ErrCorrupt)
			}
			if want := s.configRecord(); rec != want {
				return fmt.Errorf("server: %w: journal has (policy=%s round=%gs seed=%d cluster=%s), this server runs (policy=%s round=%gs seed=%d cluster=%s)",
					ErrConfig, rec.Policy, rec.RoundSeconds, rec.Seed, rec.Cluster,
					want.Policy, want.RoundSeconds, want.Seed, want.Cluster)
			}
			continue
		}
		switch rec.Kind {
		case kindSubmit:
			if rec.Job == nil {
				return fmt.Errorf("server: journal record %d: submit without a job: %w", i, store.ErrCorrupt)
			}
			// Journaled jobs carry explicit SubmitTimes; now=0 means the
			// engine re-stages them verbatim, keeping replay bit-identical.
			s.eng.Submit(*rec.Job, 0)
			s.autoID++
		case kindCancel:
			if !s.inboxSet[rec.ID] {
				s.inboxSet[rec.ID] = true
				s.inbox = append(s.inbox, rec.ID)
			}
		case kindRound:
			if rec.Round != s.nextRound {
				return fmt.Errorf("server: %w: journal record %d is round %d, expected round %d", ErrReplay, i, rec.Round, s.nextRound)
			}
			asg := s.fireLocked(rec.Round, rec.Now)
			if got := s.roundDigest(asg); got != rec.Digest {
				return fmt.Errorf("server: %w: round %d re-executed to digest %s, journal recorded %s (code or inputs changed since the journal was written)",
					ErrReplay, rec.Round, got, rec.Digest)
			}
		default:
			return fmt.Errorf("server: journal record %d has unknown kind %q: %w", i, rec.Kind, store.ErrCorrupt)
		}
	}
	return nil
}

// fireLocked applies the inbox and fires one round — the single round
// body shared by live execution (step) and replay. Callers hold mu (or
// own the server exclusively, during New).
func (s *Server) fireLocked(round int, now float64) sched.Assignment {
	for _, id := range s.inbox {
		s.eng.Cancel(id, now)
	}
	s.inbox = nil
	clear(s.inboxSet)
	asg := s.eng.Round(now)
	s.nextRound = round + 1
	s.lastNow = now
	return asg
}

// stepLocked is the live round: fire, then journal the committed
// decision. A journal failure is returned so the loop can stop — a
// server that cannot persist its decisions must not keep making them.
func (s *Server) stepLocked(round int, now float64) (sched.Assignment, error) {
	asg := s.fireLocked(round, now)
	if crashBeforeCommit != nil {
		if err := crashBeforeCommit(); err != nil {
			return asg, err
		}
	}
	err := s.journal.Append(record{Kind: kindRound, Round: round, Now: now, Digest: s.roundDigest(asg)})
	return asg, err
}

// step is stepLocked behind the lock — the Run loop's round body.
func (s *Server) step(round int, now float64) (sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked(round, now)
}

// Step fires the next round at its nominal instant, synchronously —
// the benchmark's and tests' handle on the round loop. Live serving
// uses Run, which drives the identical body from the clock.
func (s *Server) Step() (sched.Assignment, error) {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stepLocked(s.nextRound, float64(s.nextRound)*s.cfg.RoundSeconds)
}

// Run drives scheduling rounds from the server's clock until ctx is
// cancelled — the daemon's main loop, and literally the simulator's:
// both hand a round callback to clock.TickFrom. Cancellation is only
// observed between rounds, so the in-flight round always drains and is
// journaled before Run returns; Run leaves no goroutines behind.
// Returns ctx.Err() on graceful shutdown, or the journal failure that
// stopped the loop.
func (s *Server) Run(ctx context.Context) error {
	s.mu.Lock()
	start := s.nextRound
	s.mu.Unlock()
	var stepErr error
	err := clock.TickFrom(ctx, s.clk, s.cfg.RoundSeconds, start, func(round int, now float64) bool {
		_, stepErr = s.step(round, now)
		return stepErr == nil
	})
	if stepErr != nil {
		return stepErr
	}
	return err
}

// Close flushes and closes the journal. The store (and its lock) belong
// to the caller. Idempotent.
func (s *Server) Close() error {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.journal.Close()
}

// resumeOffsetLocked is the instant a resumed clock should read at
// startup: the last journaled round's nominal time, so the next round
// fires one full interval later — exactly where the dead process's
// timeline stood. Fresh servers start at 0 (round 0 fires immediately,
// on an empty queue).
func (s *Server) resumeOffsetLocked() float64 {
	if s.nextRound == 0 {
		return 0
	}
	return float64(s.nextRound-1) * s.cfg.RoundSeconds
}

// NextRound returns the index of the next round to fire.
func (s *Server) NextRound() int {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nextRound
}

// Now returns the current instant on the server's run timeline: the
// clock's reading, but never before the last committed round — a
// synchronously stepped server (tests, benchmarks) has a timeline even
// when its clock never moves.
func (s *Server) Now() float64 {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.nowLocked()
}

func (s *Server) nowLocked() float64 {
	if now := s.clk.Now(); now > s.lastNow {
		return now
	}
	return s.lastNow
}

// Submit validates, journals and registers one job. A zero SubmitTime
// is stamped with the clock's current instant; an empty ID is assigned
// a unique generated one. The job is durable (journaled and fsynced)
// before Submit returns; it becomes schedulable at the next round.
func (s *Server) Submit(tj trace.Job) (trace.Job, error) {
	if err := s.validate(&tj); err != nil {
		return tj, err
	}
	s.mu.Lock()
	defer s.mu.Unlock()
	if tj.SubmitTime == 0 {
		tj.SubmitTime = s.nowLocked()
	}
	if tj.ID == "" {
		for {
			tj.ID = fmt.Sprintf("job-%06d", s.autoID)
			if s.eng.Find(tj.ID) == nil {
				break
			}
			s.autoID++
		}
	} else if s.eng.Find(tj.ID) != nil {
		return tj, fmt.Errorf("%w: %q", ErrExists, tj.ID)
	}
	if err := s.journal.Append(record{Kind: kindSubmit, Job: &tj}); err != nil {
		return tj, err
	}
	s.autoID++
	s.eng.Submit(tj, s.nowLocked())
	return tj, nil
}

// validate rejects jobs the scheduler could never place: the perf
// database must know the workload on at least one GPU type, and the
// request must be a power of two up to the database's MaxN, the only GPU
// counts it measures and the engine's per-job cap. Replay does not
// validate, so a journal keeps replaying whatever it accepted.
func (s *Server) validate(tj *trace.Job) error {
	if tj.Iterations <= 0 {
		return fmt.Errorf("%w: iterations must be positive", ErrBadJob)
	}
	if tj.SubmitTime < 0 {
		return fmt.Errorf("%w: negative submit time", ErrBadJob)
	}
	if tj.ReqGPUs <= 0 {
		tj.ReqGPUs = 1
	}
	db := s.cfg.DB
	if tj.ReqGPUs&(tj.ReqGPUs-1) != 0 || tj.ReqGPUs > db.MaxN {
		return fmt.Errorf("%w: %d GPUs requested, want a power of two up to %d", ErrBadJob, tj.ReqGPUs, db.MaxN)
	}
	if tj.Priority <= 0 {
		tj.Priority = 1
	}
	for _, g := range db.GPUTypes {
		for n := 1; n <= db.MaxN; n *= 2 {
			if _, ok := db.Entry(tj.Workload, g, n); ok {
				return nil
			}
		}
	}
	return fmt.Errorf("%w: workload %s@%d is not in the performance database", ErrBadJob, tj.Workload.Model, tj.Workload.GlobalBatch)
}

// Cancel journals a cancellation for the named job; it takes effect at
// the next round's nominal instant (replay and live execution must see
// identical timing, so cancels never apply mid-interval). Idempotent
// while the cancel is pending; ErrUnknownJob / ErrJobDone otherwise.
func (s *Server) Cancel(id string) error {
	s.mu.Lock()
	defer s.mu.Unlock()
	j := s.eng.Find(id)
	if j == nil {
		return fmt.Errorf("%w: %q", ErrUnknownJob, id)
	}
	switch j.State {
	case sched.StateFinished, sched.StateDropped, sched.StateFailed:
		return fmt.Errorf("%w: %q is %s", ErrJobDone, id, j.State)
	}
	if s.inboxSet[id] {
		return nil
	}
	if err := s.journal.Append(record{Kind: kindCancel, ID: id}); err != nil {
		return err
	}
	s.inboxSet[id] = true
	s.inbox = append(s.inbox, id)
	return nil
}

// jsonDigest fingerprints a JSON-marshalable value: sha256 of its
// encoding, truncated hex. Only the config stamp's cluster fingerprint
// uses it, once per start; rounds go through roundDigest, which writes
// the same bytes for an Assignment without reflection.
func jsonDigest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		// A ClusterSpec is a static struct shape whose encoding cannot
		// fail.
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}
