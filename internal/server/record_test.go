package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"math"
	"math/rand"
	"strings"
	"testing"

	"github.com/sjtu-epcc/arena/internal/clock"
	"github.com/sjtu-epcc/arena/internal/hw"
	"github.com/sjtu-epcc/arena/internal/model"
	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/store"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// awkwardRunes are the characters encoding/json treats specially:
// HTML-escapable, quote and backslash, control characters, DEL, the
// line separators it always escapes, non-ASCII and invalid UTF-8.
var awkwardRunes = []string{
	"a", "Z", "0", " ", "-", "<", ">", "&", `"`, `\`, "/", "\t", "\n", "\r", "\b", "\f",
	"\x00", "\x01", "\x1f", "\x7f", "\u2028", "\u2029", "é", "日本", "😀", "\xff", "\xc3",
}

func randomString(r *rand.Rand) string {
	if r.Intn(3) == 0 {
		return fmt.Sprintf("job-%06d", r.Intn(1_000_000)) // what IDs mostly are
	}
	var sb strings.Builder
	for n := r.Intn(12); n > 0; n-- {
		sb.WriteString(awkwardRunes[r.Intn(len(awkwardRunes))])
	}
	return sb.String()
}

// randomFloat covers the shapes json.Marshal writes differently: zeros
// of both signs, exponent form below 1e-6 and from 1e21 up, subnormals,
// the extremes and arbitrary bit patterns.
func randomFloat(r *rand.Rand) float64 {
	switch r.Intn(9) {
	case 0:
		return 0
	case 1:
		return math.Copysign(0, -1)
	case 2:
		return r.NormFloat64() * 1e-8
	case 3:
		return r.NormFloat64() * 1e25
	case 4:
		return float64(r.Intn(100_000)) * 300
	case 5:
		return math.SmallestNonzeroFloat64 * float64(r.Intn(1000)+1)
	case 6:
		return []float64{math.MaxFloat64, -math.MaxFloat64, 1e21, 1e-6, 0.1}[r.Intn(5)]
	case 7:
		if v := math.Float64frombits(r.Uint64()); !math.IsNaN(v) && !math.IsInf(v, 0) {
			return v
		}
		return 1.5
	default:
		return r.Float64() * 86_400
	}
}

func randomInt(r *rand.Rand) int {
	switch r.Intn(5) {
	case 0:
		return 0
	case 1:
		return math.MinInt
	case 2:
		return math.MaxInt
	case 3:
		return r.Intn(64) - 8
	default:
		return int(r.Uint64())
	}
}

func randomSeed(r *rand.Rand) uint64 {
	switch r.Intn(4) {
	case 0:
		return math.MaxUint64
	case 1:
		return uint64(r.Intn(100))
	default:
		return r.Uint64()
	}
}

// randomRecord fills each field of a record with probability one half,
// so json.Marshal writes every subset of the omitempty fields.
func randomRecord(r *rand.Rand) record {
	kinds := []string{kindConfig, kindSubmit, kindCancel, kindRound}
	rec := record{Kind: kinds[r.Intn(len(kinds))]}
	if r.Intn(8) == 0 {
		rec.Kind = randomString(r)
	}
	some := func() bool { return r.Intn(2) == 0 }
	if some() {
		rec.Policy = randomString(r)
	}
	if some() {
		rec.RoundSeconds = randomFloat(r)
	}
	if some() {
		rec.Seed = randomSeed(r)
	}
	if some() {
		rec.Cluster = randomString(r)
	}
	if some() {
		rec.Job = &trace.Job{
			ID: randomString(r), SubmitTime: randomFloat(r),
			Workload:   model.Workload{Model: randomString(r), GlobalBatch: randomInt(r)},
			Iterations: randomInt(r), ReqGPUs: randomInt(r), ReqType: randomString(r),
			Priority: randomInt(r), Deadline: randomFloat(r),
		}
	}
	if some() {
		rec.ID = randomString(r)
	}
	if some() {
		rec.Round = randomInt(r)
	}
	if some() {
		rec.Now = randomFloat(r)
	}
	if some() {
		rec.Digest = randomString(r)
	}
	return rec
}

// recordBits is a record with its floats as bit patterns and its job by
// value, so == tells -0 from 0 and compares jobs field by field.
type recordBits struct {
	rec                                     record // floats zeroed, Job nil
	job                                     trace.Job
	hasJob                                  bool
	roundSeconds, now, submitTime, deadline uint64
}

func asBits(r record) recordBits {
	b := recordBits{roundSeconds: math.Float64bits(r.RoundSeconds), now: math.Float64bits(r.Now)}
	if r.Job != nil {
		b.hasJob, b.job = true, *r.Job
		b.submitTime, b.deadline = math.Float64bits(b.job.SubmitTime), math.Float64bits(b.job.Deadline)
		b.job.SubmitTime, b.job.Deadline = 0, 0
	}
	r.RoundSeconds, r.Now, r.Job = 0, 0, nil
	b.rec = r
	return b
}

// TestRecordDecodeMatchesUnmarshal decodes json.Marshal's encoding of
// random records — every subset of the omitempty fields; strings with
// HTML-escapable, control, non-ASCII and invalid UTF-8 characters;
// floats of both zero signs, exponent scales and subnormals; the int
// extremes and seeds over the whole uint64 range — and requires exactly
// what json.Unmarshal gives, floats compared by bits.
func TestRecordDecodeMatchesUnmarshal(t *testing.T) {
	n := 50_000
	if testing.Short() {
		n = 5_000
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < n; i++ {
		payload, err := json.Marshal(randomRecord(r))
		if err != nil {
			t.Fatal(err)
		}
		var want record
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatal(err)
		}
		got, err := decodeRecord(payload)
		if err != nil {
			t.Fatalf("record %d %s: %v", i, payload, err)
		}
		if asBits(got) != asBits(want) {
			t.Fatalf("record %d %s:\n decoded   %+v %+v\n Unmarshal %+v %+v", i, payload, got, got.Job, want, want.Job)
		}
	}
}

// marshalDigest is jsonDigest as the round digest was computed before
// roundDigest: sha256 of json.Marshal's encoding, 16 hex digits.
func marshalDigest(v any) string {
	data, err := json.Marshal(v)
	if err != nil {
		panic(err)
	}
	sum := sha256.Sum256(data)
	return hex.EncodeToString(sum[:])[:16]
}

// idAssignment is an Assignment naming its jobs by ID, the shape it had
// when journals were first written: json.Marshal of it is what
// roundDigest writes.
type idAssignment struct {
	Place   map[string]sched.Alloc
	Drop    []string
	Migrate []string
}

// idKeyed returns asg with each job replaced by its ID.
func idKeyed(asg sched.Assignment) idAssignment {
	a := idAssignment{Drop: jobIDs(asg.Drop), Migrate: jobIDs(asg.Migrate)}
	if asg.Place != nil {
		a.Place = make(map[string]sched.Alloc, len(asg.Place))
		for j, alloc := range asg.Place {
			a.Place[j.Trace.ID] = alloc
		}
	}
	return a
}

// jobIDs lists the jobs' IDs: nil for nil, empty for empty.
func jobIDs(jobs []*sched.Job) []string {
	if jobs == nil {
		return nil
	}
	ids := make([]string, len(jobs))
	for i, j := range jobs {
		ids[i] = j.Trace.ID
	}
	return ids
}

func randomJobs(r *rand.Rand) []*sched.Job {
	switch r.Intn(4) {
	case 0:
		return nil
	case 1:
		return []*sched.Job{}
	}
	jobs := make([]*sched.Job, 1+r.Intn(6))
	for i := range jobs {
		jobs[i] = &sched.Job{Trace: trace.Job{ID: randomString(r)}}
	}
	return jobs
}

// randomAssignment builds an assignment whose placed jobs have distinct
// IDs, as the daemon's live jobs do; Drop and Migrate may repeat one.
func randomAssignment(r *rand.Rand) sched.Assignment {
	var a sched.Assignment
	if k := r.Intn(4); k > 0 {
		a.Place = map[*sched.Job]sched.Alloc{}
		seen := map[string]bool{}
		for n := (k - 1) * r.Intn(24); n > 0; n-- {
			gpu := []string{"A40", "A10", "V100"}[r.Intn(3)]
			if r.Intn(4) == 0 {
				gpu = randomString(r)
			}
			id := randomString(r)
			if seen[id] {
				continue
			}
			seen[id] = true
			a.Place[&sched.Job{Trace: trace.Job{ID: id}}] = sched.Alloc{GPUType: gpu, N: randomInt(r)}
		}
	}
	a.Drop, a.Migrate = randomJobs(r), randomJobs(r)
	return a
}

// TestRoundDigestMatchesMarshal digests random Assignments — nil and
// empty Place, Drop and Migrate, IDs and GPU types that need escapes,
// the int extremes — through one server, so its kept buffer and key
// slice carry over from each round to the next, against marshalDigest
// of the same assignment named by ID.
func TestRoundDigestMatchesMarshal(t *testing.T) {
	var s Server
	job := func(id string) *sched.Job { return &sched.Job{Trace: trace.Job{ID: id}} }
	for _, a := range []sched.Assignment{
		{},
		sched.NewAssignment(),
		{Place: map[*sched.Job]sched.Alloc{}, Drop: []*sched.Job{}, Migrate: []*sched.Job{}},
		{Place: map[*sched.Job]sched.Alloc{job("b"): {GPUType: "A40", N: 2}, job("a"): {GPUType: "A10", N: 1}, job("<&>"): {GPUType: `"\`, N: -1}}, Drop: []*sched.Job{job("\u2028")}},
	} {
		if got, want := s.roundDigest(a), marshalDigest(idKeyed(a)); got != want {
			t.Fatalf("%+v: roundDigest %s, json.Marshal %s", a, got, want)
		}
	}
	n := 25_000
	if testing.Short() {
		n = 2_500
	}
	r := rand.New(rand.NewSource(24))
	for i := 0; i < n; i++ {
		a := randomAssignment(r)
		if got, want := s.roundDigest(a), marshalDigest(idKeyed(a)); got != want {
			t.Fatalf("assignment %d %+v: roundDigest %s, json.Marshal %s", i, a, got, want)
		}
	}
}

// nonCanonicalPayloads are payloads json.Marshal never writes for a
// record and that a journal can still carry: each is valid, compact
// JSON, so Append writes it as it is and the store's checksum and
// json.Valid pass it. Most of them json.Unmarshal would accept.
var nonCanonicalPayloads = map[string]string{
	"reordered keys":          `{"id":"job-000000","kind":"cancel"}`,
	"reordered job keys":      `{"kind":"submit","job":{"SubmitTime":0,"ID":"x","Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
	"duplicated key":          `{"kind":"cancel","id":"job-000000","id":"job-000001"}`,
	"duplicated kind":         `{"kind":"cancel","kind":"cancel","id":"job-000000"}`,
	"unknown field":           `{"kind":"cancel","id":"job-000000","reason":"user"}`,
	"unknown job field":       `{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0,"User":"u"}}`,
	"upper-case key":          `{"kind":"cancel","ID":"job-000000"}`,
	"upper-case kind":         `{"Kind":"cancel","id":"job-000000"}`,
	"lower-case job key":      `{"kind":"submit","job":{"id":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
	"escaped key":             `{"kind":"cancel","\u0069d":"job-000000"}`,
	"missing job field":       `{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1}}`,
	"null job":                `{"kind":"submit","job":null}`,
	"fraction in an int":      `{"kind":"round","round":0.5,"digest":"0000000000000000"}`,
	"exponent in an int":      `{"kind":"round","round":1e0,"digest":"0000000000000000"}`,
	"fraction in a job int":   `{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1.5,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
	"negative seed":           `{"kind":"cancel","seed":-1,"id":"job-000000"}`,
	"int out of range":        `{"kind":"round","round":9223372036854775808,"digest":"0000000000000000"}`,
	"float out of range":      `{"kind":"round","now":1e400,"digest":"0000000000000000"}`,
	"string for a number":     `{"kind":"round","round":"1","digest":"0000000000000000"}`,
	"number for a string":     `{"kind":"cancel","id":7}`,
	"null string":             `{"kind":null}`,
	"array record":            `[{"kind":"cancel","id":"job-000000"}]`,
	"record as a string":      `"{\"kind\":\"cancel\"}"`,
	"empty object":            `{}`,
	"workload fields swapped": `{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"GlobalBatch":256,"Model":"WRes-1B"},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
}

// unjournalablePayloads are refused before a record reaches the server's
// decode — Append compacts the white space away, and the store's
// json.Valid refuses the rest — so decodeRecord is checked on them
// directly.
var unjournalablePayloads = map[string]string{
	"trailing data":              `{"kind":"cancel","id":"job-000000"}x`,
	"a second record":            `{"kind":"cancel","id":"job-000000"}{"kind":"cancel"}`,
	"trailing white space":       `{"kind":"cancel","id":"job-000000"} `,
	"leading white space":        ` {"kind":"cancel","id":"job-000000"}`,
	"inner white space":          `{"kind": "cancel","id":"job-000000"}`,
	"truncated":                  `{"kind":"cancel","id":"job-00`,
	"unterminated string":        `{"kind":"cancel","id":"job-000000`,
	"dangling backslash":         `{"kind":"cancel","id":"job\`,
	"control byte in a string":   "{\"kind\":\"cancel\",\"id\":\"job\n0\"}",
	"unknown escape":             `{"kind":"cancel","id":"job\x00"}`,
	"short unicode escape":       `{"kind":"cancel","id":"job\u00"}`,
	"plus sign":                  `{"kind":"round","round":+5,"digest":"0000000000000000"}`,
	"leading zero":               `{"kind":"round","round":007,"digest":"0000000000000000"}`,
	"negative leading zero":      `{"kind":"round","now":-01,"digest":"0000000000000000"}`,
	"bare decimal point":         `{"kind":"round","now":.5,"digest":"0000000000000000"}`,
	"trailing decimal point":     `{"kind":"round","now":5.,"digest":"0000000000000000"}`,
	"empty exponent":             `{"kind":"round","now":1e,"digest":"0000000000000000"}`,
	"signed empty exponent":      `{"kind":"round","now":1e+,"digest":"0000000000000000"}`,
	"lone minus":                 `{"kind":"round","now":-,"digest":"0000000000000000"}`,
	"infinity":                   `{"kind":"round","now":Inf,"digest":"0000000000000000"}`,
	"hex float":                  `{"kind":"round","now":0x1p3,"digest":"0000000000000000"}`,
	"hex int":                    `{"kind":"round","round":0x10,"digest":"0000000000000000"}`,
	"underscore in a number":     `{"kind":"round","round":1_000,"digest":"0000000000000000"}`,
	"plus sign in a job float":   `{"kind":"submit","job":{"ID":"x","SubmitTime":+1,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
	"leading zero in a job int":  `{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":0256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`,
	"plus sign in a seed":        `{"kind":"cancel","seed":+1,"id":"job-000000"}`,
	"bare decimal point in seed": `{"kind":"cancel","seed":.1,"id":"job-000000"}`,
	"empty payload":              ``,
	"nothing but the kind":       `{"kind"}`,
}

// TestReplayRefusesNonCanonicalRecords appends, after a valid config
// stamp, one record json.Marshal never writes. The server must refuse
// to start with store.ErrCorrupt from the replay of record 1, the same
// error as any other unreadable record, where a canonical submit or
// cancel starts. Payloads no journal can carry go to decodeRecord
// directly.
func TestReplayRefusesNonCanonicalRecords(t *testing.T) {
	start := func(payload string) error {
		dir := t.TempDir()
		st, err := store.Open(dir)
		if err != nil {
			t.Fatal(err)
		}
		defer st.Close()
		j, _, err := st.OpenJournal("server")
		if err != nil {
			t.Fatal(err)
		}
		stamp := record{Kind: kindConfig, Policy: sched.NewArena().Name(),
			RoundSeconds: 300, Seed: 1, Cluster: jsonDigest(hw.ClusterA())}
		if err := j.Append(stamp); err != nil {
			t.Fatal(err)
		}
		if err := j.Append(json.RawMessage(payload)); err != nil {
			t.Fatal(err)
		}
		j.Close()
		srv, err := New(Config{Spec: hw.ClusterA(), Policy: sched.NewArena(), DB: db(t),
			RoundSeconds: 300, Seed: 1, Store: st, Clock: clock.NewVirtual()})
		if err == nil {
			srv.Close()
		}
		return err
	}
	if err := start(`{"kind":"submit","job":{"ID":"x","SubmitTime":0,"Workload":{"Model":"WRes-1B","GlobalBatch":256},"Iterations":1,"ReqGPUs":1,"ReqType":"","Priority":1,"Deadline":0}}`); err != nil {
		t.Fatalf("canonical submit: %v", err)
	}
	if err := start(`{"kind":"cancel","id":"job-000000"}`); err != nil {
		t.Fatalf("canonical cancel: %v", err)
	}
	for name, payload := range nonCanonicalPayloads {
		err := start(payload)
		if !errors.Is(err, store.ErrCorrupt) || !strings.Contains(err.Error(), "journal record 1:") {
			t.Errorf("%s: %s started with %v, want record 1 refused as %v", name, payload, err, store.ErrCorrupt)
		}
	}
	for name, payload := range unjournalablePayloads {
		if _, err := decodeRecord([]byte(payload)); err == nil {
			t.Errorf("%s: decodeRecord accepted %q", name, payload)
		}
	}
}

// FuzzDecodeRecord: whatever decodeRecord accepts, json.Unmarshal
// accepts too and decodes to the same record, floats compared by bits.
// Seeded with every record of the golden test's scripted session and
// with the refused payloads above.
func FuzzDecodeRecord(f *testing.F) {
	dir := f.TempDir()
	srv, st := newServer(f, dir, sched.NewArena())
	driveScript(f, srv, testJobs(f, 30), 20)
	srv.Close()
	j, entries, err := st.OpenJournal("server")
	if err != nil {
		f.Fatal(err)
	}
	j.Close()
	st.Close()
	for _, e := range entries {
		f.Add([]byte(e))
	}
	for _, m := range []map[string]string{nonCanonicalPayloads, unjournalablePayloads} {
		for _, p := range m {
			f.Add([]byte(p))
		}
	}
	f.Fuzz(func(t *testing.T, payload []byte) {
		got, err := decodeRecord(payload)
		if err != nil {
			return
		}
		var want record
		if err := json.Unmarshal(payload, &want); err != nil {
			t.Fatalf("decodeRecord accepted %q, json.Unmarshal refuses it: %v", payload, err)
		}
		if asBits(got) != asBits(want) {
			t.Fatalf("%q:\n decoded   %+v %+v\n Unmarshal %+v %+v", payload, got, got.Job, want, want.Job)
		}
	})
}
