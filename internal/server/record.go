package server

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"
	"strconv"
	"strings"

	"github.com/sjtu-epcc/arena/internal/sched"
	"github.com/sjtu-epcc/arena/internal/trace"
)

// decodeRecord reads one journal payload without reflection. It accepts
// exactly the layout json.Marshal(record) writes: `{"kind":` first, then
// the omitempty fields that are present in declaration order, a job as
// trace.Job's eight fields in order with its Workload nested, no white
// space and nothing after the closing brace. Anything else — reordered,
// duplicated, unknown or differently cased keys included — is refused,
// never handed to a general decoder. Every record a journal holds is
// json.Marshal output under a checksum over its bytes, and neither record
// nor trace.Job has changed since the journal was introduced, so every
// journal ever written decodes.
//
// Values decode as json.Unmarshal decodes them. A string of printable
// ASCII without a quote or backslash is taken as it is; any other string
// token goes through json.Unmarshal on its own, which settles escapes and
// invalid UTF-8 as the whole-record decode did. A number must match the
// JSON number grammar and then goes through the strconv call
// json.Unmarshal makes for the field's kind, so every value is
// bit-identical and an int field refuses a fraction or an exponent.
func decodeRecord(payload []byte) (record, error) {
	d := decoder{buf: payload, n: len(payload)}
	var r record
	d.expect(`{"kind":`)
	r.Kind = d.str()
	if d.key(`,"policy":`) {
		r.Policy = d.str()
	}
	if d.key(`,"round_seconds":`) {
		r.RoundSeconds = d.float()
	}
	if d.key(`,"seed":`) {
		r.Seed = d.uint()
	}
	if d.key(`,"cluster":`) {
		r.Cluster = d.str()
	}
	if d.key(`,"job":`) {
		r.Job = d.job()
	}
	if d.key(`,"id":`) {
		r.ID = d.str()
	}
	if d.key(`,"round":`) {
		r.Round = d.int()
	}
	if d.key(`,"now":`) {
		r.Now = d.float()
	}
	if d.key(`,"digest":`) {
		r.Digest = d.str()
	}
	d.expect(`}`)
	if d.err == nil && len(d.buf) > 0 {
		d.fail("data after the record")
	}
	return r, d.err
}

// job reads a trace.Job object: its eight fields, in declaration order.
func (d *decoder) job() *trace.Job {
	var j trace.Job
	d.expect(`{"ID":`)
	j.ID = d.str()
	d.expect(`,"SubmitTime":`)
	j.SubmitTime = d.float()
	d.expect(`,"Workload":{"Model":`)
	j.Workload.Model = d.str()
	d.expect(`,"GlobalBatch":`)
	j.Workload.GlobalBatch = d.int()
	d.expect(`},"Iterations":`)
	j.Iterations = d.int()
	d.expect(`,"ReqGPUs":`)
	j.ReqGPUs = d.int()
	d.expect(`,"ReqType":`)
	j.ReqType = d.str()
	d.expect(`,"Priority":`)
	j.Priority = d.int()
	d.expect(`,"Deadline":`)
	j.Deadline = d.float()
	d.expect(`}`)
	return &j
}

// decoder is a cursor over one payload. The first failure sticks: every
// later read returns a zero value and leaves err as it is.
type decoder struct {
	buf []byte // the unread rest of the payload
	n   int    // the payload's length, for offsets in errors
	err error
}

func (d *decoder) fail(what string) {
	if d.err == nil {
		d.err = fmt.Errorf("offset %d: %s", d.n-len(d.buf), what)
	}
}

// key consumes lit if the unread bytes start with it.
func (d *decoder) key(lit string) bool {
	if d.err != nil || len(d.buf) < len(lit) || string(d.buf[:len(lit)]) != lit {
		return false
	}
	d.buf = d.buf[len(lit):]
	return true
}

// expect consumes lit, which must come next.
func (d *decoder) expect(lit string) {
	if !d.key(lit) {
		d.fail("want " + lit)
	}
}

// str reads a string token.
func (d *decoder) str() string {
	if d.err != nil {
		return ""
	}
	b := d.buf
	if len(b) == 0 || b[0] != '"' {
		d.fail("want a string")
		return ""
	}
	plain := true
	i := 1
	for ; i < len(b) && b[i] != '"'; i++ {
		if c := b[i]; c < 0x20 || c >= 0x7f || c == '\\' {
			plain = false
			if c == '\\' {
				i++ // the escaped byte cannot close the string
			}
		}
	}
	if i >= len(b) {
		d.fail("unterminated string")
		return ""
	}
	tok := b[:i+1]
	d.buf = b[i+1:]
	if plain {
		return string(tok[1:i])
	}
	var s string
	if err := json.Unmarshal(tok, &s); err != nil {
		d.fail(err.Error())
	}
	return s
}

// number reads a token of the JSON number grammar,
// -?(0|[1-9][0-9]*)(\.[0-9]+)?([eE][+-]?[0-9]+)?, which is narrower
// than what strconv parses (no sign '+', leading zeros, "Inf" or hex).
func (d *decoder) number() []byte {
	if d.err != nil {
		return nil
	}
	b := d.buf
	i := 0
	if i < len(b) && b[i] == '-' {
		i++
	}
	switch {
	case i < len(b) && b[i] == '0':
		i++
	case i < len(b) && '1' <= b[i] && b[i] <= '9':
		i = digits(b, i+1)
	default:
		d.fail("want a number")
		return nil
	}
	if i < len(b) && b[i] == '.' {
		j := digits(b, i+1)
		if j == i+1 {
			d.fail("want a digit after the decimal point")
			return nil
		}
		i = j
	}
	if i < len(b) && (b[i] == 'e' || b[i] == 'E') {
		i++
		if i < len(b) && (b[i] == '+' || b[i] == '-') {
			i++
		}
		j := digits(b, i)
		if j == i {
			d.fail("want a digit in the exponent")
			return nil
		}
		i = j
	}
	d.buf = b[i:]
	return b[:i]
}

// digits returns the index of the first non-digit in b at or after i.
func digits(b []byte, i int) int {
	for i < len(b) && '0' <= b[i] && b[i] <= '9' {
		i++
	}
	return i
}

func (d *decoder) float() float64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseFloat(string(tok), 64)
	if err != nil {
		d.fail(err.Error())
	}
	return v
}

func (d *decoder) int() int {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseInt(string(tok), 10, strconv.IntSize)
	if err != nil {
		d.fail(err.Error())
	}
	return int(v)
}

func (d *decoder) uint() uint64 {
	tok := d.number()
	if d.err != nil {
		return 0
	}
	v, err := strconv.ParseUint(string(tok), 10, 64)
	if err != nil {
		d.fail(err.Error())
	}
	return v
}

// roundDigest fingerprints a round's Assignment as jsonDigest did when
// the assignment named jobs by ID — the first 8 bytes of the sha256 of
// the json.Marshal encoding of {Place map[ID]Alloc, Drop []ID,
// Migrate []ID}, in hex — and appends that encoding by hand into a
// buffer the server keeps: {"Place":…,"Drop":…,"Migrate":…}, Place's
// jobs sorted by ID bytewise, each value {"GPUType":…,"N":…}, Drop's and
// Migrate's IDs in list order, null for a nil map or slice and {} or []
// for an empty one. The daemon refuses to reuse an ID, so the placed
// jobs' IDs are distinct and the bytes are those of the ID-keyed
// assignment journals were written with. Callers hold mu or own the
// server exclusively.
func (s *Server) roundDigest(asg sched.Assignment) string {
	b := append(s.digestBuf[:0], `{"Place":`...)
	if asg.Place == nil {
		b = append(b, "null"...)
	} else {
		keys := s.digestKeys[:0]
		for j := range asg.Place {
			keys = append(keys, j)
		}
		//arena:allow stablesort the daemon's job IDs are unique
		slices.SortFunc(keys, func(x, y *sched.Job) int {
			return strings.Compare(x.Trace.ID, y.Trace.ID)
		})
		b = append(b, '{')
		for i, j := range keys {
			if i > 0 {
				b = append(b, ',')
			}
			a := asg.Place[j]
			b = appendJSONString(b, j.Trace.ID)
			b = append(b, `:{"GPUType":`...)
			b = appendJSONString(b, a.GPUType)
			b = append(b, `,"N":`...)
			b = strconv.AppendInt(b, int64(a.N), 10)
			b = append(b, '}')
		}
		b = append(b, '}')
		clear(keys)
		s.digestKeys = keys[:0]
	}
	b = append(b, `,"Drop":`...)
	b = appendJSONIDs(b, asg.Drop)
	b = append(b, `,"Migrate":`...)
	b = appendJSONIDs(b, asg.Migrate)
	b = append(b, '}')
	s.digestBuf = b
	sum := sha256.Sum256(b)
	return hex.EncodeToString(sum[:8])
}

// appendJSONIDs appends the IDs of a job list as json.Marshal writes a
// string slice.
func appendJSONIDs(b []byte, jobs []*sched.Job) []byte {
	if jobs == nil {
		return append(b, "null"...)
	}
	b = append(b, '[')
	for i, j := range jobs {
		if i > 0 {
			b = append(b, ',')
		}
		b = appendJSONString(b, j.Trace.ID)
	}
	return append(b, ']')
}

// appendJSONString appends s quoted as json.Marshal writes it. Printable
// ASCII other than the quote, the backslash and the HTML-escaped <, >
// and & is copied; a string holding anything else goes through
// json.Marshal, which writes its escapes.
func appendJSONString(b []byte, s string) []byte {
	for i := 0; i < len(s); i++ {
		if c := s[i]; c < 0x20 || c >= 0x7f || c == '"' || c == '\\' || c == '<' || c == '>' || c == '&' {
			enc, err := json.Marshal(s)
			if err != nil {
				panic(err) // a string always encodes
			}
			return append(b, enc...)
		}
	}
	b = append(b, '"')
	b = append(b, s...)
	return append(b, '"')
}
