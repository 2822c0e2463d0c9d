package server

import (
	"encoding/binary"
	"math"
	"math/rand"
	"net/http"
	"net/http/httptest"
	"reflect"
	"testing"
)

// viewSource supplies field values by kind.
type viewSource struct {
	str  func() string
	int  func() int
	flt  func() float64
	flag func() bool
}

// fillView sets every field of v from src through reflection, so a field
// added to JobView is filled too, and the comparisons below fail until
// appendJobView writes it.
func fillView(t testing.TB, v *JobView, src viewSource) {
	t.Helper()
	rv := reflect.ValueOf(v).Elem()
	for i := 0; i < rv.NumField(); i++ {
		switch f := rv.Field(i); f.Kind() {
		case reflect.String:
			f.SetString(src.str())
		case reflect.Int:
			f.SetInt(int64(src.int()))
		case reflect.Float64:
			f.SetFloat(src.flt())
		case reflect.Bool:
			f.SetBool(src.flag())
		default:
			t.Fatalf("JobView.%s is a %s, which fillView cannot set", rv.Type().Field(i).Name, f.Kind())
		}
	}
}

// randomViews draws field values that reach every branch of the
// encoding: omitted zeros, strings with HTML-escapable, control,
// non-ASCII and invalid UTF-8 characters, floats in both formats and
// at their cut-offs, and now and then NaN or an infinity.
func randomViews(r *rand.Rand) viewSource {
	return viewSource{
		str: func() string {
			if r.Intn(4) == 0 {
				return ""
			}
			return randomString(r)
		},
		int: func() int { return randomInt(r) },
		flt: func() float64 {
			if r.Intn(40) == 0 {
				return []float64{math.NaN(), math.Inf(1), math.Inf(-1)}[r.Intn(3)]
			}
			return randomFloat(r)
		},
		flag: func() bool { return r.Intn(2) == 0 },
	}
}

// bytesViews draws field values from data, a fuzzer's input, and
// zeros once it runs out.
func bytesViews(data *[]byte) viewSource {
	next := func(n int) []byte {
		n = min(n, len(*data))
		b := (*data)[:n]
		*data = (*data)[n:]
		return b
	}
	word := func() uint64 {
		var w [8]byte
		copy(w[:], next(8))
		return binary.LittleEndian.Uint64(w[:])
	}
	return viewSource{
		str: func() string {
			n := next(1)
			if len(n) == 0 {
				return ""
			}
			return string(next(int(n[0] % 32)))
		},
		int:  func() int { return int(word()) },
		flt:  func() float64 { return math.Float64frombits(word()) },
		flag: func() bool { b := next(1); return len(b) > 0 && b[0]&1 == 1 },
	}
}

// response is what a handler's write leaves in a recorder.
type response struct {
	code        int
	contentType string
	body        string
}

func respond(write func(w http.ResponseWriter)) response {
	rec := httptest.NewRecorder()
	write(rec)
	return response{rec.Code, rec.Header().Get("Content-Type"), rec.Body.String()}
}

// checkBodies compares what the job handlers write for the first of
// views alone and for all of them as a list with writeJSON's indenting
// encoder: the status, the Content-Type and the body byte for byte,
// which is no body at all when a float is NaN or infinite.
func checkBodies(t *testing.T, views []JobView) {
	t.Helper()
	want := respond(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, views[0]) })
	got := respond(func(w http.ResponseWriter) {
		body, ok := jobBody(&views[0])
		writeBody(w, http.StatusOK, body, ok)
	})
	if got != want {
		t.Fatalf("view %+v:\n hand-written %+v\n json.Encoder %+v", views[0], got, want)
	}
	want = respond(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, views) })
	got = respond(func(w http.ResponseWriter) {
		body, ok := jobsBody(views)
		writeBody(w, http.StatusOK, body, ok)
	})
	if got != want {
		t.Fatalf("list of %d views %+v:\n hand-written %+v\n json.Encoder %+v", len(views), views, got, want)
	}
}

// TestJobViewBodyMatchesEncoder compares the hand-written JobView bodies
// with writeJSON's output on random views, every field set by
// reflection, alone and in lists of one to four, and the empty list.
func TestJobViewBodyMatchesEncoder(t *testing.T) {
	if got, want := respond(func(w http.ResponseWriter) {
		body, ok := jobsBody([]JobView{})
		writeBody(w, http.StatusOK, body, ok)
	}), respond(func(w http.ResponseWriter) { writeJSON(w, http.StatusOK, []JobView{}) }); got != want {
		t.Fatalf("empty list: hand-written %+v, json.Encoder %+v", got, want)
	}
	n := 20_000
	if testing.Short() {
		n = 2_000
	}
	r := rand.New(rand.NewSource(27))
	src := randomViews(r)
	refused := 0
	for i := 0; i < n; i++ {
		views := make([]JobView, 1+r.Intn(4))
		for k := range views {
			fillView(t, &views[k], src)
		}
		checkBodies(t, views)
		if _, ok := jobBody(&views[0]); !ok {
			refused++
		}
	}
	if refused == 0 || refused == n {
		t.Fatalf("%d of %d views have a NaN or an infinity: want some, not all", refused, n)
	}
}

// FuzzJobView fills JobViews field by field from the input and compares
// the hand-written bodies, alone and as a list, with writeJSON's.
func FuzzJobView(f *testing.F) {
	r := rand.New(rand.NewSource(27))
	for _, n := range []int{0, 8, 64, 256, 1024} {
		seed := make([]byte, n)
		r.Read(seed)
		f.Add(seed)
	}
	f.Fuzz(func(t *testing.T, data []byte) {
		src := bytesViews(&data)
		views := make([]JobView, 1)
		fillView(t, &views[0], src)
		for len(data) > 0 && len(views) < 4 {
			views = append(views, JobView{})
			fillView(t, &views[len(views)-1], src)
		}
		checkBodies(t, views)
	})
}
