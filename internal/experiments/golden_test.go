package experiments

import (
	"bytes"
	"context"
	"flag"
	"os"
	"path/filepath"
	"testing"
)

var updateFigures = flag.Bool("update", false, "rewrite testdata/figures.txt from the current code")

// figuresPath holds every table `arena-bench -fig all -seed 42` prints,
// without its "completed in" lines.
var figuresPath = filepath.Join("testdata", "figures.txt")

// TestFigureGolden runs every registered experiment at seed 42 and
// compares the printed tables, byte for byte, with testdata/figures.txt.
// A change meant to move a figure regenerates the file with
// `go test ./internal/experiments -run TestFigureGolden -update`.
func TestFigureGolden(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every experiment: about 30 s on two cores")
	}
	env := NewEnv(42)
	var got bytes.Buffer
	for _, ex := range env.Registry() {
		table, err := ex.Run(context.Background())
		if err != nil {
			t.Fatalf("%s: %v", ex.ID, err)
		}
		table.Fprint(&got)
		got.WriteByte('\n') // arena-bench's blank line after "completed in"
	}
	if *updateFigures {
		if err := os.WriteFile(figuresPath, got.Bytes(), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(figuresPath)
	if err != nil {
		t.Fatalf("%v (regenerate with -update)", err)
	}
	if bytes.Equal(got.Bytes(), want) {
		return
	}
	gotLines := bytes.Split(got.Bytes(), []byte("\n"))
	wantLines := bytes.Split(want, []byte("\n"))
	for i := 0; i < len(gotLines) || i < len(wantLines); i++ {
		var g, w []byte
		if i < len(gotLines) {
			g = gotLines[i]
		}
		if i < len(wantLines) {
			w = wantLines[i]
		}
		if !bytes.Equal(g, w) {
			t.Fatalf("figures differ from %s at line %d:\n got: %s\nwant: %s", figuresPath, i+1, g, w)
		}
	}
}
