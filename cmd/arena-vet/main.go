// Command arena-vet is the driver for the repository's
// determinism-discipline analyzer suite (internal/analysis). It runs
// two ways:
//
//	arena-vet [-tags tags] [packages]     standalone
//	go vet -vettool=$(which arena-vet) ./...
//
// The second form speaks the go vet unitchecker protocol (-V=full,
// -flags, and a JSON .cfg file per compilation unit), so the go
// command's build cache drives incremental analysis, test files are
// included per unit, and packages outside this module are skipped
// cheaply. Diagnostics print as
//
//	file:line:col: message [analyzer]
//
// and any finding makes the process exit non-zero: 1 for findings,
// 2 for operational errors (standalone mode).
package main

import (
	"crypto/sha256"
	"encoding/json"
	"flag"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"log"
	"os"
	"path/filepath"
	"strings"

	"github.com/sjtu-epcc/arena/internal/analysis"
)

var (
	tagsFlag = flag.String("tags", "", "build tags to forward to the go command (standalone mode)")
	jsonFlag = flag.Bool("json", false, "emit diagnostics as JSON")
)

func main() {
	progname := filepath.Base(os.Args[0])
	log.SetFlags(0)
	log.SetPrefix(progname + ": ")

	// -V=full and -flags are the go vet tool handshake.
	flag.Var(versionFlag{}, "V", "print version and exit")
	printflags := flag.Bool("flags", false, "print analyzer flags in JSON")
	flag.Parse()

	if *printflags {
		printFlagDefs()
		os.Exit(0)
	}

	args := flag.Args()
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		runUnit(args[0])
		return
	}
	runStandalone(args)
}

// runStandalone loads the whole module from source and sweeps it.
func runStandalone(patterns []string) {
	wd, err := os.Getwd()
	if err != nil {
		log.Fatal(err)
	}
	root, err := analysis.FindModuleRoot(wd)
	if err != nil {
		log.Fatal(err)
	}
	res, err := analysis.LoadModule(analysis.LoadConfig{
		Dir:      root,
		Patterns: patterns,
		Tags:     *tagsFlag,
	})
	if err != nil {
		log.Print(err)
		os.Exit(2)
	}
	var diags []analysis.Diagnostic
	for _, pkg := range res.Packages {
		ds, err := analysis.RunPackage(pkg, analysis.All())
		if err != nil {
			log.Print(err)
			os.Exit(2)
		}
		diags = append(diags, ds...)
	}
	printDiags(os.Stdout, diags)
	if len(diags) > 0 {
		os.Exit(1)
	}
}

// vetConfig mirrors the JSON compilation-unit description the go
// command hands a -vettool (x/tools unitchecker.Config).
type vetConfig struct {
	ID                        string
	Compiler                  string
	Dir                       string
	ImportPath                string
	GoVersion                 string
	GoFiles                   []string
	NonGoFiles                []string
	IgnoredFiles              []string
	ModulePath                string
	ModuleVersion             string
	ImportMap                 map[string]string
	PackageFile               map[string]string
	Standard                  map[string]bool
	PackageVetx               map[string]string
	VetxOnly                  bool
	VetxOutput                string
	SucceedOnTypecheckFailure bool
}

// runUnit analyzes one compilation unit under the go vet protocol.
func runUnit(cfgFile string) {
	data, err := os.ReadFile(cfgFile)
	if err != nil {
		log.Fatal(err)
	}
	cfg := new(vetConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		log.Fatalf("cannot decode JSON config file %s: %v", cfgFile, err)
	}

	// The go command caches analysis output ("facts") per unit and
	// feeds it to dependents; this suite carries no facts, but the
	// output file must exist for the cache entry to form.
	if cfg.VetxOutput != "" {
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			log.Fatal(err)
		}
	}
	if cfg.VetxOnly {
		os.Exit(0)
	}
	// Units outside this module (the standard library, typically) have
	// nothing in scope; skip without even parsing.
	if !applicable(cfg.ImportPath) {
		os.Exit(0)
	}

	fset := token.NewFileSet()
	parsed, err := parseFiles(fset, cfg.GoFiles)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatal(err)
	}
	imp := newVetImporter(fset, cfg)
	info := analysis.NewTypesInfo()
	tc := &types.Config{Importer: imp, GoVersion: cfg.GoVersion, FakeImportC: true}
	pkg, err := tc.Check(cfg.ImportPath, fset, parsed, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			os.Exit(0)
		}
		log.Fatal(err)
	}
	unit := &analysis.Package{
		Fset:       fset,
		Files:      parsed,
		Pkg:        pkg,
		TypesInfo:  info,
		ImportPath: cfg.ImportPath,
	}
	diags, err := analysis.RunPackage(unit, analysis.All())
	if err != nil {
		log.Fatal(err)
	}
	printDiags(os.Stderr, diags)
	if len(diags) > 0 {
		os.Exit(1)
	}
	os.Exit(0)
}

// applicable reports whether any analyzer could fire on importPath.
func applicable(importPath string) bool {
	importPath = strings.TrimSuffix(importPath, "_test")
	return importPath == analysis.ModulePath ||
		strings.HasPrefix(importPath, analysis.ModulePath+"/")
}

// vetImporter resolves imports through the unit's ImportMap and reads
// type information from the compiler export data files the go command
// listed in PackageFile.
type vetImporter struct {
	fset     *token.FileSet
	cfg      *vetConfig
	compiler types.Importer
}

func newVetImporter(fset *token.FileSet, cfg *vetConfig) *vetImporter {
	v := &vetImporter{fset: fset, cfg: cfg}
	compiler := cfg.Compiler
	if compiler == "" {
		compiler = "gc"
	}
	v.compiler = importer.ForCompiler(fset, compiler, func(path string) (io.ReadCloser, error) {
		file, ok := cfg.PackageFile[path]
		if !ok {
			return nil, fmt.Errorf("no package file for %q", path)
		}
		return os.Open(file)
	})
	return v
}

func (v *vetImporter) Import(importPath string) (*types.Package, error) {
	path, ok := v.cfg.ImportMap[importPath]
	if !ok {
		return nil, fmt.Errorf("can't resolve import %q", importPath)
	}
	return v.compiler.Import(path)
}

func parseFiles(fset *token.FileSet, names []string) ([]*ast.File, error) {
	var out []*ast.File
	for _, name := range names {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			return nil, err
		}
		out = append(out, f)
	}
	return out, nil
}

func printDiags(w io.Writer, diags []analysis.Diagnostic) {
	if *jsonFlag {
		type jsonDiag struct {
			Posn     string `json:"posn"`
			Message  string `json:"message"`
			Analyzer string `json:"analyzer"`
		}
		out := make([]jsonDiag, 0, len(diags))
		for _, d := range diags {
			out = append(out, jsonDiag{d.Pos.String(), d.Message, d.Analyzer})
		}
		data, err := json.MarshalIndent(out, "", "\t")
		if err != nil {
			log.Fatal(err)
		}
		w.Write(append(data, '\n'))
		return
	}
	for _, d := range diags {
		fmt.Fprintln(w, d)
	}
}

func printFlagDefs() {
	type jsonFlag struct {
		Name  string
		Bool  bool
		Usage string
	}
	var flags []jsonFlag
	flag.VisitAll(func(f *flag.Flag) {
		b, ok := f.Value.(interface{ IsBoolFlag() bool })
		flags = append(flags, jsonFlag{f.Name, ok && b.IsBoolFlag(), f.Usage})
	})
	data, err := json.MarshalIndent(flags, "", "\t")
	if err != nil {
		log.Fatal(err)
	}
	os.Stdout.Write(data)
}

// versionFlag implements the -V=full protocol: the go command hashes
// the reported build ID into its action cache key, so the output must
// change when the binary does.
type versionFlag struct{}

func (versionFlag) IsBoolFlag() bool { return true }
func (versionFlag) Get() any         { return nil }
func (versionFlag) String() string   { return "" }
func (versionFlag) Set(s string) error {
	if s != "full" {
		log.Fatalf("unsupported flag value: -V=%s (use -V=full)", s)
	}
	exe, err := os.Executable()
	if err != nil {
		return err
	}
	f, err := os.Open(exe)
	if err != nil {
		log.Fatal(err)
	}
	h := sha256.New()
	if _, err := io.Copy(h, f); err != nil {
		log.Fatal(err)
	}
	f.Close()
	fmt.Printf("%s version devel comments-go-here buildID=%02x\n",
		filepath.Base(os.Args[0]), string(h.Sum(nil)))
	os.Exit(0)
	return nil
}
