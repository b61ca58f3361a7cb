package analysis

import (
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
)

// unitConfig mirrors cmd/go's vetConfig: the JSON file `go vet
// -vettool` hands the tool once per package. Field names must match
// what cmd/go marshals.
type unitConfig struct {
	ID           string
	Compiler     string
	Dir          string
	ImportPath   string
	GoFiles      []string
	NonGoFiles   []string
	IgnoredFiles []string

	ModulePath    string
	ModuleVersion string
	ImportMap     map[string]string
	PackageFile   map[string]string
	Standard      map[string]bool
	PackageVetx   map[string]string
	VetxOnly      bool
	VetxOutput    string
	GoVersion     string

	SucceedOnTypecheckFailure bool
}

// runUnit implements one vet-protocol invocation: load the package
// described by cfgFile, run the enabled analyzers, write the facts
// file cmd/go expects, and report diagnostics. Returns the process
// exit code (0 clean, 1 tool error, 2 diagnostics).
func runUnit(cfgFile, module string, analyzers []*Analyzer, enabled map[string]bool) int {
	analyzers = enabledAnalyzers(analyzers, enabled)
	registerFactTypes(analyzers)

	data, err := os.ReadFile(cfgFile)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		return 1
	}
	cfg := new(unitConfig)
	if err := json.Unmarshal(data, cfg); err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: parse %s: %v\n", cfgFile, err)
		return 1
	}

	facts := newFactStore()
	for _, vetx := range cfg.PackageVetx {
		if err := facts.readVetx(vetx); err != nil {
			fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
			return 1
		}
	}

	// Packages outside the module cannot violate its invariants and
	// export no facts of their own; skip the type-check entirely and
	// pass any dependency facts through.
	if !InModule(module, cfg.ImportPath) {
		return writeUnitFacts(cfg, facts)
	}

	fset := token.NewFileSet()
	files := make([]*ast.File, 0, len(cfg.GoFiles))
	for _, name := range cfg.GoFiles {
		f, err := parser.ParseFile(fset, name, nil, parser.ParseComments)
		if err != nil {
			if cfg.SucceedOnTypecheckFailure {
				return 0
			}
			fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
			return 1
		}
		files = append(files, f)
	}

	imp := &unitImporter{cfg: cfg}
	imp.gc = importer.ForCompiler(fset, "gc", imp.lookup)
	info := &types.Info{
		Types:      make(map[ast.Expr]types.TypeAndValue),
		Defs:       make(map[*ast.Ident]types.Object),
		Uses:       make(map[*ast.Ident]types.Object),
		Implicits:  make(map[ast.Node]types.Object),
		Selections: make(map[*ast.SelectorExpr]*types.Selection),
		Scopes:     make(map[ast.Node]*types.Scope),
		Instances:  make(map[*ast.Ident]types.Instance),
	}
	conf := types.Config{Importer: imp, GoVersion: cfg.GoVersion}
	pkg, err := conf.Check(cfg.ImportPath, fset, files, info)
	if err != nil {
		if cfg.SucceedOnTypecheckFailure {
			return 0
		}
		fmt.Fprintf(os.Stderr, "mediavet: type-check %s: %v\n", cfg.ImportPath, err)
		return 1
	}

	diags, err := runAnalyzers(Pass{Fset: fset, Files: files, Pkg: pkg, TypesInfo: info, facts: facts}, analyzers)
	if err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		return 1
	}
	if code := writeUnitFacts(cfg, facts); code != 0 {
		return code
	}
	if cfg.VetxOnly || len(diags) == 0 {
		return 0
	}
	printDiagnostics(os.Stderr, fset, diags)
	return 2
}

// writeUnitFacts persists the fact store to the path cmd/go will feed
// to dependent packages' runs.
func writeUnitFacts(cfg *unitConfig, facts *factStore) int {
	if cfg.VetxOutput == "" {
		return 0
	}
	if err := facts.writeVetx(cfg.VetxOutput); err != nil {
		fmt.Fprintf(os.Stderr, "mediavet: %v\n", err)
		return 1
	}
	return 0
}

// printDiagnostics renders diagnostics in the documented format:
//
//	file:line:col: message (mediavet:analyzer)
func printDiagnostics(w io.Writer, fset *token.FileSet, diags []Diagnostic) {
	for _, d := range diags {
		fmt.Fprintf(w, "%s: %s (mediavet:%s)\n", fset.Position(d.Pos), d.Message, d.Analyzer)
	}
}

// unitImporter resolves imports through the vet config's compiled
// export data, applying the raw-import-path → canonical-path map.
type unitImporter struct {
	cfg *unitConfig
	gc  types.Importer
}

func (i *unitImporter) Import(path string) (*types.Package, error) {
	if canonical := i.cfg.ImportMap[path]; canonical != "" {
		path = canonical
	}
	return i.gc.Import(path)
}

func (i *unitImporter) lookup(path string) (io.ReadCloser, error) {
	file := i.cfg.PackageFile[path]
	if file == "" {
		return nil, fmt.Errorf("mediavet: no export data for %q in vet config", path)
	}
	return os.Open(file)
}
