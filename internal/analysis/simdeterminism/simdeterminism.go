// Package simdeterminism forbids the constructs that break the
// simulator's core guarantee: for a given Config, every run commits
// byte-identical Results on every machine. The content-addressed
// result cache (internal/cache), the byte-identical distributed mode
// (internal/dist) and the cross-engine equivalence proofs
// (internal/sim) are all sound only while that holds, so inside the
// simulator packages — internal/{core,mem,isa,sim,trace,workload} —
// wall-clock time, ambient randomness, goroutines and
// unordered map iteration are compile-time errors, not code-review
// hopes.
package simdeterminism

import (
	"go/ast"
	"go/types"

	"mediasmt/internal/analysis"
)

// Analyzer implements the simdeterminism check.
var Analyzer = &analysis.Analyzer{
	Name: "simdeterminism",
	Doc: "forbid wall-clock time, ambient randomness, goroutines and unordered map iteration in simulator packages\n\n" +
		"Simulation results must be a pure function of sim.Config: the result cache, the distributed\n" +
		"executor and the engine equivalence proofs all compare results byte-for-byte. time.Now,\n" +
		"math/rand, crypto/rand, go statements and bare map ranges each smuggle in host state.",
	Run: run,
}

// simPackages are the module subtrees the invariant covers (each
// matches the package itself and everything below it).
var simPackages = []string{
	"mediasmt/internal/core",
	"mediasmt/internal/mem",
	"mediasmt/internal/isa",
	"mediasmt/internal/sim",
	"mediasmt/internal/trace",
	"mediasmt/internal/workload",
}

// forbiddenImports map import path to the suggested remedy.
var forbiddenImports = map[string]string{
	"math/rand":    "use internal/trace.RNG seeded from the config",
	"math/rand/v2": "use internal/trace.RNG seeded from the config",
	"crypto/rand":  "use internal/trace.RNG seeded from the config",
}

// forbiddenTimeFuncs are the package-level time functions that read or
// wait on the host clock. time itself stays importable: time.Duration
// in APIs is harmless.
var forbiddenTimeFuncs = map[string]bool{
	"Now": true, "Since": true, "Until": true, "Sleep": true,
	"After": true, "Tick": true, "NewTicker": true, "NewTimer": true, "AfterFunc": true,
}

func run(pass *analysis.Pass) error {
	if !covered(pass.Pkg.Path()) {
		return nil
	}
	for _, file := range analysis.NonTestFiles(pass.Fset, pass.Files) {
		checkImports(pass, file)
		ast.Inspect(file, func(n ast.Node) bool {
			switch n := n.(type) {
			case *ast.GoStmt:
				pass.Reportf(n.Pos(), "go statement in simulator package %s: the core must stay single-threaded so runs are reproducible (concurrency belongs in internal/exp and internal/dist)", pass.Pkg.Path())
			case *ast.SelectorExpr:
				checkTimeCall(pass, n)
			case *ast.BlockStmt:
				checkMapRanges(pass, n.List)
			case *ast.CaseClause:
				checkMapRanges(pass, n.Body)
			case *ast.CommClause:
				checkMapRanges(pass, n.Body)
			}
			return true
		})
	}
	return nil
}

func covered(path string) bool {
	for _, p := range simPackages {
		if analysis.InModule(p, path) {
			return true
		}
	}
	return false
}

func checkImports(pass *analysis.Pass, file *ast.File) {
	for _, imp := range file.Imports {
		path := importPath(imp)
		if remedy, bad := forbiddenImports[path]; bad {
			pass.Reportf(imp.Pos(), "import %q in simulator package %s: %s", path, pass.Pkg.Path(), remedy)
		}
	}
}

func importPath(imp *ast.ImportSpec) string {
	// The unquote cannot fail on type-checked source.
	return imp.Path.Value[1 : len(imp.Path.Value)-1]
}

// checkTimeCall flags selector uses of the host clock: time.Now and
// friends, whether called or passed as a value.
func checkTimeCall(pass *analysis.Pass, sel *ast.SelectorExpr) {
	ident, ok := sel.X.(*ast.Ident)
	if !ok || !forbiddenTimeFuncs[sel.Sel.Name] {
		return
	}
	pkgName, ok := pass.TypesInfo.Uses[ident].(*types.PkgName)
	if !ok || pkgName.Imported().Path() != "time" {
		return
	}
	pass.Reportf(sel.Pos(), "time.%s in simulator package %s: simulator state must advance on simulated cycles, never the host clock", sel.Sel.Name, pass.Pkg.Path())
}

// checkMapRanges scans one statement list. A range over a map is
// non-deterministic by language definition; the only blessed shape is
// the key-collection idiom —
//
//	for k := range m { keys = append(keys, k) }
//	sort.Ints(keys) // or sort.Strings/sort.Slice/slices.Sort...
//
// with the sort appearing later in the same block. Everything else is
// reported (or carries a //mediavet:ignore with its justification).
func checkMapRanges(pass *analysis.Pass, stmts []ast.Stmt) {
	for i, stmt := range stmts {
		for {
			if lbl, ok := stmt.(*ast.LabeledStmt); ok {
				stmt = lbl.Stmt
				continue
			}
			break
		}
		rng, ok := stmt.(*ast.RangeStmt)
		if !ok {
			continue
		}
		typ := pass.TypesInfo.TypeOf(rng.X)
		if typ == nil {
			continue
		}
		if _, isMap := typ.Underlying().(*types.Map); !isMap {
			continue
		}
		if target := keyCollectTarget(pass, rng); target != nil && sortedLater(pass, stmts[i+1:], target) {
			continue
		}
		pass.Reportf(rng.Pos(), "map iteration order is non-deterministic: collect the keys, sort them, then index the map")
	}
}

// keyCollectTarget returns the object of the slice s when rng's body
// is exactly `s = append(s, key)` (key being the range key), else nil.
func keyCollectTarget(pass *analysis.Pass, rng *ast.RangeStmt) types.Object {
	if rng.Value != nil {
		if ident, ok := rng.Value.(*ast.Ident); !ok || ident.Name != "_" {
			return nil
		}
	}
	keyIdent, ok := rng.Key.(*ast.Ident)
	if !ok || len(rng.Body.List) != 1 {
		return nil
	}
	assign, ok := rng.Body.List[0].(*ast.AssignStmt)
	if !ok || len(assign.Lhs) != 1 || len(assign.Rhs) != 1 {
		return nil
	}
	lhs, ok := assign.Lhs[0].(*ast.Ident)
	if !ok {
		return nil
	}
	call, ok := assign.Rhs[0].(*ast.CallExpr)
	if !ok || len(call.Args) != 2 {
		return nil
	}
	if fn, ok := call.Fun.(*ast.Ident); !ok || fn.Name != "append" || pass.TypesInfo.Uses[fn] != types.Universe.Lookup("append") {
		return nil
	}
	dst, ok := call.Args[0].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[dst] != pass.TypesInfo.ObjectOf(lhs) {
		return nil
	}
	arg, ok := call.Args[1].(*ast.Ident)
	if !ok || pass.TypesInfo.Uses[arg] != pass.TypesInfo.ObjectOf(keyIdent) {
		return nil
	}
	return pass.TypesInfo.ObjectOf(lhs)
}

// sortedLater reports whether a later statement in the same block
// sorts the collected slice via the sort or slices packages.
func sortedLater(pass *analysis.Pass, rest []ast.Stmt, target types.Object) bool {
	for _, stmt := range rest {
		found := false
		ast.Inspect(stmt, func(n ast.Node) bool {
			call, ok := n.(*ast.CallExpr)
			if !ok || found {
				return !found
			}
			sel, ok := call.Fun.(*ast.SelectorExpr)
			if !ok || len(call.Args) == 0 {
				return true
			}
			pkgIdent, ok := sel.X.(*ast.Ident)
			if !ok {
				return true
			}
			pkgName, ok := pass.TypesInfo.Uses[pkgIdent].(*types.PkgName)
			if !ok {
				return true
			}
			if p := pkgName.Imported().Path(); p != "sort" && p != "slices" {
				return true
			}
			arg, ok := call.Args[0].(*ast.Ident)
			if ok && pass.TypesInfo.Uses[arg] == target {
				found = true
			}
			return !found
		})
		if found {
			return true
		}
	}
	return false
}
