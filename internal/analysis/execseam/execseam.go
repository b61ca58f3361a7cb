// Package execseam keeps simulation execution behind the
// dist.Executor seam. PR 5 routed every simulation through an
// Executor precisely so that scheduling policy — local pools, remote
// workers, sharding, failover, and the campaign-scale policies the
// ROADMAP plans — composes without touching callers; a stray sim.Run
// call re-opens the hole: it dodges worker capacity bounds, the
// result cache, the instrumentation counters and the distributed
// byte-identity guarantees all at once. Only internal/dist (the seam
// itself) and internal/obs (the instrumented runner) may touch
// sim.Run/sim.RunReference directly; everything else, the
// single-simulation CLI and the examples included, injects an Executor
// or resolves through exp.Suite.
package execseam

import (
	"go/ast"
	"go/types"

	"mediasmt/internal/analysis"
)

// Analyzer implements the execseam check.
var Analyzer = &analysis.Analyzer{
	Name: "execseam",
	Doc: "restrict direct sim.Run/sim.RunReference use to the executor seam's own packages\n\n" +
		"Everything outside internal/dist and internal/obs must execute simulations\n" +
		"through a dist.Executor so capacity bounds, caching, instrumentation and distribution\n" +
		"policies apply to every simulation in the process.",
	Run: run,
}

// simPath defines the guarded functions; allowed lists the packages
// (with their subtrees) that may call them directly. Tests are always
// exempt — analyzers skip _test.go files.
const simPath = "mediasmt/internal/sim"

var allowed = []string{
	simPath, // the definitions themselves
	"mediasmt/internal/dist",
	"mediasmt/internal/obs",
}

// guarded are the sim entry points that execute a simulation.
var guarded = map[string]bool{"Run": true, "RunReference": true}

func run(pass *analysis.Pass) error {
	for _, prefix := range allowed {
		if analysis.InModule(prefix, pass.Pkg.Path()) {
			return nil
		}
	}
	for _, file := range analysis.NonTestFiles(pass.Fset, pass.Files) {
		ast.Inspect(file, func(n ast.Node) bool {
			sel, ok := n.(*ast.SelectorExpr)
			if !ok || !guarded[sel.Sel.Name] {
				return true
			}
			fn, ok := pass.TypesInfo.Uses[sel.Sel].(*types.Func)
			if !ok || fn.Pkg() == nil || fn.Pkg().Path() != simPath {
				return true
			}
			pass.Reportf(sel.Pos(), "sim.%s bypasses the dist.Executor seam: inject an Executor (dist.NewLocal, exp.NewRunnerExecutor) so capacity bounds, caching and distribution policies apply", fn.Name())
			return true
		})
	}
	return nil
}
