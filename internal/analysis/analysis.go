// Package analysis is a small, dependency-free reimplementation of
// the golang.org/x/tools/go/analysis contract: analyzers receive one
// type-checked package and report position-anchored diagnostics, with
// package-level facts flowing along import edges so cross-package
// invariants (one metric name = one kind) survive separate analysis of
// each package. One driver runs them: a unitchecker speaking cmd/go's
// vet config protocol, so the mediavet binary plugs into
// `go vet -vettool=`. mediavet's standalone mode and the analysistest
// harness both run go vet with a tool built on it — see cmd/mediavet.
//
// The suite-wide escape hatch is the comment directive
//
//	//mediavet:ignore <reason>
//
// which suppresses every mediavet diagnostic on its line (trailing
// form) or on the line below (own-line form). The reason is
// mandatory: a bare //mediavet:ignore is itself a diagnostic, so a
// suppression always carries its justification next to the code it
// excuses.
package analysis

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
)

// Analyzer is one named invariant check over a type-checked package.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and in the boolean
	// enable/disable flag the driver exposes (-simdeterminism=false).
	Name string
	// Doc is a one-paragraph description: the invariant guarded and
	// why it matters.
	Doc string
	// Run inspects one package via the Pass and reports diagnostics.
	Run func(*Pass) error
	// FactTypes lists the concrete fact types the analyzer exports or
	// imports, for gob registration by the unitchecker driver. Each
	// must be a pointer to a gob-encodable struct.
	FactTypes []Fact
}

// Fact is a package-level datum exported by an analyzer for use when
// analyzing downstream importers. Facts must be gob-encodable pointer
// types.
type Fact interface {
	// AFact marks the type as a fact; it has no behaviour.
	AFact()
}

// Diagnostic is one reported violation.
type Diagnostic struct {
	Pos      token.Pos
	Message  string
	Analyzer string // filled by the driver
}

// Pass carries one package's syntax and types to one analyzer.
type Pass struct {
	Analyzer  *Analyzer
	Fset      *token.FileSet
	Files     []*ast.File // non-test files of the package
	Pkg       *types.Package
	TypesInfo *types.Info

	report func(Diagnostic)
	facts  *factStore
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...), Analyzer: p.Analyzer.Name})
}

// ExportPackageFact records fact for the package under analysis.
func (p *Pass) ExportPackageFact(fact Fact) {
	p.facts.set(p.Pkg.Path(), p.Analyzer.Name, fact)
}

// ImportPackageFact copies the named package's fact of fact's concrete
// type into fact, reporting whether one was found. Facts are available
// for every package the current one imports (directly; analyzers that
// need transitive reach export merged facts).
func (p *Pass) ImportPackageFact(path string, fact Fact) bool {
	return p.facts.get(path, p.Analyzer.Name, fact)
}

// InModule reports whether path is the module itself or a package
// inside it.
func InModule(module, path string) bool {
	return path == module || (len(path) > len(module) && path[:len(module)] == module && path[len(module)] == '/')
}
