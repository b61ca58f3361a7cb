package analysis

import (
	"go/ast"
	"go/token"
	"sort"
	"strings"
)

// runAnalyzers applies every enabled analyzer to the package base
// carries (Fset, Files, Pkg, TypesInfo and the fact store), and returns
// the surviving diagnostics sorted by position: mediavet:ignore
// suppressions are applied, malformed directives are themselves
// reported, and each analyzer's fact exports land in the fact store
// for downstream packages.
func runAnalyzers(base Pass, analyzers []*Analyzer) ([]Diagnostic, error) {
	ignores, malformed := scanIgnores(base.Fset, base.Files)
	diags := malformed
	for _, a := range analyzers {
		pass := base
		pass.Analyzer = a
		pass.report = func(d Diagnostic) {
			pos := base.Fset.Position(d.Pos)
			if ignores.suppressed(pos.Filename, pos.Line) {
				return
			}
			diags = append(diags, d)
		}
		if err := a.Run(&pass); err != nil {
			return nil, err
		}
	}
	sort.SliceStable(diags, func(i, j int) bool {
		pi, pj := base.Fset.Position(diags[i].Pos), base.Fset.Position(diags[j].Pos)
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		return pi.Column < pj.Column
	})
	return diags, nil
}

// NonTestFiles filters a package's syntax down to the files analyzers
// inspect: _test.go files carry test scaffolding (fakes, forced
// failures) that deliberately breaks production invariants, so every
// analyzer skips them.
func NonTestFiles(fset *token.FileSet, files []*ast.File) []*ast.File {
	out := files[:0:0]
	for _, f := range files {
		name := fset.Position(f.Pos()).Filename
		if strings.HasSuffix(name, "_test.go") {
			continue
		}
		out = append(out, f)
	}
	return out
}

// enabledAnalyzers applies the per-analyzer boolean flags.
func enabledAnalyzers(analyzers []*Analyzer, enabled map[string]bool) []*Analyzer {
	out := analyzers[:0:0]
	for _, a := range analyzers {
		if on, ok := enabled[a.Name]; !ok || on {
			out = append(out, a)
		}
	}
	return out
}
