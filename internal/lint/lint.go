// Package lint is a self-contained static-analysis framework plus the
// project-specific analyzers that enforce this repository's invariants:
// determinism of float reductions (floatmaporder), immutability of published
// snapshots (snapshotalias), mutex discipline on annotated fields
// (guardedby), WAL-append-before-publish ordering (walorder), and checked
// Close/Sync errors on the durability surfaces (closecheck).
//
// The framework mirrors the golang.org/x/tools/go/analysis API shape —
// Analyzer, Pass, Diagnostic — but is built entirely on the standard
// library: packages are enumerated and their imports resolved through
// `go list -export` (compiler export data from the build cache), then
// type-checked with go/types. The build environment is hermetic, so
// depending on x/tools itself is not an option; the subset implemented here
// is exactly what the project's analyzers need.
//
// Diagnostics can be suppressed with a directive comment on the offending
// line or the line directly above it:
//
//	//lint:ignore <analyzer>[,<analyzer>...] <reason>
//
// The reason is mandatory; an ignore without one is itself reported. Every
// suppression in the tree documents why the flagged pattern is safe.
package lint

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"sort"
)

// An Analyzer describes one static-analysis pass.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and ignore directives.
	// It must be a valid identifier.
	Name string
	// Doc is the one-paragraph description printed by pcpm-lint -list.
	Doc string
	// Run applies the analyzer to one package.
	Run func(*Pass) error
}

// A Pass provides one analyzer run with a single type-checked package and
// collects its diagnostics.
type Pass struct {
	Analyzer *Analyzer
	Fset     *token.FileSet
	// Files are the package's parsed syntax trees, with comments.
	Files []*ast.File
	// Pkg and TypesInfo are the go/types view of the package.
	Pkg       *types.Package
	TypesInfo *types.Info

	diags *[]Diagnostic
}

// Reportf records a diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	*p.diags = append(*p.diags, Diagnostic{
		Analyzer: p.Analyzer.Name,
		Pos:      p.Fset.Position(pos),
		Message:  fmt.Sprintf(format, args...),
	})
}

// A Diagnostic is one finding, already resolved to a file position.
type Diagnostic struct {
	Analyzer string
	Pos      token.Position
	Message  string
}

func (d Diagnostic) String() string {
	return fmt.Sprintf("%s: %s [%s]", d.Pos, d.Message, d.Analyzer)
}

// sortDiagnostics orders findings by file, line, column, analyzer.
func sortDiagnostics(diags []Diagnostic) {
	sort.Slice(diags, func(i, j int) bool {
		a, b := diags[i], diags[j]
		if a.Pos.Filename != b.Pos.Filename {
			return a.Pos.Filename < b.Pos.Filename
		}
		if a.Pos.Line != b.Pos.Line {
			return a.Pos.Line < b.Pos.Line
		}
		if a.Pos.Column != b.Pos.Column {
			return a.Pos.Column < b.Pos.Column
		}
		return a.Analyzer < b.Analyzer
	})
}

// RunAnalyzers applies every analyzer to every package and returns the
// surviving (non-suppressed) diagnostics in stable order. Suppressed
// findings are dropped; malformed or unused ignore directives are reported
// as findings of the pseudo-analyzer "lintdirective".
func RunAnalyzers(pkgs []*Package, analyzers []*Analyzer) ([]Diagnostic, error) {
	var diags []Diagnostic
	for _, pkg := range pkgs {
		var pkgDiags []Diagnostic
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.TypesInfo,
				diags:     &pkgDiags,
			}
			if err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("%s: %s: %w", a.Name, pkg.PkgPath, err)
			}
		}
		diags = append(diags, applyIgnores(pkg, pkgDiags)...)
	}
	sortDiagnostics(diags)
	return diags, nil
}
