// Package framework is a self-contained miniature of the
// golang.org/x/tools/go/analysis API, built only on the standard
// library's go/ast, go/types and go/importer. The container this repo
// grows in has no module proxy access, so vendoring x/tools is not an
// option; the types here keep the same names and shapes (Analyzer,
// Pass, Diagnostic, Pass.Reportf) so the analyzers under
// internal/analysis can be ported to the real framework by swapping an
// import path if the dependency ever becomes available.
//
// The framework exists for one purpose: the determinism lint suite run
// by cmd/pfsim-lint. Every simulated result in this repo is required to
// be byte-identical across runs, platforms and solver parallelism
// settings, and the analyzers enforce the source-level invariants that
// property tests can only spot-check (see the "Determinism rules"
// section of the README).
package framework

import (
	"fmt"
	"go/ast"
	"go/token"
	"go/types"
	"strings"
)

// An Analyzer describes one static check. It is the unit cmd/pfsim-lint
// selects with -run and the unit analysistest exercises.
type Analyzer struct {
	// Name identifies the analyzer in diagnostics and flag values. By
	// convention it is a single lowercase word.
	Name string
	// Doc is the analyzer's help text; the first line is shown by
	// pfsim-lint -list.
	Doc string
	// Run applies the analyzer to one package. Diagnostics go through
	// pass.Report; the result value is unused by this framework (kept
	// for x/tools signature compatibility).
	Run func(*Pass) (any, error)
}

// A Pass provides one analyzer run with a single type-checked package.
type Pass struct {
	// Analyzer is the check being applied.
	Analyzer *Analyzer
	// Fset maps token positions for Files.
	Fset *token.FileSet
	// Files are the package's parsed source files (comments included).
	Files []*ast.File
	// Pkg is the type-checked package.
	Pkg *types.Package
	// TypesInfo holds type and object resolution for Files.
	TypesInfo *types.Info
	// Report delivers one diagnostic to the driver.
	Report func(Diagnostic)
}

// Reportf reports a formatted diagnostic at pos.
func (p *Pass) Reportf(pos token.Pos, format string, args ...any) {
	p.Report(Diagnostic{Pos: pos, Message: fmt.Sprintf(format, args...)})
}

// A Diagnostic is one finding at a source position.
type Diagnostic struct {
	Pos     token.Pos
	Message string
}

// SimCritical reports whether the import path names a package the
// determinism invariants apply to: every package under internal/
// except the analysis suite itself. Any map-iteration order or
// wall-clock read there can leak into simulated state, event ordering,
// emitted telemetry or a rendered report. cmd tools and examples sit
// outside the set (barego has its own, stricter applicability — see
// its doc). The path is matched by its elements, so analysistest
// fixtures (fixture/internal/flow) classify the same way as the real
// module (pfsim/internal/flow).
func SimCritical(path string) bool {
	_, rest, ok := strings.Cut("/"+path+"/", "/internal/")
	return ok && !strings.HasPrefix(rest, "analysis/")
}
