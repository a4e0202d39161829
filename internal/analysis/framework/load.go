package framework

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os/exec"
	"path/filepath"
	"sort"
)

// A Package is one loaded, parsed and type-checked package ready for
// analysis.
type Package struct {
	ImportPath string
	Dir        string
	Fset       *token.FileSet
	Files      []*ast.File
	Types      *types.Package
	Info       *types.Info
}

// listedPackage is the slice of `go list -json` output the loader needs.
type listedPackage struct {
	ImportPath string
	Dir        string
	GoFiles    []string
	Standard   bool // standard library: left to the source importer
	DepOnly    bool // imported by a matched package, not matched itself
	Error      *struct{ Err string }
}

// Load resolves patterns (e.g. "./...") with the go command from dir,
// then parses and type-checks every matched package. Only GoFiles are
// analyzed: _test.go files intentionally exercise wall-clock waits and
// ad-hoc goroutines, so the determinism invariants bind shipped
// simulator code only.
//
// Imports of the matched packages and of their non-standard
// dependencies resolve to packages the loader checks itself (memoized,
// dependency-first), so each module package is type-checked once per
// run however many packages import it, and no pre-built export data is
// needed. The standard library falls back to the source importer. A
// pattern naming part of the module (./internal/flow) still checks its
// module dependencies, but only matched packages are returned, sorted
// by import path for deterministic output.
func Load(dir string, patterns []string) ([]*Package, error) {
	listed, err := goList(dir, patterns)
	if err != nil {
		return nil, err
	}
	sort.Slice(listed, func(i, j int) bool { return listed[i].ImportPath < listed[j].ImportPath })

	fset := token.NewFileSet()
	ld := &setImporter{
		fset:     fset,
		listed:   map[string]*listedPackage{},
		loaded:   map[string]*Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	for _, lp := range listed {
		if lp.Standard {
			continue
		}
		if lp.Error != nil {
			return nil, fmt.Errorf("analysis: load %s: %s", lp.ImportPath, lp.Error.Err)
		}
		ld.listed[lp.ImportPath] = lp
	}
	var pkgs []*Package
	for _, lp := range listed {
		if lp.Standard || lp.DepOnly || len(lp.GoFiles) == 0 {
			continue
		}
		pkg, err := ld.load(lp)
		if err != nil {
			return nil, err
		}
		pkgs = append(pkgs, pkg)
	}
	return pkgs, nil
}

// setImporter type-checks the listed package set: an import of a
// listed package resolves to the checked package itself (loading it on
// first demand, dependency-first), and everything else — in practice
// the standard library — falls back to the source importer. Go forbids
// import cycles, so the recursion terminates.
type setImporter struct {
	fset     *token.FileSet
	listed   map[string]*listedPackage
	loaded   map[string]*Package
	fallback types.Importer
}

// Import implements types.Importer.
func (si *setImporter) Import(path string) (*types.Package, error) {
	if lp, ok := si.listed[path]; ok && len(lp.GoFiles) > 0 {
		pkg, err := si.load(lp)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return si.fallback.Import(path)
}

// load parses and type-checks one listed package (memoized).
func (si *setImporter) load(lp *listedPackage) (*Package, error) {
	if pkg, ok := si.loaded[lp.ImportPath]; ok {
		return pkg, nil
	}
	var files []string
	for _, f := range lp.GoFiles {
		files = append(files, filepath.Join(lp.Dir, f))
	}
	pkg, err := Check(si.fset, si, lp.ImportPath, lp.Dir, files)
	if err != nil {
		return nil, err
	}
	si.loaded[lp.ImportPath] = pkg
	return pkg, nil
}

// Check parses and type-checks one package from explicit file paths.
// It is the single type-checking entry point shared by Load and the
// analysistest harness (which supplies its own importer chain).
func Check(fset *token.FileSet, imp types.Importer, importPath, dir string, files []string) (*Package, error) {
	var parsed []*ast.File
	for _, fn := range files {
		f, err := parser.ParseFile(fset, fn, nil, parser.ParseComments)
		if err != nil {
			return nil, fmt.Errorf("analysis: parse %s: %w", fn, err)
		}
		parsed = append(parsed, f)
	}
	info := &types.Info{
		Types:      map[ast.Expr]types.TypeAndValue{},
		Defs:       map[*ast.Ident]types.Object{},
		Uses:       map[*ast.Ident]types.Object{},
		Selections: map[*ast.SelectorExpr]*types.Selection{},
	}
	conf := types.Config{Importer: imp}
	tpkg, err := conf.Check(importPath, fset, parsed, info)
	if err != nil {
		return nil, fmt.Errorf("analysis: typecheck %s: %w", importPath, err)
	}
	return &Package{
		ImportPath: importPath,
		Dir:        dir,
		Fset:       fset,
		Files:      parsed,
		Types:      tpkg,
		Info:       info,
	}, nil
}

// goList shells out to `go list -json` in dir. The go command is the
// only authority on module-aware package resolution, and it works
// offline for a dependency-free module like this one.
func goList(dir string, patterns []string) ([]*listedPackage, error) {
	args := append([]string{"list", "-deps", "-json=ImportPath,Dir,GoFiles,Standard,DepOnly,Error"}, patterns...)
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	var out, errb bytes.Buffer
	cmd.Stdout = &out
	cmd.Stderr = &errb
	if err := cmd.Run(); err != nil {
		return nil, fmt.Errorf("analysis: go list %v: %v\n%s", patterns, err, errb.String())
	}
	dec := json.NewDecoder(&out)
	var listed []*listedPackage
	for {
		var lp listedPackage
		if err := dec.Decode(&lp); err == io.EOF {
			break
		} else if err != nil {
			return nil, fmt.Errorf("analysis: go list output: %w", err)
		}
		listed = append(listed, &lp)
	}
	return listed, nil
}

// A Finding pairs a diagnostic with the analyzer and package that
// produced it.
type Finding struct {
	Analyzer *Analyzer
	Package  *Package
	Position token.Position
	Message  string
}

// Run applies every analyzer to every package and returns the findings
// sorted by file, line, column, then analyzer name — a stable order for
// golden-tested CLI output.
func Run(analyzers []*Analyzer, pkgs []*Package) ([]Finding, error) {
	var findings []Finding
	for _, pkg := range pkgs {
		for _, a := range analyzers {
			pass := &Pass{
				Analyzer:  a,
				Fset:      pkg.Fset,
				Files:     pkg.Files,
				Pkg:       pkg.Types,
				TypesInfo: pkg.Info,
			}
			pass.Report = func(d Diagnostic) {
				findings = append(findings, Finding{
					Analyzer: a,
					Package:  pkg,
					Position: pkg.Fset.Position(d.Pos),
					Message:  d.Message,
				})
			}
			if _, err := a.Run(pass); err != nil {
				return nil, fmt.Errorf("analysis: %s on %s: %w", a.Name, pkg.ImportPath, err)
			}
		}
	}
	sort.Slice(findings, func(i, j int) bool {
		pi, pj := findings[i].Position, findings[j].Position
		if pi.Filename != pj.Filename {
			return pi.Filename < pj.Filename
		}
		if pi.Line != pj.Line {
			return pi.Line < pj.Line
		}
		if pi.Column != pj.Column {
			return pi.Column < pj.Column
		}
		return findings[i].Analyzer.Name < findings[j].Analyzer.Name
	})
	return findings, nil
}
