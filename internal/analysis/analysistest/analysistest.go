// Package analysistest runs an analyzer over packages laid out under a
// testdata/src tree and checks its diagnostics against `// want`
// expectations, mirroring golang.org/x/tools/go/analysis/analysistest
// so the analyzer tests read like stock go/analysis tests.
//
// Layout: testdata/src/<importpath>/*.go, one directory per package.
// Fixture packages may import each other by those paths (resolved from
// the tree) and the standard library (resolved from GOROOT source), so
// no export data is needed.
//
// Expectations annotate the offending line:
//
//	for k := range m { // want `range over map`
//
// Each backquoted or double-quoted string after `want` is a regular
// expression that must match one diagnostic reported on that line;
// diagnostics with no matching expectation, and expectations with no
// matching diagnostic, fail the test.
package analysistest

import (
	"fmt"
	"go/importer"
	"go/token"
	"go/types"
	"os"
	"path/filepath"
	"regexp"
	"sort"
	"strconv"
	"strings"
	"testing"

	"pfsim/internal/analysis/framework"
)

// TestData returns the absolute path of the calling test's ./testdata
// directory.
func TestData() string {
	dir, err := filepath.Abs("testdata")
	if err != nil {
		panic(err)
	}
	return dir
}

// Run loads each package path from testdata/src, applies the analyzer,
// and checks diagnostics against the package's // want comments.
func Run(t *testing.T, testdata string, a *framework.Analyzer, pkgPaths ...string) {
	t.Helper()
	fset := token.NewFileSet()
	imp := &treeImporter{
		root:     filepath.Join(testdata, "src"),
		fset:     fset,
		loaded:   map[string]*framework.Package{},
		fallback: importer.ForCompiler(fset, "source", nil),
	}
	for _, path := range pkgPaths {
		pkg, err := imp.load(path)
		if err != nil {
			t.Errorf("loading %s: %v", path, err)
			continue
		}
		check(t, a, pkg)
	}
}

// check runs the analyzer on one package and diffs diagnostics against
// expectations.
func check(t *testing.T, a *framework.Analyzer, pkg *framework.Package) {
	t.Helper()
	findings, err := framework.Run([]*framework.Analyzer{a}, []*framework.Package{pkg})
	if err != nil {
		t.Errorf("%s: %v", pkg.ImportPath, err)
		return
	}
	wants, err := parseWants(pkg)
	if err != nil {
		t.Errorf("%s: %v", pkg.ImportPath, err)
		return
	}
	for _, f := range findings {
		if !claim(wants, f) {
			t.Errorf("%s:%d: unexpected diagnostic: %s",
				filepath.Base(f.Position.Filename), f.Position.Line, f.Message)
		}
	}
	for _, w := range wants {
		if !w.matched {
			t.Errorf("%s:%d: expected diagnostic matching %q, got none",
				filepath.Base(w.file), w.line, w.re.String())
		}
	}
}

// A want is one expectation parsed from a `// want` comment.
type want struct {
	file    string
	line    int
	re      *regexp.Regexp
	matched bool
}

// claim marks the first unmatched expectation that covers the finding.
func claim(wants []*want, f framework.Finding) bool {
	for _, w := range wants {
		if !w.matched && w.file == f.Position.Filename && w.line == f.Position.Line &&
			w.re.MatchString(f.Message) {
			w.matched = true
			return true
		}
	}
	return false
}

var wantRE = regexp.MustCompile(`//\s*want\s+(.*)$`)

// parseWants extracts expectations from the package's comments, sorted
// by position so failure output is stable.
func parseWants(pkg *framework.Package) ([]*want, error) {
	var wants []*want
	for _, f := range pkg.Files {
		for _, cg := range f.Comments {
			for _, c := range cg.List {
				m := wantRE.FindStringSubmatch(c.Text)
				if m == nil {
					continue
				}
				pos := pkg.Fset.Position(c.Pos())
				patterns, err := splitPatterns(m[1])
				if err != nil {
					return nil, fmt.Errorf("%s:%d: bad want: %w", pos.Filename, pos.Line, err)
				}
				for _, p := range patterns {
					re, err := regexp.Compile(p)
					if err != nil {
						return nil, fmt.Errorf("%s:%d: bad want regexp: %w", pos.Filename, pos.Line, err)
					}
					wants = append(wants, &want{file: pos.Filename, line: pos.Line, re: re})
				}
			}
		}
	}
	sort.Slice(wants, func(i, j int) bool {
		if wants[i].file != wants[j].file {
			return wants[i].file < wants[j].file
		}
		return wants[i].line < wants[j].line
	})
	return wants, nil
}

// splitPatterns parses the expectation list: whitespace-separated
// backquoted or double-quoted strings.
func splitPatterns(s string) ([]string, error) {
	var out []string
	s = strings.TrimSpace(s)
	for s != "" {
		switch s[0] {
		case '`':
			end := strings.IndexByte(s[1:], '`')
			if end < 0 {
				return nil, fmt.Errorf("unterminated backquote in %q", s)
			}
			out = append(out, s[1:1+end])
			s = strings.TrimSpace(s[end+2:])
		case '"':
			q, err := strconv.QuotedPrefix(s)
			if err != nil {
				return nil, fmt.Errorf("bad quoted pattern in %q", s)
			}
			u, err := strconv.Unquote(q)
			if err != nil {
				return nil, err
			}
			out = append(out, u)
			s = strings.TrimSpace(s[len(q):])
		default:
			return nil, fmt.Errorf("pattern must be quoted or backquoted: %q", s)
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("empty want")
	}
	return out, nil
}

// treeImporter resolves import paths from the testdata/src tree first
// (memoized, so fixture packages importing each other share one
// types.Package identity) and falls back to compiling the standard
// library from GOROOT source.
type treeImporter struct {
	root     string
	fset     *token.FileSet
	loaded   map[string]*framework.Package
	fallback types.Importer
}

// Import implements types.Importer.
func (ti *treeImporter) Import(path string) (*types.Package, error) {
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	if st, err := os.Stat(dir); err == nil && st.IsDir() {
		pkg, err := ti.load(path)
		if err != nil {
			return nil, err
		}
		return pkg.Types, nil
	}
	return ti.fallback.Import(path)
}

// load parses and type-checks one fixture package (memoized).
func (ti *treeImporter) load(path string) (*framework.Package, error) {
	if pkg, ok := ti.loaded[path]; ok {
		return pkg, nil
	}
	dir := filepath.Join(ti.root, filepath.FromSlash(path))
	ents, err := os.ReadDir(dir)
	if err != nil {
		return nil, err
	}
	var files []string
	for _, e := range ents {
		if !e.IsDir() && strings.HasSuffix(e.Name(), ".go") && !strings.HasSuffix(e.Name(), "_test.go") {
			files = append(files, filepath.Join(dir, e.Name()))
		}
	}
	if len(files) == 0 {
		return nil, fmt.Errorf("no Go files in %s", dir)
	}
	pkg, err := framework.Check(ti.fset, ti, path, dir, files)
	if err != nil {
		return nil, err
	}
	ti.loaded[path] = pkg
	return pkg, nil
}
