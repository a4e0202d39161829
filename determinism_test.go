package pfsim

import (
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"regexp"
	"slices"
	"strings"
	"testing"
)

// The determinism rules. Every result pfsim reports must be byte-identical
// across reruns, pool widths and machines, and a digest catches a break
// only on a run where it shows. So no non-test file may range over a map
// (maporder) or read the host clock or math/rand's global source
// (wallclock) in a package under internal/, or start a goroutine outside
// internal/pool (barego). A line a human has audited carries the rule's
// directive on it or on the line above: //pfsim:orderok,
// //pfsim:wallclockok or //pfsim:goroutineok. Any other //pfsim: name,
// and a directive that suppresses no finding, is a finding too, so an
// audit cannot outlive the code it audited. README, "Determinism rules",
// gives each rule's reasons.

// raceSkip is why the rules' tests skip under -race.
const raceSkip = "the rules start no goroutine, so the race detector has nothing to check and only slows them fourfold; the test job runs them"

// TestDeterminismRules holds the module's non-test files to the rules;
// `go test -run TestDeterminismRules .` lists each finding as
// file:line:col: message (rule).
func TestDeterminismRules(t *testing.T) {
	if raceEnabled {
		t.Skip(raceSkip)
	}
	findings, err := checkDeterminism("pfsim")
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		t.Error(f)
	}
}

// wantRE matches a fixture line's expectation: a regular expression, in
// backquotes, that a finding on that line must match.
var wantRE = regexp.MustCompile("// want `([^`]*)`")

// TestDeterminismFixtures runs the rules over each fixture module under
// testdata/determinism, one subtest per module: barego, maporder and
// wallclock hold every construct their rule flags next to the legal ones
// it must not (maporder also the directive cases), and clean breaks no
// rule. Each finding must match an expectation on its line, and each
// expectation a finding.
func TestDeterminismFixtures(t *testing.T) {
	if raceEnabled {
		t.Skip(raceSkip)
	}
	modules, err := os.ReadDir(filepath.Join("testdata", "determinism"))
	if err != nil {
		t.Fatal(err)
	}
	for _, m := range modules {
		t.Run(m.Name(), func(t *testing.T) {
			t.Chdir(filepath.Join("testdata", "determinism", m.Name()))
			checkFixtures(t)
		})
	}
}

// checkFixtures runs the rules over the fixture module in the working
// directory and matches the findings against its `// want` comments.
func checkFixtures(t *testing.T) {
	findings, err := checkDeterminism("fixture")
	if err != nil {
		t.Fatal(err)
	}
	type want struct {
		file string
		line int
		re   *regexp.Regexp
	}
	var wants []want
	err = filepath.WalkDir(".", func(name string, d fs.DirEntry, err error) error {
		if err != nil || !strings.HasSuffix(name, ".go") {
			return err
		}
		src, err := os.ReadFile(name)
		for i, line := range strings.Split(string(src), "\n") {
			if m := wantRE.FindStringSubmatch(line); m != nil {
				wants = append(wants, want{name, i + 1, regexp.MustCompile(m[1])})
			}
		}
		return err
	})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range findings {
		i := slices.IndexFunc(wants, func(w want) bool {
			return w.file == f.pos.Filename && w.line == f.pos.Line && w.re.MatchString(f.msg)
		})
		if i < 0 {
			t.Errorf("unexpected finding %s", f)
			continue
		}
		wants = slices.Delete(wants, i, i+1)
	}
	for _, w := range wants {
		t.Errorf("%s:%d: no finding matches %q", w.file, w.line, w.re)
	}
}

// A finding is one breach of a rule, or one stray directive.
type finding struct {
	pos  token.Position
	rule string
	msg  string
}

func (f finding) String() string {
	return fmt.Sprintf("%s:%d:%d: %s (%s)", f.pos.Filename, f.pos.Line, f.pos.Column, f.msg, f.rule)
}

// checkDeterminism type-checks every package of the module in the working
// directory, whose import path is module, and returns the rules' findings
// file by file in source order.
func checkDeterminism(module string) ([]finding, error) {
	im, err := loadModule(module)
	if err != nil {
		return nil, err
	}
	var out []finding
	for _, p := range im.pkgs {
		if err := im.check(p); err != nil {
			return nil, err
		}
		internal := strings.HasPrefix(p.path, module+"/internal/")
		pool := p.path == module+"/internal/pool"
		for _, f := range p.files {
			out = append(out, checkFile(im.fset, p.info, f, internal, pool)...)
		}
	}
	return out, nil
}

// wallClockFuncs are the time package's functions that read or wait on the
// host clock. Pure values (Duration arithmetic, time.Unix) stay legal.
var wallClockFuncs = []string{"Now", "Since", "Until", "Sleep", "After", "AfterFunc", "Tick", "NewTimer", "NewTicker"}

// checkFile applies the rules to one file of a package: maporder and
// wallclock when the package is under internal/, barego unless it is
// internal/pool.
func checkFile(fset *token.FileSet, info *types.Info, f *ast.File, internal, pool bool) []finding {
	var dirs []*directive
	for _, cg := range f.Comments {
		for _, c := range cg.List {
			if text, ok := strings.CutPrefix(c.Text, "//pfsim:"); ok {
				name, _, _ := strings.Cut(text, " ") // the rest records the audit
				dirs = append(dirs, &directive{name: name, pos: fset.Position(c.Pos())})
			}
		}
	}
	var out []finding
	report := func(pos token.Pos, rule, audit, msg string) {
		p := fset.Position(pos)
		for _, d := range dirs {
			if d.name == audit && (d.pos.Line == p.Line || d.pos.Line == p.Line-1) {
				d.used = true
				return
			}
		}
		out = append(out, finding{p, rule, msg})
	}
	ast.Inspect(f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.RangeStmt:
			if _, isMap := info.TypeOf(n.X).Underlying().(*types.Map); internal && isMap {
				report(n.Pos(), "maporder", "orderok", fmt.Sprintf(
					"range over map %s iterates in nondeterministic order inside a sim-critical package; iterate sorted keys, or audit the loop as order-insensitive and annotate //pfsim:orderok",
					types.ExprString(n.X)))
			}
		case *ast.SelectorExpr:
			if why := wallClockRead(info, n); internal && why != "" {
				report(n.Pos(), "wallclock", "wallclockok", fmt.Sprintf(
					"%s in a sim-critical package; annotate //pfsim:wallclockok only for audited non-semantic uses", why))
			}
		case *ast.GoStmt:
			if !pool {
				report(n.Pos(), "barego", "goroutineok",
					"bare go statement outside internal/pool escapes pool ownership; use pool.Run, or audit the spawn and annotate //pfsim:goroutineok")
			}
		}
		return true
	})
	for _, d := range dirs {
		switch {
		case d.name != "orderok" && d.name != "wallclockok" && d.name != "goroutineok":
			out = append(out, finding{d.pos, "directive",
				fmt.Sprintf("unknown directive //pfsim:%s; the audits are //pfsim:orderok, //pfsim:wallclockok and //pfsim:goroutineok", d.name)})
		case !d.used:
			out = append(out, finding{d.pos, "directive",
				fmt.Sprintf("//pfsim:%s suppresses no finding; delete the stale audit", d.name)})
		}
	}
	return out
}

// A directive is one //pfsim: comment: the audit it names, where it sits,
// and whether it suppressed a finding.
type directive struct {
	name string
	pos  token.Position
	used bool
}

// wallClockRead says what sel reads, a wall-clock function or the global
// RNG, and why that is banned; "" when it is neither.
func wallClockRead(info *types.Info, sel *ast.SelectorExpr) string {
	id, ok := sel.X.(*ast.Ident)
	if !ok {
		return ""
	}
	pkg, ok := info.Uses[id].(*types.PkgName)
	if !ok {
		return ""
	}
	imported, name := pkg.Imported().Path(), sel.Sel.Name
	switch {
	case imported == "time" && slices.Contains(wallClockFuncs, name):
		return fmt.Sprintf("time.%s reads or waits on the wall clock; simulated time must come from the engine's virtual clock", name)
	case imported == "math/rand" || imported == "math/rand/v2":
		// The New* constructors build explicitly seeded generators.
		if _, isFunc := info.Uses[sel.Sel].(*types.Func); isFunc && !strings.HasPrefix(name, "New") {
			return fmt.Sprintf("%s.%s draws from the globally-seeded RNG; use the seeded RNG in internal/stats (explicit rand.New/NewPCG sources are fine)", imported, name)
		}
	}
	return ""
}

// A modulePackage is one package of the checked module: its non-test
// files as go/build selects them for this platform and, once checked,
// their types.
type modulePackage struct {
	path  string
	files []*ast.File
	info  *types.Info
	types *types.Package
}

// moduleImporter type-checks the module's packages from source, each once,
// when first checked or imported. The standard library comes from
// go/importer's source importer, so no export data is needed.
type moduleImporter struct {
	fset *token.FileSet
	pkgs []*modulePackage // in directory order
	std  types.Importer
}

// loadModule parses the packages of the module in the working directory,
// found as `go list ./...` finds them: every directory holding non-test Go
// files that go/build selects, except testdata, directories whose name
// starts with . or _, and nested modules.
func loadModule(module string) (*moduleImporter, error) {
	fset := token.NewFileSet()
	im := &moduleImporter{fset: fset, std: importer.ForCompiler(fset, "source", nil)}
	err := filepath.WalkDir(".", func(dir string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if dir != "." {
			if name := d.Name(); name == "testdata" || name[0] == '.' || name[0] == '_' {
				return filepath.SkipDir
			}
			if _, err := os.Stat(filepath.Join(dir, "go.mod")); err == nil {
				return filepath.SkipDir
			}
		}
		bp, err := build.ImportDir(dir, 0)
		if noGo := (*build.NoGoError)(nil); err != nil && !errors.As(err, &noGo) {
			return err
		}
		p := &modulePackage{path: path.Join(module, filepath.ToSlash(dir))}
		for _, name := range bp.GoFiles {
			f, err := parser.ParseFile(fset, filepath.Join(dir, name), nil, parser.ParseComments)
			if err != nil {
				return err
			}
			p.files = append(p.files, f)
		}
		if p.files != nil {
			im.pkgs = append(im.pkgs, p)
		}
		return nil
	})
	return im, err
}

// Import implements types.Importer.
func (im *moduleImporter) Import(importPath string) (*types.Package, error) {
	for _, p := range im.pkgs {
		if p.path == importPath {
			if err := im.check(p); err != nil {
				return nil, err
			}
			return p.types, nil
		}
	}
	return im.std.Import(importPath)
}

// check type-checks p unless it already has been.
func (im *moduleImporter) check(p *modulePackage) error {
	if p.types != nil {
		return nil
	}
	p.info = &types.Info{Types: map[ast.Expr]types.TypeAndValue{}, Uses: map[*ast.Ident]types.Object{}}
	var err error
	if p.types, err = (&types.Config{Importer: im}).Check(p.path, im.fset, p.files, p.info); err != nil {
		return fmt.Errorf("type-check %s: %w", p.path, err)
	}
	return nil
}
