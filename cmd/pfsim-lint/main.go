// Command pfsim-lint runs the determinism lint suite: the custom
// analyzers under internal/analysis that enforce the simulator's
// byte-identical reproducibility invariants at the source level (see the
// README's "Determinism rules" section).
//
// Usage:
//
//	pfsim-lint [-dir d] [-run names] [-list] [packages]
//
// Packages default to ./... resolved from -dir (default "."). The exit
// status is 0 when the tree is clean, 1 when any analyzer reported a
// finding, and 2 on a usage or load error — so CI can distinguish
// "violations" from "broken build".
package main

import (
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pfsim/internal/analysis/barego"
	"pfsim/internal/analysis/framework"
	"pfsim/internal/analysis/maporder"
	"pfsim/internal/analysis/wallclock"
)

// suite is the full lint suite, sorted by name; -run selects a subset.
var suite = []*framework.Analyzer{
	barego.Analyzer,
	maporder.Analyzer,
	wallclock.Analyzer,
}

func main() {
	dir := flag.String("dir", ".", "directory to resolve package patterns from")
	runList := flag.String("run", "", "comma-separated analyzer names to run (default: all)")
	list := flag.Bool("list", false, "list the suite's analyzers and exit")
	flag.Parse()

	findings, err := run(os.Stdout, *dir, *runList, *list, flag.Args())
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsim-lint:", err)
		os.Exit(2)
	}
	if findings > 0 {
		os.Exit(1)
	}
}

// run executes the selected analyzers over the patterns and prints one
// line per finding; it returns the finding count charged to the exit
// status. Split from main for the golden tests.
func run(w io.Writer, dir, runList string, list bool, patterns []string) (int, error) {
	analyzers, err := selectAnalyzers(runList)
	if err != nil {
		return 0, err
	}
	if list {
		for _, a := range analyzers {
			fmt.Fprintf(w, "%-10s %s\n", a.Name, firstLine(a.Doc))
		}
		return 0, nil
	}
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	absDir, err := filepath.Abs(dir)
	if err != nil {
		return 0, err
	}
	pkgs, err := framework.Load(absDir, patterns)
	if err != nil {
		return 0, err
	}
	findings, err := framework.Run(analyzers, pkgs)
	if err != nil {
		return 0, err
	}
	for _, f := range findings {
		name := f.Position.Filename
		if rel, err := filepath.Rel(absDir, name); err == nil && !strings.HasPrefix(rel, "..") {
			name = filepath.ToSlash(rel)
		}
		fmt.Fprintf(w, "%s:%d:%d: %s (%s)\n",
			name, f.Position.Line, f.Position.Column, f.Message, f.Analyzer.Name)
	}
	return len(findings), nil
}

// selectAnalyzers resolves the -run list against the suite (empty
// selects everything), preserving the suite's name order.
func selectAnalyzers(runList string) ([]*framework.Analyzer, error) {
	if runList == "" {
		return suite, nil
	}
	wanted := map[string]bool{}
	for _, name := range strings.Split(runList, ",") {
		if name = strings.TrimSpace(name); name != "" {
			wanted[name] = true
		}
	}
	var out []*framework.Analyzer
	for _, a := range suite {
		if wanted[a.Name] {
			out = append(out, a)
			delete(wanted, a.Name)
		}
	}
	if len(wanted) > 0 {
		// A typo in a CI config must fail loudly (exit 2) and name the
		// valid choices, never silently run a reduced suite.
		var unknown, valid []string
		for name := range wanted {
			unknown = append(unknown, name)
		}
		sort.Strings(unknown)
		for _, a := range suite {
			valid = append(valid, a.Name)
		}
		return nil, fmt.Errorf("unknown analyzer(s): %s; valid analyzers: %s",
			strings.Join(unknown, ", "), strings.Join(valid, ", "))
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("-run selected no analyzers (use -list)")
	}
	return out, nil
}

func firstLine(s string) string {
	if i := strings.IndexByte(s, '\n'); i >= 0 {
		return s[:i]
	}
	return s
}
