package main

import (
	"strings"
	"testing"
)

// suiteNames is the expected -list order; goldens below depend on it.
var suiteNames = []string{"barego", "maporder", "wallclock"}

// goldenAll is the exact full-suite output over the fixture module: one
// deliberate violation per analyzer plus a clean package, sorted by
// file, line, column. Any drift is a real change in the suite's
// findings, positions or message wording.
const goldenAll = `internal/flow/flow.go:9:2: range over map loads iterates in nondeterministic order inside a sim-critical package; iterate sorted keys, or audit the loop as order-insensitive and annotate //pfsim:orderok (maporder)
internal/flow/flow.go:14:6: time.Now reads or waits on the wall clock; simulated time must come from the engine's virtual clock in a sim-critical package; annotate //pfsim:wallclockok only for audited non-semantic uses (wallclock)
internal/workload/w.go:6:3: bare go statement outside internal/pool escapes pool ownership; use pool.Run, or audit the spawn and annotate //pfsim:goroutineok (barego)
`

func TestLintGolden(t *testing.T) {
	var b strings.Builder
	findings, err := run(&b, "testdata/mod", "", false, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 3 {
		t.Errorf("findings = %d, want 3 (one per analyzer)", findings)
	}
	if b.String() != goldenAll {
		t.Errorf("lint output drifted.\n--- got ---\n%s--- want ---\n%s", b.String(), goldenAll)
	}
}

// TestLintRunSelection: -run restricts the suite; only the selected
// analyzer's findings survive, format unchanged.
func TestLintRunSelection(t *testing.T) {
	var b strings.Builder
	findings, err := run(&b, "testdata/mod", "maporder", false, []string{"./..."})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 1 {
		t.Errorf("findings = %d, want 1", findings)
	}
	for _, want := range []string{"internal/flow/flow.go:9:2:", "(maporder)"} {
		if !strings.Contains(b.String(), want) {
			t.Errorf("selected output missing %q:\n%s", want, b.String())
		}
	}
}

// TestLintCleanPackage: a violation-free package yields no findings and
// no output — the exit-0 contract CI relies on.
func TestLintCleanPackage(t *testing.T) {
	var b strings.Builder
	findings, err := run(&b, "testdata/mod", "", false, []string{"./clean"})
	if err != nil {
		t.Fatal(err)
	}
	if findings != 0 || b.String() != "" {
		t.Errorf("clean package produced findings=%d output=%q", findings, b.String())
	}
}

// TestLintUnknownAnalyzer: unknown -run names must error (main exits 2)
// with every unknown name and the exact valid-name list in one message
// — a typo'd CI config never silently runs a reduced suite, and a mix
// of known and unknown names reports all unknowns at once.
func TestLintUnknownAnalyzer(t *testing.T) {
	const valid = "valid analyzers: barego, maporder, wallclock"
	for _, tc := range []struct{ runList, want string }{
		{"maporder,nosuch", "unknown analyzer(s): nosuch; " + valid},
		{"zzz,maporder,nosuch,wallclock", "unknown analyzer(s): nosuch, zzz; " + valid},
	} {
		_, err := run(&strings.Builder{}, "testdata/mod", tc.runList, false, []string{"./..."})
		if err == nil || err.Error() != tc.want {
			t.Errorf("-run %q error = %v, want %q", tc.runList, err, tc.want)
		}
	}
}

// TestLintEmptyRunList: -run with only separators selects nothing and
// must error rather than lint zero analyzers and exit 0.
func TestLintEmptyRunList(t *testing.T) {
	_, err := run(&strings.Builder{}, "testdata/mod", " , ", false, []string{"./..."})
	if err == nil || !strings.Contains(err.Error(), "selected no analyzers") {
		t.Errorf("want no-analyzers error, got %v", err)
	}
}

func TestLintList(t *testing.T) {
	var b strings.Builder
	if _, err := run(&b, ".", "", true, nil); err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimRight(b.String(), "\n"), "\n")
	if len(lines) != len(suiteNames) {
		t.Fatalf("-list printed %d lines, want %d:\n%s", len(lines), len(suiteNames), b.String())
	}
	for i, name := range suiteNames {
		if !strings.HasPrefix(lines[i], name) {
			t.Errorf("-list line %d = %q, want prefix %q", i, lines[i], name)
		}
	}
}
