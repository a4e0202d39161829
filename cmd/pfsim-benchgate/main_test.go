package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

const sampleOutput = `goos: linux
goarch: amd64
pkg: pfsim
cpu: Intel(R) Xeon(R) Processor @ 2.10GHz
BenchmarkSolver1024Flows/incremental-8         	       1	  42385671 ns/op	    420350 flowsscanned/op	     37999 heapops/op	   3181153 linkvisits/op	      5903 rounds/op	      1268 solves/op
BenchmarkSolver1024Flows/reference             	       1	  75017714 ns/op	    588242 flowsscanned/op	         0 heapops/op	  36238097 linkvisits/op	      7996 rounds/op	      1780 solves/op
PASS
ok  	pfsim	0.121s
`

func TestParseBench(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 2 {
		t.Fatalf("parsed %d results, want 2", len(results))
	}
	// The GOMAXPROCS suffix is stripped; metrics are keyed by unit.
	if results[0].name != "BenchmarkSolver1024Flows/incremental" {
		t.Errorf("name = %q", results[0].name)
	}
	if got := results[0].metrics["linkvisits/op"]; got != 3181153 {
		t.Errorf("linkvisits = %v", got)
	}
	if got := results[1].metrics["heapops/op"]; got != 0 {
		t.Errorf("reference heapops = %v", got)
	}
}

func TestParseBenchBadValue(t *testing.T) {
	_, err := parseBench(strings.NewReader("BenchmarkX 1 abc ns/op\n"))
	if err == nil {
		t.Fatal("no error for unparseable metric value")
	}
}

func testGate() gate {
	return gate{
		MaxRegressionPct: 10,
		Counters: map[string]map[string]float64{
			"BenchmarkSolver1024Flows/incremental": {
				"linkvisits/op":   3181153,
				"flowsscanned/op": 420350,
			},
		},
	}
}

func TestCheckPasses(t *testing.T) {
	results, err := parseBench(strings.NewReader(sampleOutput))
	if err != nil {
		t.Fatal(err)
	}
	lines, ok := check(testGate(), results)
	if !ok {
		t.Fatalf("gate failed on matching counters:\n%s", strings.Join(lines, "\n"))
	}
	if len(lines) != 2 {
		t.Errorf("report lines = %d, want 2", len(lines))
	}
}

func TestCheckWithinAllowancePasses(t *testing.T) {
	g := testGate()
	results := []benchResult{{
		name: "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{
			"linkvisits/op":   3181153 * 1.09, // +9% < 10% allowance
			"flowsscanned/op": 420350,
		},
	}}
	if lines, ok := check(g, results); !ok {
		t.Errorf("+9%% should pass:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckRegressionFails(t *testing.T) {
	g := testGate()
	results := []benchResult{{
		name: "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{
			"linkvisits/op":   3181153 * 1.11, // +11% > 10% allowance
			"flowsscanned/op": 420350,
		},
	}}
	lines, ok := check(g, results)
	if ok {
		t.Fatal("gate passed an +11% regression")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "FAIL BenchmarkSolver1024Flows/incremental linkvisits/op") {
		t.Errorf("missing failure line:\n%s", joined)
	}
	if !strings.Contains(joined, "ok   BenchmarkSolver1024Flows/incremental flowsscanned/op") {
		t.Errorf("passing counter not reported:\n%s", joined)
	}
}

// TestCheckAllowanceOverride: a per-counter allowance loosens (or
// tightens) the shared default for that metric only — ns/op-style noisy
// metrics can be gated wide while the deterministic counters stay tight.
func TestCheckAllowanceOverride(t *testing.T) {
	g := testGate()
	g.Allowances = map[string]float64{"ns/op": 100}
	g.Counters["BenchmarkSolver1024Flows/incremental"]["ns/op"] = 1000
	pass := []benchResult{{
		name: "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{
			"ns/op":           1900, // +90% < the 100% ns/op allowance
			"linkvisits/op":   3181153,
			"flowsscanned/op": 420350,
		},
	}}
	if lines, ok := check(g, pass); !ok {
		t.Errorf("+90%% ns/op should pass its 100%% allowance:\n%s", strings.Join(lines, "\n"))
	}
	fail := []benchResult{{
		name: "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{
			"ns/op":           2100, // +110% > the 100% ns/op allowance
			"linkvisits/op":   3181153 * 1.05,
			"flowsscanned/op": 420350,
		},
	}}
	lines, ok := check(g, fail)
	if ok {
		t.Fatal("gate passed a +110% ns/op regression against a 100% allowance")
	}
	joined := strings.Join(lines, "\n")
	if !strings.Contains(joined, "FAIL BenchmarkSolver1024Flows/incremental ns/op") ||
		!strings.Contains(joined, "allowed +100.0%") {
		t.Errorf("ns/op failure should cite its own allowance:\n%s", joined)
	}
	// The default-allowance counters are untouched by the override.
	if !strings.Contains(joined, "ok   BenchmarkSolver1024Flows/incremental linkvisits/op") {
		t.Errorf("+5%% linkvisits should still pass the 10%% default:\n%s", joined)
	}
}

// TestUpdatePreservesAllowances: -update must round-trip the allowances
// section untouched.
func TestUpdatePreservesAllowances(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	orig := `{"gate": {"max_regression_pct": 10, "allowances": {"ns/op": 100}, "counters": {
	  "BenchmarkSolver1024Flows/incremental": {"linkvisits/op": 1}
	}}}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := update(path, strings.NewReader(sampleOutput), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"ns/op": 100`) {
		t.Errorf("update dropped the allowances section:\n%s", raw)
	}
}

func TestCheckMissingBenchmarkFails(t *testing.T) {
	if _, ok := check(testGate(), nil); ok {
		t.Fatal("gate passed with no benchmark output")
	}
}

func TestCheckMissingCounterFails(t *testing.T) {
	results := []benchResult{{
		name:    "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{"linkvisits/op": 1},
	}}
	lines, ok := check(testGate(), results)
	if ok {
		t.Fatal("gate passed with a gated counter missing from output")
	}
	if !strings.Contains(strings.Join(lines, "\n"), "counter missing") {
		t.Errorf("missing-counter not reported:\n%s", strings.Join(lines, "\n"))
	}
}

func TestCheckEmptyGateFails(t *testing.T) {
	if _, ok := check(gate{MaxRegressionPct: 10}, nil); ok {
		t.Fatal("empty gate must fail loudly")
	}
}

func TestImprovementNoted(t *testing.T) {
	results := []benchResult{{
		name: "BenchmarkSolver1024Flows/incremental",
		metrics: map[string]float64{
			"linkvisits/op":   3181153 * 0.5,
			"flowsscanned/op": 420350,
		},
	}}
	lines, ok := check(testGate(), results)
	if !ok {
		t.Fatalf("improvement failed the gate:\n%s", strings.Join(lines, "\n"))
	}
	if !strings.Contains(strings.Join(lines, "\n"), "refreshing the baseline") {
		t.Errorf("large improvement not flagged:\n%s", strings.Join(lines, "\n"))
	}
}

// TestRunAgainstCommittedBaseline exercises the full path — baseline JSON
// decode, output parse, comparison — against the repository's committed
// BENCH_solver.json, using that file's own gate values as the measured
// output. This keeps the tool honest about the committed schema.
func TestRunAgainstCommittedBaseline(t *testing.T) {
	baseline := filepath.Join("..", "..", "BENCH_solver.json")
	if _, err := os.Stat(baseline); err != nil {
		t.Fatalf("committed baseline missing: %v", err)
	}
	synthetic := `BenchmarkSolver1024Flows/incremental 1 1 ns/op 1030585 linkvisits/op 325655 flowsscanned/op 22042 heapops/op 0 shareheapops/op 1268 solves/op 1267 componentssolved/op 317714 compflowsscanned/op 46007 allocs/op 2647264 B/op
BenchmarkSolver4096Flows/incremental 1 1 ns/op 4917854 linkvisits/op 1480011 flowsscanned/op 94800 heapops/op 1474 shareheapops/op 5089 solves/op 5088 componentssolved/op 1441101 compflowsscanned/op 163475 allocs/op 8781192 B/op
BenchmarkSolverPLFS2048/incremental 1 1 ns/op 67499 linkvisits/op 3496 rounds/op 7435 flowsscanned/op 4885 heapops/op 12390 shareheapops/op 94 solves/op 93 componentssolved/op 7326 compflowsscanned/op 3907 flowssettled/op 78.77 compflowspersolve/op 102836 allocs/op 5434744 B/op
BenchmarkSolverSharded4096x16/incremental 1 1 ns/op 2286498 linkvisits/op 601665 flowsscanned/op 81316 heapops/op 0 shareheapops/op 2908 solves/op 4812 componentssolved/op 597830 compflowsscanned/op 72245 flowssettled/op 124.2 compflowspersolve/op 294205 allocs/op 19018168 B/op
BenchmarkEngineFleet/tasks 1 653758233 ns/op 517712 events/op 217713 laneevents/op 299999 heappushes/op 3 peakgoroutines 70684176 B/op 1400654 allocs/op
BenchmarkCheckpointFleet 1 1 ns/op 95373 events/op 7356560 B/op 112984 allocs/op
BenchmarkScenarioCorpus 1 1 ns/op 469653 events/op 4749942 linkvisits/op 493259 flowsscanned/op 252695 heapops/op 938347 shareheapops/op 2522 solves/op 2489 componentssolved/op 462835 compflowsscanned/op 231923 flowssettled/op 118281 rounds/op 599070 allocs/op 39892352 B/op
`
	var report strings.Builder
	if err := run(baseline, strings.NewReader(synthetic), &report); err != nil {
		t.Fatalf("run against committed baseline: %v\n%s", err, report.String())
	}
	if !strings.Contains(report.String(), "ok   BenchmarkSolver4096Flows/incremental linkvisits/op") {
		t.Errorf("4096-flow gate line missing:\n%s", report.String())
	}
}

func TestUpdateRewritesGatedCounters(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	orig := `{
  "description": "keep me",
  "records": [{"pr": 2, "note": "history"}],
  "gate": {
    "max_regression_pct": 10,
    "counters": {
      "BenchmarkSolver1024Flows/incremental": {
        "linkvisits/op": 1,
        "flowsscanned/op": 2
      }
    }
  }
}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := update(path, strings.NewReader(sampleOutput), &out); err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(out.String(), "set  BenchmarkSolver1024Flows/incremental linkvisits/op: 3181153 (was 1)") {
		t.Errorf("update log missing rewrite line:\n%s", out.String())
	}
	// The rewritten file must gate the measured values and keep the rest.
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if !strings.Contains(string(raw), `"description": "keep me"`) ||
		!strings.Contains(string(raw), `"note": "history"`) {
		t.Errorf("update dropped unrelated fields:\n%s", raw)
	}
	var check strings.Builder
	if err := run(path, strings.NewReader(sampleOutput), &check); err != nil {
		t.Errorf("freshly updated baseline does not pass its own gate: %v\n%s", err, check.String())
	}
}

func TestUpdateRefusesPartialOutput(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	orig := `{"gate": {"max_regression_pct": 10, "counters": {
	  "BenchmarkSolver1024Flows/incremental": {"linkvisits/op": 1},
	  "BenchmarkMissing": {"linkvisits/op": 1}
	}}}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := update(path, strings.NewReader(sampleOutput), &out); err == nil ||
		!strings.Contains(err.Error(), "BenchmarkMissing") {
		t.Fatalf("partial update not refused: %v", err)
	}
	// Refusal must leave the baseline untouched.
	raw, _ := os.ReadFile(path)
	if string(raw) != orig {
		t.Error("refused update still modified the baseline")
	}
}

func TestUpdateRefusesUnknownFields(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	orig := `{"notes": "extra", "gate": {"max_regression_pct": 10, "counters": {
	  "BenchmarkSolver1024Flows/incremental": {"linkvisits/op": 1}
	}}}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	var out strings.Builder
	if err := update(path, strings.NewReader(sampleOutput), &out); err == nil ||
		!strings.Contains(err.Error(), `"notes"`) {
		t.Fatalf("unknown top-level field not refused: %v", err)
	}
	orig2 := `{"gate": {"updated_at": "now", "max_regression_pct": 10, "counters": {
	  "BenchmarkSolver1024Flows/incremental": {"linkvisits/op": 1}
	}}}`
	if err := os.WriteFile(path, []byte(orig2), 0o644); err != nil {
		t.Fatal(err)
	}
	if err := update(path, strings.NewReader(sampleOutput), &out); err == nil ||
		!strings.Contains(err.Error(), `"updated_at"`) {
		t.Fatalf("unknown gate field not refused: %v", err)
	}
	// Refusal leaves the file untouched.
	raw, _ := os.ReadFile(path)
	if string(raw) != orig2 {
		t.Error("refused update still modified the baseline")
	}
}

// TestUpdateRoundTrip pins the -update contract the alloc gate leans on:
// history records keep their order and their free-form fields (the
// improvement notes are prose the schema never modelled), gated alloc
// counters take the measured values, and a second update from the same
// output is byte-identical — -update is idempotent, so rerunning it in a
// dirty tree never churns the diff.
func TestUpdateRoundTrip(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "baseline.json")
	orig := `{
  "description": "alloc-aware baseline",
  "records": [
    {"pr": 2, "note": "oldest", "improvement": {"free_form": "kept"}},
    {"pr": 5, "note": "middle"},
    {"pr": 7, "note": "newest", "benchmarks": {"BenchmarkSolver1024Flows": {"allocs_per_op": 1}}}
  ],
  "gate": {
    "max_regression_pct": 10,
    "counters": {
      "BenchmarkSolver1024Flows/incremental": {
        "allocs/op": 1,
        "B/op": 2,
        "linkvisits/op": 3
      }
    }
  }
}`
	if err := os.WriteFile(path, []byte(orig), 0o644); err != nil {
		t.Fatal(err)
	}
	const bench = "BenchmarkSolver1024Flows/incremental 1 1 ns/op 3181153 linkvisits/op 75433 allocs/op 14347336 B/op\n"
	if err := update(path, strings.NewReader(bench), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	first, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	got := string(first)
	for _, want := range []string{
		`"allocs/op": 75433`,
		`"B/op": 14347336`,
		`"linkvisits/op": 3181153`,
		`"free_form": "kept"`,
	} {
		if !strings.Contains(got, want) {
			t.Errorf("updated baseline missing %s:\n%s", want, got)
		}
	}
	// Record order: the history array must stay oldest-first.
	if o, m, n := strings.Index(got, `"oldest"`), strings.Index(got, `"middle"`), strings.Index(got, `"newest"`); o < 0 || !(o < m && m < n) {
		t.Errorf("record order not preserved (offsets %d, %d, %d):\n%s", o, m, n, got)
	}
	if err := update(path, strings.NewReader(bench), &strings.Builder{}); err != nil {
		t.Fatal(err)
	}
	second, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if string(second) != string(first) {
		t.Errorf("-update is not idempotent:\n--- first ---\n%s--- second ---\n%s", first, second)
	}
	var report strings.Builder
	if err := run(path, strings.NewReader(bench), &report); err != nil {
		t.Errorf("round-tripped baseline fails its own gate: %v\n%s", err, report.String())
	}
}
