package main

import (
	"bytes"
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenRun is the exact output of `run -v` over the pass and fail
// files. The simulation and the report are deterministic, so any drift
// here is a real behaviour change in the scenario runtime or the CLI
// formatting.
const goldenRun = `=== FAIL testdata/fail.yaml (cli-fail)
    jobs 1  makespan 2.9s  total 44.6 MB/s  mean 44.6 MB/s  asserts 1
    job w                              44.6 MB/s  finished 2.9s
    assert failed: assert.total_mbs: total bandwidth = 44.56 below min 1e+12
=== ok   testdata/pass.yaml (cli-pass)
    jobs 2  makespan 3.3s  total 79.3 MB/s  mean 39.6 MB/s  asserts 2
    job w                              39.1 MB/s  finished 3.3s
    job w-job1                         40.2 MB/s  finished 3.2s

1 passed, 1 failed, 2 total
`

func TestRunGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := cmdMain([]string{"run", "-v", "testdata/pass.yaml", "testdata/fail.yaml"}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1 (one file fails)", code)
	}
	if out.String() != goldenRun {
		t.Errorf("run output drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), goldenRun)
	}
	if errOut.Len() != 0 {
		t.Errorf("stderr = %q", errOut.String())
	}
}

// goldenRunDir covers /... directory expansion: the invalid file fails
// at validate time with a positioned error, not a mid-run panic.
const goldenRunDir = `=== FAIL testdata/fail.yaml (cli-fail)
    jobs 1  makespan 2.9s  total 44.6 MB/s  mean 44.6 MB/s  asserts 1
    assert failed: assert.total_mbs: total bandwidth = 44.56 below min 1e+12
=== FAIL testdata/invalid.yaml (cli-invalid)
    testdata/invalid.yaml: timeline[0]: OST 99 out of range [0,8)
=== ok   testdata/pass.yaml (cli-pass)
    jobs 2  makespan 3.3s  total 79.3 MB/s  mean 39.6 MB/s  asserts 2

1 passed, 2 failed, 3 total
`

func TestRunDirGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := cmdMain([]string{"run", "testdata/..."}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if out.String() != goldenRunDir {
		t.Errorf("run output drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), goldenRunDir)
	}
}

const goldenValidate = `valid    testdata/fail.yaml (cli-fail)
invalid  testdata/invalid.yaml
    testdata/invalid.yaml: timeline[0]: OST 99 out of range [0,8)
valid    testdata/pass.yaml (cli-pass)

1 of 3 files invalid
`

func TestValidateGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := cmdMain([]string{"validate", "testdata"}, &out, &errOut)
	if code != 1 {
		t.Errorf("exit = %d, want 1", code)
	}
	if out.String() != goldenValidate {
		t.Errorf("validate output drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), goldenValidate)
	}
}

func TestValidateAllValid(t *testing.T) {
	var out, errOut bytes.Buffer
	code := cmdMain([]string{"validate", "testdata/pass.yaml", "testdata/fail.yaml"}, &out, &errOut)
	if code != 0 {
		t.Errorf("exit = %d, want 0 (assertion bounds are not validation errors): %s", code, out.String())
	}
	if !strings.Contains(out.String(), "all 2 files valid") {
		t.Errorf("missing summary: %s", out.String())
	}
}

const goldenList = `testdata/fail.yaml                       cli-fail                 monolithic events 0   asserts 1   impossible bandwidth bound
testdata/invalid.yaml                    cli-invalid              monolithic events 1   asserts 0   OST index out of range
testdata/pass.yaml                       cli-pass                 monolithic events 2   asserts 2   two writers, one OST brownout
`

func TestListGolden(t *testing.T) {
	var out, errOut bytes.Buffer
	code := cmdMain([]string{"list", "testdata"}, &out, &errOut)
	if code != 0 {
		t.Errorf("exit = %d, want 0", code)
	}
	if out.String() != goldenList {
		t.Errorf("list output drifted:\n--- got ---\n%s--- want ---\n%s", out.String(), goldenList)
	}
}

func TestUsageAndErrors(t *testing.T) {
	var out, errOut bytes.Buffer
	if code := cmdMain(nil, &out, &errOut); code != 2 {
		t.Errorf("no args: exit = %d, want 2", code)
	}
	if code := cmdMain([]string{"bogus"}, &out, &errOut); code != 2 {
		t.Errorf("unknown command: exit = %d, want 2", code)
	}
	if code := cmdMain([]string{"run", "does-not-exist.yaml"}, &out, &errOut); code != 2 {
		t.Errorf("missing path: exit = %d, want 2", code)
	}
	out.Reset()
	if code := cmdMain([]string{"help"}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "usage:") {
		t.Errorf("help: exit = %d, out = %q", code, out.String())
	}
}

// TestValidateRejectsUnboundedRepetitions: repetition and checkpoint
// counts past ior.MaxReps fail validation with a positioned message;
// they used to validate and then exhaust memory when run.
func TestValidateRejectsUnboundedRepetitions(t *testing.T) {
	validateRejects(t, []validateCase{
		{"reps.yaml", "name: reps\nfleet:\n  - ior:\n      tasks: 8\n      reps: 2000000000\n",
			"fleet[0].ior.reps: must be <= 65536, got 2000000000"},
		{"checkpoints.yaml", "name: checkpoints\nfleet:\n  - checkpoint:\n      ranks: 8\n      state_mb_per_rank: 4\n      checkpoints: 100000000\n",
			"fleet[0].checkpoint.checkpoints: must be <= 65536, got 100000000"},
	})
}

// TestValidateRejectsUnrunnableJobs: striping hints past the platform's
// stripe limit, on a plain entry, drawn by a generator or in a shard, a
// generator drawing task counts past int's range, start times that
// overflow to +Inf, summed over a count's stagger or drawn, and jobs
// pinned to overlapping nodes fail validation, naming each job's
// document entry and label. The over-wide stripes used to validate and
// then deadlock the run behind the open that rank 0's create had refused.
func TestValidateRejectsUnrunnableJobs(t *testing.T) {
	validateRejects(t, []validateCase{
		{"stripes.yaml", "name: wide\nfleet:\n  - ior:\n      tasks: 8\n  - ior:\n      tasks: 8\n    stripes: 200\n",
			`fleet[1] (job "ior-job1"): ior: stripe count 200 outside 0..160 (0 = default)`},
		{"drawn-stripes.yaml", "name: widegen\nfleet:\n  - generator:\n      count: 3\n      tasks: 8\n      stripes:\n        uniform: [100, 300]\n",
			`fleet[0].generator (job "ior-g0"): ior: stripe count 178 outside 0..160 (0 = default)`},
		{"drawn-tasks.yaml", "name: hugegen\nfleet:\n  - generator:\n      count: 2\n      tasks:\n        uniform: [1e19, 1e20]\n",
			`fleet[0].generator (job "ior-g0"): ior: job needs nodes 0..134217727 but platform has 1200`},
		{"shard-stripes.yaml", "name: shardwide\nshards:\n  - fleet:\n      - ior:\n          tasks: 8\n  - fleet:\n      - ior:\n          tasks: 8\n        stripes: 200\n",
			`shards[1].fleet[0] (job "ior"): ior: stripe count 200 outside 0..160 (0 = default)`},
		{"replica-stripes.yaml", "name: replicawide\nshards:\n  - replicate: 3\n    fleet:\n      - ior:\n          tasks: 8\n  - replicate: 2\n    fleet:\n      - checkpoint:\n          ranks: 8\n          state_mb_per_rank: 4\n      - ior:\n          tasks: 8\n        stripes: 200\n",
			`shards[1].fleet[1] (replica 0, job "ior"): ior: stripe count 200 outside 0..160 (0 = default)`},
		{"overflow.yaml", "name: overflow\nfleet:\n  - ior:\n      tasks: 8\n    count: 3\n    start_at: 1e308\n    start_stagger: 1e308\n",
			`fleet[0] (job "ior-job1"): StartAt +Inf must be finite`},
		{"drawn-overflow.yaml", "name: overflow\nfleet:\n  - generator:\n      count: 2\n      seed: 19\n      tasks: 8\n      start_at:\n        normal: [0, 1e308]\n",
			`fleet[0].generator (job "ior-g0"): StartAt +Inf must be finite`},
		{"overlap.yaml", "name: overlap\nfleet:\n  - ior:\n      label: a\n      tasks: 96\n  - ior:\n      label: b\n      tasks: 8\n    first_node: 5\n",
			`fleet[1] (job "b"): overlaps fleet[0] (job "a") on nodes 5..5`},
	})
}

type validateCase struct{ name, doc, want string }

// validateRejects writes each document and checks that validate fails it
// with a line ending in the wanted message.
func validateRejects(t *testing.T, cases []validateCase) {
	t.Helper()
	dir := t.TempDir()
	for _, tc := range cases {
		path := filepath.Join(dir, tc.name)
		if err := os.WriteFile(path, []byte(tc.doc), 0o644); err != nil {
			t.Fatal(err)
		}
		var out, errOut bytes.Buffer
		if code := cmdMain([]string{"validate", path}, &out, &errOut); code != 1 {
			t.Errorf("%s: exit = %d, want 1", tc.name, code)
		}
		if want := "    " + path + ": " + tc.want + "\n"; !strings.Contains(out.String(), want) {
			t.Errorf("%s: validate output\n%s\nwant a line %q", tc.name, out.String(), want)
		}
	}
}
