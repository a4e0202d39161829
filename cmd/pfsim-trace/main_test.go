package main

import (
	"os"
	"path/filepath"
	"strings"
	"testing"
)

// goldenSmall is the exact output of a small two-job contended trace
// (testdata/small.yaml, -slowest 3). The simulation, the recorder and the
// table renderer are deterministic, so any drift here is a real behaviour
// change in the traced physics or the report formatting.
const goldenSmall = `trace (ad_lustre, 8 tasks): 42 MB/s, finished at 1.54 s
trace-job1 (ad_lustre, 8 tasks): 39 MB/s, finished at 1.63 s

transfers: 8 (peak concurrency 8), 128 MB moved
makespan:  1.63 s (0.00 .. 1.63)

3 slowest transfers
  Name                        Start  End   MB  MB/s
  --------------------------  -----  ----  --  ----
  cw:trace-job1.rep0:a0:o219  0.00   1.63  16  9.83
  cw:trace-job1.rep0:a0:o246  0.00   1.63  16  9.83
  cw:trace-job1.rep0:a0:o358  0.00   1.63  16  9.83

aggregate throughput timeline (MB/s)
  t00  ######################################## 80.21
  t01  ######################################## 80.97
  t02  ######################################## 80.97
  t03  ######################################## 80.97
  t04  ######################################## 80.97
  t05  ######################################## 80.97
  t06  ######################################## 80.97
  t07  ######################################## 80.97
  t08  ######################################## 80.97
  t09  ######################################## 80.97
  t10  ######################################## 80.97
  t11  ######################################## 80.97
  t12  ######################################## 80.97
  t13  ######################################## 80.97
  t14  ######################################## 80.97
  t15  ######################################## 80.97
  t16  ######################################## 80.97
  t17  ######################################## 80.97
  t18  ###################################### 76.41
  t19  ################### 39.33
  t20   0.25
`

func smallOpts() options {
	return options{path: "testdata/small.yaml", slowest: 3}
}

func TestTraceGolden(t *testing.T) {
	var b strings.Builder
	if err := run(&b, smallOpts()); err != nil {
		t.Fatal(err)
	}
	if b.String() != goldenSmall {
		t.Errorf("trace output drifted.\n--- got ---\n%s--- want ---\n%s", b.String(), goldenSmall)
	}
}

// TestTraceLateStart: jobs that start ten minutes in get a timeline from
// the bucket holding the first transfer, not ~7,400 empty rows from t=0.
func TestTraceLateStart(t *testing.T) {
	o := smallOpts()
	o.path = "testdata/late.yaml"
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	_, tl, ok := strings.Cut(b.String(), "aggregate throughput timeline (MB/s)\n")
	if !ok {
		t.Fatalf("no timeline in output:\n%s", b.String())
	}
	rows := strings.Split(strings.TrimSuffix(tl, "\n"), "\n")
	if len(rows) > 22 {
		t.Fatalf("timeline has %d rows, want at most 22 (first %q)", len(rows), rows[0])
	}
	// The grid is anchored at t=0: 20 buckets span the 1.63 s makespan,
	// so the 600 s start falls in bucket 7356.
	if !strings.HasPrefix(rows[0], "  t7356 ") {
		t.Errorf("first timeline row = %q, want bucket t7356", rows[0])
	}
}

func TestTraceCSVExport(t *testing.T) {
	dir := t.TempDir()
	path := filepath.Join(dir, "trace.csv")
	o := smallOpts()
	o.csvPath = path
	var b strings.Builder
	if err := run(&b, o); err != nil {
		t.Fatal(err)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	lines := strings.Split(strings.TrimSpace(string(raw)), "\n")
	if lines[0] != "name,start_s,end_s,size_mb,mean_mbs" {
		t.Errorf("csv header = %q", lines[0])
	}
	// 2 jobs x 8 tasks collective -> 8 aggregated stripe transfers.
	if len(lines) != 9 {
		t.Errorf("csv has %d records, want 8", len(lines)-1)
	}
	if !strings.Contains(b.String(), "trace written to") {
		t.Error("csv path not reported")
	}
}

// TestTraceBadAPI: an unknown driver fails at parse time with the
// positioned schema error, before anything runs.
func TestTraceBadAPI(t *testing.T) {
	o := smallOpts()
	o.path = "testdata/badapi.yaml"
	var b strings.Builder
	err := run(&b, o)
	const want = `testdata/badapi.yaml: fleet[0].ior.api: must be ufs, lustre, or plfs, got "gpfs"`
	if err == nil || err.Error() != want {
		t.Fatalf("err = %v, want %s", err, want)
	}
	if b.Len() != 0 {
		t.Errorf("output before the error: %q", b.String())
	}
}

// TestTraceShardedRefused: the tracer watches one file system, so a
// sharded file fails with one line instead of tracing shard 0 alone.
func TestTraceShardedRefused(t *testing.T) {
	o := smallOpts()
	o.path = "testdata/sharded.yaml"
	var b strings.Builder
	err := run(&b, o)
	if err == nil || strings.Contains(err.Error(), "\n") || !strings.Contains(err.Error(), "sharded") {
		t.Fatalf("err = %v, want a one-line refusal naming sharding", err)
	}
}
