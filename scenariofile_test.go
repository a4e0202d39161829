package pfsim

import (
	"math"
	"reflect"
	"strings"
	"testing"
)

const scenarioDoc = `
name: public-surface
platform:
  preset: cab
  nodes: 64
  osts: 8
  osss: 2
fleet:
  - ior:
      label: w
      tasks: 8
      segments: 4
    count: 2
    stripes: 4
timeline:
  - at: 2
    ost_health:
      ost: 1
      factor: 0.5
  - at: 6
    ost_recover:
      ost: 1
assert:
  total_mbs:
    min: 1
`

func TestRunScenarioFile(t *testing.T) {
	f, err := ParseScenarioFile([]byte(scenarioDoc), "public.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := NewRunner().RunScenarioFile(f)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	if res.Mono == nil || len(res.Mono.Jobs) != 2 {
		t.Fatalf("unexpected result shape")
	}
}

func TestParseScenarioFileRejectsBadTimes(t *testing.T) {
	bad := strings.Replace(scenarioDoc, "at: 2", "at: -2", 1)
	if _, err := ParseScenarioFile([]byte(bad), "bad.yaml"); err == nil {
		t.Fatal("negative event time accepted")
	}
}

// frontDoorsDoc is the file form of a mix built in Go below: two striped
// IOR writers plus a PLFS logger, with solo baselines for slowdowns.
const frontDoorsDoc = `
name: front-doors
baselines: true
fleet:
  - ior:
      label: w
      tasks: 32
      block_mb: 4
      transfer_mb: 1
      segments: 4
      reps: 2
    count: 2
    stripes: 8
    stripe_size_mb: 4
  - plfs:
      ranks: 32
      mb_per_rank: 16
`

// TestScenarioFileMatchesRunner: a scenario file and the same mix built
// through the Go API run the same simulation, bit for bit: samples,
// layouts, finish times and slowdowns.
func TestScenarioFileMatchesRunner(t *testing.T) {
	f, err := ParseScenarioFile([]byte(frontDoorsDoc), "front-doors.yaml")
	if err != nil {
		t.Fatal(err)
	}
	fromFile, err := NewRunner().RunScenarioFile(f)
	if err != nil {
		t.Fatal(err)
	}

	cfg := PaperIOR(32)
	cfg.Label = "w"
	cfg.SegmentCount = 4
	cfg.Reps = 2
	cfg.Hints.StripingFactor = 8
	cfg.Hints.StripingUnitMB = 4
	sc := UniformScenario("front-doors", IORWorkload(cfg), 2).
		Add(ScenarioJob{Workload: PLFSWorkload(32, 16)})
	fromGo, err := NewRunner().RunScenario(Cab(), sc)
	if err != nil {
		t.Fatal(err)
	}

	a, b := fromFile.Mono.Jobs, fromGo.Jobs
	if len(a) != 3 || len(b) != 3 {
		t.Fatalf("jobs: file %d, Go %d; want 3", len(a), len(b))
	}
	same := func(x, y float64) bool { return math.Float64bits(x) == math.Float64bits(y) }
	for i := range a {
		ja, jb := &a[i], &b[i]
		if ja.Label != jb.Label {
			t.Fatalf("job %d: label %q (file) != %q (Go)", i, ja.Label, jb.Label)
		}
		if ja.Config != jb.Config {
			t.Errorf("job %q: config differs:\n%+v\n%+v", ja.Label, ja.Config, jb.Config)
		}
		va, vb := ja.IOR.Write.Values(), jb.IOR.Write.Values()
		if len(va) != len(vb) {
			t.Fatalf("job %q: %d samples (file) != %d (Go)", ja.Label, len(va), len(vb))
		}
		for k := range va {
			if !same(va[k], vb[k]) {
				t.Errorf("job %q rep %d: %v (file) != %v (Go)", ja.Label, k, va[k], vb[k])
			}
		}
		if !reflect.DeepEqual(ja.IOR.LayoutOSTs, jb.IOR.LayoutOSTs) || !reflect.DeepEqual(ja.IOR.PLFS, jb.IOR.PLFS) {
			t.Errorf("job %q: OST layouts differ", ja.Label)
		}
		if !same(ja.FinishedAt, jb.FinishedAt) {
			t.Errorf("job %q: finished %v (file) != %v (Go)", ja.Label, ja.FinishedAt, jb.FinishedAt)
		}
		if ja.Slowdown == 0 || !same(ja.Slowdown, jb.Slowdown) {
			t.Errorf("job %q: slowdown %v (file) != %v (Go)", ja.Label, ja.Slowdown, jb.Slowdown)
		}
	}
}
