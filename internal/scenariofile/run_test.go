package scenariofile

import (
	"os"
	"strings"
	"testing"

	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/workload"
)

// runDoc is a small monolithic scenario with a full chaos timeline.
const runDoc = `
name: run-test
platform:
  preset: cab
  nodes: 64
  osts: 16
  osss: 4
horizon: 10000
fleet:
  - ior:
      label: a
      tasks: 8
      segments: 5
    stripes: 4
  - ior:
      label: b
      tasks: 8
      segments: 5
    start_at: 2
    stripes: 4
timeline:
  - at: 3
    ost_health:
      ost: 2
      factor: 0.3
  - at: 5
    link_capacity:
      link: backbone
      mbs: 4000
  - at: 6
    rebuild:
      ost: 5
      mb: 256
      streams: 2
      from: [6, 7]
  - at: 9
    ost_recover:
      ost: 2
assert:
  makespan:
    max: 10000
  total_mbs:
    min: 1
`

func mustParseFile(t *testing.T, doc string) *File {
	t.Helper()
	f, err := Parse([]byte(doc), "test.yaml")
	if err != nil {
		t.Fatal(err)
	}
	return f
}

func TestRunMonolithic(t *testing.T) {
	f := mustParseFile(t, runDoc)
	res, err := Run(f, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	if res.Mono == nil || len(res.Mono.Jobs) != 2 {
		t.Fatalf("unexpected result shape: %+v", res)
	}
	if res.Makespan() <= 0 {
		t.Errorf("makespan = %v", res.Makespan())
	}
}

func TestAssertionFailureIsNotAnError(t *testing.T) {
	doc := strings.Replace(runDoc, "total_mbs:\n    min: 1", "total_mbs:\n    min: 1e12", 1)
	f := mustParseFile(t, doc)
	res, err := Run(f, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if res.Passed() || len(res.Failures) != 1 {
		t.Fatalf("Failures = %v, want exactly one", res.Failures)
	}
	if !strings.Contains(res.Failures[0], "assert.total_mbs") {
		t.Errorf("failure = %q", res.Failures[0])
	}
}

// TestSubEpsilonBlocksRun: a job whose every flow completes at admission
// makes each collective take zero virtual time; the file must still run
// and pass its assertions rather than deadlock.
func TestSubEpsilonBlocksRun(t *testing.T) {
	doc, err := os.ReadFile("testdata/sub-epsilon-blocks.yaml")
	if err != nil {
		t.Fatal(err)
	}
	res, err := Run(mustParseFile(t, string(doc)), RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
}

// jobsEqual asserts two runs are byte-identical: every per-repetition
// bandwidth sample, finish time, the makespan and the solver counters.
func jobsEqual(t *testing.T, label string, a, b *workload.Result) {
	t.Helper()
	if a.Makespan != b.Makespan {
		t.Errorf("%s: makespan %v != %v", label, a.Makespan, b.Makespan)
	}
	if len(a.Jobs) != len(b.Jobs) {
		t.Fatalf("%s: job count %d != %d", label, len(a.Jobs), len(b.Jobs))
	}
	for i := range a.Jobs {
		ja, jb := &a.Jobs[i], &b.Jobs[i]
		if ja.Label != jb.Label {
			t.Fatalf("%s: job %d label %q != %q", label, i, ja.Label, jb.Label)
		}
		if ja.FinishedAt != jb.FinishedAt {
			t.Errorf("%s: job %q finished %v != %v", label, ja.Label, ja.FinishedAt, jb.FinishedAt)
		}
		va, vb := ja.IOR.Write.Values(), jb.IOR.Write.Values()
		if len(va) != len(vb) {
			t.Fatalf("%s: job %q sample count %d != %d", label, ja.Label, len(va), len(vb))
		}
		for k := range va {
			if va[k] != vb[k] {
				t.Errorf("%s: job %q rep %d: %v != %v", label, ja.Label, k, va[k], vb[k])
			}
		}
	}
	if a.Work.Flow != b.Work.Flow {
		t.Errorf("%s: solver stats differ:\n%+v\n%+v", label, a.Work.Flow, b.Work.Flow)
	}
}

// TestTimelineEquivalence is the chaos-hook property test: the compiled
// timeline must be byte-identical to the same faults hand-scheduled as
// raw eng.ScheduleAt calls, in both solver modes.
func TestTimelineEquivalence(t *testing.T) {
	f := mustParseFile(t, runDoc)
	plat, err := f.BuildPlatform()
	if err != nil {
		t.Fatal(err)
	}
	scens, err := f.BuildScenarios()
	if err != nil {
		t.Fatal(err)
	}
	// The hand-written equivalent of runDoc's timeline, driving the same
	// lustre primitives through raw engine scheduling.
	hand := func(sys *lustre.System) {
		eng := sys.Engine()
		eng.ScheduleAt(3, func() { sys.OST(2).SetHealth(0.3) })
		eng.ScheduleAt(5, func() {
			link, err := sys.LinkByName("backbone")
			if err != nil {
				panic(err)
			}
			link.SetModel(flow.Const(4000))
		})
		eng.ScheduleAt(6, func() {
			sys.StartRebuild(5, lustre.RebuildOpts{SizeMB: 256, Streams: 2, Sources: []int{6, 7}})
		})
		eng.ScheduleAt(9, func() { sys.OST(2).SetHealth(1) })
	}
	runHand := func(ref bool) *workload.Result {
		res, err := workload.RunScenario(plat, scens[0], 0, func(sys *lustre.System) {
			sys.Net().UseReferenceSolver(ref)
			hand(sys)
		})
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	fileRes, err := Run(f, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	jobsEqual(t, "incremental file-vs-hand", fileRes.Mono, runHand(false))
	// Run has no solver switch: the reference row compiles the file's
	// timeline onto a reference-solver system the way Run does.
	refRes, err := workload.RunScenario(plat, scens[0], 0, func(sys *lustre.System) {
		sys.Net().UseReferenceSolver(true)
	}, f.InstrumentShard(-1))
	if err != nil {
		t.Fatal(err)
	}
	jobsEqual(t, "reference file-vs-hand", refRes, runHand(true))
}

// shardedDoc exercises shard expansion, replication and a shard outage.
const shardedDoc = `
name: sharded-run
platform:
  preset: cab
  nodes: 64
  osts: 8
  osss: 2
horizon: 10000
shards:
  - name: prod
    fleet:
      - ior:
          label: p
          tasks: 8
          segments: 4
        stripes: 4
  - name: scratch
    replicate: 2
    fleet:
      - ior:
          label: s
          tasks: 4
          segments: 4
        stripes: 2
timeline:
  - at: 2
    shard_outage:
      shard: 1
      until: 6
      factor: 0.05
assert:
  makespan:
    max: 10000
  shards:
    - shard: 0
      total_mbs:
        min: 1
`

func TestRunSharded(t *testing.T) {
	f := mustParseFile(t, shardedDoc)
	res, err := Run(f, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	if res.Sharded == nil || len(res.Sharded.Shards) != 3 {
		t.Fatalf("want 3 shards, got %+v", res.Sharded)
	}
	// The outage must actually bite: shard 1's job finishes later than
	// shard 2's (its replica twin with identical workload but no outage).
	// Replicas draw from distinct generator streams but these fleets are
	// literal, so the two scratch shards are identical up to jitter.
	out1 := res.Sharded.Shards[1].Jobs[0].FinishedAt
	out2 := res.Sharded.Shards[2].Jobs[0].FinishedAt
	if out1 <= out2 {
		t.Errorf("shard outage did not slow shard 1: finished %v vs twin %v", out1, out2)
	}
}

func TestGeneratorExpansionDeterministic(t *testing.T) {
	doc := `
name: genfleet
platform:
  nodes: 256
  osts: 16
  osss: 4
fleet:
  - generator:
      kind: ior
      count: 6
      label: bg
      tasks:
        choice: [4, 8]
      segments: 2
      start_at:
        uniform: [0, 10]
`
	f := mustParseFile(t, doc)
	s1, err := f.BuildScenarios()
	if err != nil {
		t.Fatal(err)
	}
	s2, _ := f.BuildScenarios()
	if len(s1[0].Jobs) != 6 {
		t.Fatalf("jobs = %d", len(s1[0].Jobs))
	}
	varied := false
	for i := range s1[0].Jobs {
		a, b := s1[0].Jobs[i], s2[0].Jobs[i]
		if a.StartAt != b.StartAt {
			t.Fatalf("job %d StartAt %v != %v across expansions", i, a.StartAt, b.StartAt)
		}
		ca := a.Workload.Config(nil)
		cb := b.Workload.Config(nil)
		if ca != cb {
			t.Fatalf("job %d config differs across expansions", i)
		}
		if a.StartAt != s1[0].Jobs[0].StartAt || ca.NumTasks != s1[0].Jobs[0].Workload.Config(nil).NumTasks {
			varied = true
		}
	}
	if !varied {
		t.Errorf("generator produced 6 identical jobs; distributions never varied")
	}
	if err := f.Validate(); err != nil {
		t.Fatalf("Validate: %v", err)
	}
}

func TestSlowdownBaselines(t *testing.T) {
	doc := `
name: slowdowns
platform:
  nodes: 64
  osts: 8
  osss: 2
fleet:
  - ior:
      label: j
      tasks: 8
      segments: 4
    count: 2
    stripes: 4
assert:
  max_slowdown:
    min: 0.5
    max: 100
  jobs:
    - job: j*
      slowdown:
        min: 0.5
`
	f := mustParseFile(t, doc)
	res, err := Run(f, RunOptions{})
	if err != nil {
		t.Fatal(err)
	}
	if !res.Passed() {
		t.Fatalf("assertions failed: %v", res.Failures)
	}
	for i := range res.Mono.Jobs {
		if res.Mono.Jobs[i].Slowdown == 0 {
			t.Errorf("job %d has no slowdown despite needsBaselines", i)
		}
	}
}

// TestValidateCatchesPlatformRangeErrors: timeline references and
// fleets that do not fit the platform fail validation with their exact
// positioned message, link names in all four of the link grammar's
// refusals.
func TestValidateCatchesPlatformRangeErrors(t *testing.T) {
	// swap is a document whose timeline sets link's capacity.
	swap := func(link string) string {
		return "name: x\nplatform:\n  nodes: 16\n  osts: 4\n  osss: 2\nfleet:\n  - ior:\n      tasks: 4\n" +
			"timeline:\n  - at: 1\n    link_capacity:\n      link: " + link + "\n      mbs: 100\n"
	}
	outnumber := "the fleet's jobs outnumber the platform's 4 nodes (each job needs at least one)"
	cases := []struct{ name, doc, want string }{
		{"ost range", `
name: x
platform:
  nodes: 16
  osts: 4
  osss: 2
fleet:
  - ior:
      tasks: 4
timeline:
  - at: 1
    ost_fail:
      ost: 7
`, "x: timeline[0]: OST 7 out of range [0,4)"},
		{"link range", swap("oss9"), `x: timeline[0]: link "oss9" out of range [0,2)`},
		{"bad link name", swap("nicx"), `x: timeline[0]: bad link name "nicx"`},
		{"ost link swap", swap("ost1"), `x: timeline[0]: OST links carry the service model; use ost_health, not link_capacity, for "ost1"`},
		{"unknown link", swap("mds"), `x: timeline[0]: unknown link "mds" (backbone, nic<i>, oss<i>)`},
		{"node capacity", `
name: x
platform:
  nodes: 4
  osts: 4
  osss: 2
fleet:
  - ior:
      tasks: 4096
`, `x: fleet[0] (job "ior"): ior: job needs nodes 0..255 but platform has 4`},
		{"fleet outnumbers nodes", `
name: x
platform:
  nodes: 4
fleet:
  - ior:
      tasks: 4
    count: 3
  - ior:
      tasks: 4
    count: 2
`, "x: fleet[1].count: " + outnumber},
		{"generator outnumbers nodes", `
name: x
platform:
  nodes: 4
fleet:
  - generator:
      count: 5
      tasks: 4
`, "x: fleet[0].generator.count: " + outnumber},
		{"shard fleet outnumbers nodes", `
name: x
platform:
  nodes: 4
shards:
  - fleet:
      - ior:
          tasks: 4
  - fleet:
      - ior:
          tasks: 4
        count: 5
`, "x: shards[1].fleet[0].count: " + outnumber},
	}
	for _, tc := range cases {
		if err := mustParseFile(t, tc.doc).Validate(); err == nil || err.Error() != tc.want {
			t.Errorf("%s: err = %v, want %q", tc.name, err, tc.want)
		}
	}
}
