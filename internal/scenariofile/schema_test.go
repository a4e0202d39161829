package scenariofile

import (
	"fmt"
	"os"
	"strings"
	"testing"
)

// goodDoc is a representative full-featured scenario document.
const goodDoc = `
name: brownout-study
description: OST brownout under a small fleet
platform:
  preset: cab
  osts: 32
  osss: 4
  nodes: 128
horizon: 4000
fleet:
  - ior:
      label: writer
      tasks: 32
      block_mb: 4
      transfer_mb: 1
      segments: 20
    count: 2
    start_stagger: 5
    stripes: 8
  - plfs:
      label: logger
      ranks: 16
      mb_per_rank: 64
  - generator:
      kind: ior
      count: 4
      label: bg
      tasks:
        choice: [8, 16]
      segments: 5
      start_at:
        uniform: [0, 60]
timeline:
  - at: 30
    ost_health:
      ost: 3
      factor: 0.25
  - at: 60
    ost_fail:
      ost: 3
  - at: 61
    rebuild:
      ost: 4
      mb: 2048
      streams: 2
      from: [1, 2]
  - at: 200
    ost_recover:
      ost: 3
  - at: 100
    link_capacity:
      link: backbone
      mbs: 9000
assert:
  makespan:
    max: 4000
  total_mbs:
    min: 100
  solver:
    solves:
      max: 100000
  jobs:
    - job: writer*
      mbs:
        min: 1
`

func TestParseGood(t *testing.T) {
	f, err := Parse([]byte(goodDoc), "good.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if f.Name != "brownout-study" {
		t.Errorf("Name = %q", f.Name)
	}
	if f.Platform.Preset != "cab" || f.Platform.OSTs != 32 {
		t.Errorf("Platform = %+v", f.Platform)
	}
	if len(f.Fleet) != 3 {
		t.Fatalf("Fleet len = %d", len(f.Fleet))
	}
	if f.Fleet[0].IOR == nil || f.Fleet[0].IOR.Tasks != 32 || f.Fleet[0].Count != 2 {
		t.Errorf("Fleet[0] = %+v", f.Fleet[0])
	}
	if f.Fleet[2].Gen == nil || f.Fleet[2].Gen.Count != 4 {
		t.Fatalf("Fleet[2] = %+v", f.Fleet[2])
	}
	if g := f.Fleet[2].Gen; g.Tasks.Kind != "choice" || len(g.Tasks.Choices) != 2 {
		t.Errorf("gen tasks dist = %+v", g.Tasks)
	}
	if g := f.Fleet[2].Gen; g.Segments.Kind != "const" || g.Segments.A != 5 {
		t.Errorf("gen segments dist = %+v", g.Segments)
	}
	if len(f.Timeline) != 5 {
		t.Fatalf("Timeline len = %d", len(f.Timeline))
	}
	if ev := f.Timeline[0]; ev.Kind != EvOSTHealth || ev.OST != 3 || ev.Factor != 0.25 {
		t.Errorf("Timeline[0] = %+v", ev)
	}
	if ev := f.Timeline[2]; ev.Kind != EvRebuild || ev.RebuildMB != 2048 || len(ev.Sources) != 2 {
		t.Errorf("Timeline[2] = %+v", ev)
	}
	if ev := f.Timeline[3]; ev.Kind != EvOSTRecover || ev.Factor != 1 {
		t.Errorf("Timeline[3] = %+v (want default recover factor 1)", ev)
	}
	if !f.Assert.Makespan.HasMax || f.Assert.Makespan.Max != 4000 {
		t.Errorf("Assert.Makespan = %+v", f.Assert.Makespan)
	}
	if len(f.Assert.Solver) != 1 || f.Assert.Solver[0].Name != "solves" {
		t.Errorf("Assert.Solver = %+v", f.Assert.Solver)
	}
	if len(f.Assert.Jobs) != 1 || f.Assert.Jobs[0].Job != "writer*" {
		t.Errorf("Assert.Jobs = %+v", f.Assert.Jobs)
	}
	if f.needsBaselines() {
		t.Errorf("needsBaselines = true with no slowdown asserts")
	}
}

func TestParseSharded(t *testing.T) {
	doc := `
name: sharded
horizon: 1000
shards:
  - name: prod
    fleet:
      - ior:
          tasks: 8
  - replicate: 2
    fleet:
      - ior:
          tasks: 4
timeline:
  - at: 10
    shard_outage:
      shard: 2
      until: 50
      factor: 0.1
assert:
  shards:
    - shard: 0
      total_mbs:
        min: 1
`
	f, err := Parse([]byte(doc), "sharded.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.Sharded() || f.ShardCount() != 3 {
		t.Fatalf("ShardCount = %d, want 3", f.ShardCount())
	}
	if ev := f.Timeline[0]; ev.Kind != EvShardOutage || ev.Shard != 2 || ev.Until != 50 || ev.RestoreFactor != 1 {
		t.Errorf("Timeline[0] = %+v", ev)
	}
}

func TestNeedsBaselines(t *testing.T) {
	doc := `
name: sd
fleet:
  - ior:
      tasks: 4
assert:
  max_slowdown:
    max: 3
`
	f, err := Parse([]byte(doc), "sd.yaml")
	if err != nil {
		t.Fatalf("Parse: %v", err)
	}
	if !f.needsBaselines() {
		t.Errorf("needsBaselines = false with a slowdown assert")
	}
	off := false
	f.Baselines = &off
	if f.needsBaselines() {
		t.Errorf("explicit baselines: false not honoured")
	}
}

// TestParseErrors drives satellite 3: malformed times, factors and
// structure must be rejected at parse/validate time with positioned
// errors, never mid-run.
func TestParseErrors(t *testing.T) {
	fleet := "fleet:\n  - ior:\n      tasks: 4\n"
	cases := []struct {
		name, doc, want string
	}{
		{"no name", fleet, `missing required key "name"`},
		{"unknown top key", "name: x\nbogus: 1\n" + fleet, `unknown key "bogus"`},
		{"fleet and shards", "name: x\n" + fleet + "shards:\n  - fleet:\n      - ior:\n          tasks: 2\n",
			`exactly one of "fleet" and "shards"`},
		{"neither fleet nor shards", "name: x\n", `exactly one of "fleet" and "shards"`},
		{"two kinds", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    plfs:\n      ranks: 2\n",
			"exactly one workload kind"},
		{"bad ior api", "name: x\nfleet:\n  - ior:\n      tasks: 4\n      api: nfs\n",
			"must be ufs, lustre, or plfs"},
		{"negative event time", "name: x\n" + fleet +
			"timeline:\n  - at: -5\n    ost_fail:\n      ost: 1\n",
			"must be finite and >= 0"},
		{"nan event time", "name: x\n" + fleet +
			"timeline:\n  - at: nan\n    ost_fail:\n      ost: 1\n",
			"NaN"},
		{"past horizon", "name: x\nhorizon: 100\n" + fleet +
			"timeline:\n  - at: 200\n    ost_fail:\n      ost: 1\n",
			"past the scenario horizon"},
		{"factor too big", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    ost_health:\n      ost: 1\n      factor: 1.5\n",
			"health factor must be in [0, 1]"},
		{"factor negative", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    ost_health:\n      ost: 1\n      factor: -0.1\n",
			"health factor must be in [0, 1]"},
		{"missing factor", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    ost_health:\n      ost: 1\n",
			`missing required key "factor"`},
		{"missing at", "name: x\n" + fleet +
			"timeline:\n  - ost_fail:\n      ost: 1\n",
			`missing required key "at"`},
		{"two actions", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    ost_fail:\n      ost: 1\n    ost_recover:\n      ost: 1\n",
			"exactly one action"},
		{"shard on monolithic", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    ost_fail:\n      ost: 1\n      shard: 0\n",
			"scenario has no shards"},
		{"outage on monolithic", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    shard_outage:\n      until: 10\n",
			"requires a sharded scenario"},
		{"outage until before at", "name: x\nshards:\n  - fleet:\n      - ior:\n          tasks: 2\n" +
			"timeline:\n  - at: 50\n    shard_outage:\n      shard: 0\n      until: 40\n",
			"after the event time"},
		{"shard out of range", "name: x\nshards:\n  - fleet:\n      - ior:\n          tasks: 2\n" +
			"timeline:\n  - at: 5\n    ost_fail:\n      shard: 3\n      ost: 1\n",
			"out of range"},
		{"rebuild self-source", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    rebuild:\n      ost: 2\n      mb: 100\n      from: [2]\n",
			"is the rebuild target"},
		{"bad dist", "name: x\nfleet:\n  - generator:\n      kind: ior\n      count: 2\n      tasks:\n        uniform: [9, 3]\n",
			"lo <= hi"},
		{"gen missing tasks", "name: x\nfleet:\n  - generator:\n      kind: ior\n      count: 2\n",
			`missing required key "tasks"`},
		{"gen wrong field", "name: x\nfleet:\n  - generator:\n      kind: plfs\n      count: 2\n      ranks: 4\n      segments: 3\n",
			"not a plfs generator field"},
		{"bound inverted", "name: x\n" + fleet + "assert:\n  makespan:\n    min: 10\n    max: 5\n",
			"min 10 exceeds max 5"},
		{"empty bound", "name: x\n" + fleet + "assert:\n  makespan: {}\n",
			""}, // flow mappings unsupported: any error is fine
		{"bad solver counter", "name: x\n" + fleet + "assert:\n  solver:\n    bogus:\n      max: 1\n",
			`unknown key "bogus"`},
		{"bad preset", "name: x\nplatform:\n  preset: mira\n" + fleet,
			"unknown preset"},
		{"horizon inf", "name: x\nhorizon: inf\n" + fleet,
			"finite"},
		{"backbone negative", "name: x\nplatform:\n  backbone_mbs: -10\n" + fleet,
			".yaml: platform.backbone_mbs: must be finite and >= 0"},
		{"backbone inf", "name: x\nplatform:\n  backbone_mbs: inf\n" + fleet,
			".yaml: platform.backbone_mbs: must be finite and >= 0"},
		{"nic negative", "name: x\nplatform:\n  nic_mbs: -10\n" + fleet,
			".yaml: platform.nic_mbs: must be finite and >= 0"},
		{"nic inf", "name: x\nplatform:\n  nic_mbs: inf\n" + fleet,
			".yaml: platform.nic_mbs: must be finite and >= 0"},
		{"oss negative", "name: x\nplatform:\n  oss_mbs: -10\n" + fleet,
			".yaml: platform.oss_mbs: must be finite and >= 0"},
		{"oss inf", "name: x\nplatform:\n  oss_mbs: inf\n" + fleet,
			".yaml: platform.oss_mbs: must be finite and >= 0"},
		{"stripe size negative", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    stripe_size_mb: -1\n",
			".yaml: fleet[0].stripe_size_mb: must be finite and >= 0"},
		{"stripe size inf", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    stripe_size_mb: inf\n",
			".yaml: fleet[0].stripe_size_mb: must be finite and >= 0"},
		{"rebuild volume inf", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    rebuild:\n      ost: 2\n      mb: inf\n      from: [1]\n",
			".yaml: timeline[0].rebuild.mb: rebuild volume must be finite"},
		{"rebuild rate inf", "name: x\n" + fleet +
			"timeline:\n  - at: 5\n    rebuild:\n      ost: 2\n      mb: 100\n      rate_mbs: inf\n      from: [1]\n",
			".yaml: timeline[0].rebuild.rate_mbs: must be finite"},
		{"nodes negative", "name: x\nplatform:\n  nodes: -1\n" + fleet,
			".yaml: platform.nodes: must be >= 0, got -1"},
		{"osts negative", "name: x\nplatform:\n  osts: -1\n" + fleet,
			".yaml: platform.osts: must be >= 0, got -1"},
		{"osss negative", "name: x\nplatform:\n  osss: -1\n" + fleet,
			".yaml: platform.osss: must be >= 0, got -1"},
		{"stripes negative", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    stripes: -4\n",
			".yaml: fleet[0].stripes: must be >= 0, got -4"},
		{"start inf", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    start_at: inf\n",
			".yaml: fleet[0].start_at: must be finite, got +Inf"},
		{"stagger inf", "name: x\nfleet:\n  - ior:\n      tasks: 4\n    count: 2\n    start_stagger: inf\n",
			".yaml: fleet[0].start_stagger: must be finite, got +Inf"},
		{"plfs volume negative", "name: x\nfleet:\n  - plfs:\n      ranks: 4\n      mb_per_rank: -1\n",
			".yaml: fleet[0].plfs.mb_per_rank: must be finite and >= 0 (0 = default), got -1"},
		{"plfs transfer negative", "name: x\nfleet:\n  - plfs:\n      ranks: 4\n      transfer_mb: -1\n",
			".yaml: fleet[0].plfs.transfer_mb: must be finite and >= 0 (0 = default), got -1"},
		{"plfs reps negative", "name: x\nfleet:\n  - plfs:\n      ranks: 4\n      reps: -3\n",
			".yaml: fleet[0].plfs.reps: must be >= 1, got -3"},
		{"gen start inf", "name: x\nfleet:\n  - generator:\n      count: 2\n      tasks: 4\n      start_at: inf\n",
			".yaml: fleet[0].generator.start_at: must be finite, got +Inf"},
		{"gen uniform inf", "name: x\nfleet:\n  - generator:\n      count: 2\n      tasks: 4\n      start_at:\n        uniform: [0, inf]\n",
			".yaml: fleet[0].generator.start_at.uniform[1]: must be finite, got +Inf"},
		{"gen normal inf", "name: x\nfleet:\n  - generator:\n      kind: plfs\n      count: 2\n      ranks: 4\n      mb_per_rank:\n        normal: [inf, 1]\n",
			".yaml: fleet[0].generator.mb_per_rank.normal[0]: must be finite, got +Inf"},
		{"gen choice inf", "name: x\nfleet:\n  - generator:\n      count: 2\n      tasks:\n        choice: [4, -inf]\n",
			".yaml: fleet[0].generator.tasks.choice[1]: must be finite, got -Inf"},
	}
	for _, tc := range cases {
		_, err := Parse([]byte(tc.doc), tc.name+".yaml")
		if err == nil {
			t.Errorf("%s: expected error, got none", tc.name)
			continue
		}
		if tc.want != "" && !strings.Contains(err.Error(), tc.want) {
			t.Errorf("%s: err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

// TestReadmeExample parses and validates the README's first yaml block,
// the schema walkthrough users copy from.
func TestReadmeExample(t *testing.T) {
	data, err := os.ReadFile("../../README.md")
	if err != nil {
		t.Fatal(err)
	}
	_, rest, ok := strings.Cut(string(data), "```yaml\n")
	doc, _, closed := strings.Cut(rest, "```")
	if !ok || !closed {
		t.Fatal("README has no yaml block")
	}
	f, err := Parse([]byte(doc), "README.md")
	if err != nil {
		t.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		t.Fatal(err)
	}
}

// TestSizeBoundsAdmitTheLimit: a document exactly at each size bound
// parses; the documents one past each bound are rows of
// testdata/rejections.golden. Parse builds nothing, so neither set
// allocates a system.
func TestSizeBoundsAdmitTheLimit(t *testing.T) {
	fleet := "fleet:\n  - ior:\n      tasks: 2\n"
	shard := "shards:\n  - replicate: %d\n    fleet:\n      - ior:\n          tasks: 2\n"
	for _, tc := range []struct{ name, doc string }{
		{"nodes", fmt.Sprintf("name: x\nplatform:\n  nodes: %d\n", maxNodes) + fleet},
		{"osts", fmt.Sprintf("name: x\nplatform:\n  osts: %d\n", maxOSTs) + fleet},
		{"shards", "name: x\nplatform:\n  nodes: 128\n  osts: 16\n  osss: 4\n" + fmt.Sprintf(shard, maxShards)},
		{"sharded links", fmt.Sprintf("name: x\nplatform:\n  nodes: %d\n  osts: 16\n  osss: 4\n", maxShardedLinks/16-16) +
			fmt.Sprintf(shard, 16)},
		{"rebuild streams", "name: x\n" + fleet +
			fmt.Sprintf("timeline:\n  - at: 5\n    rebuild:\n      ost: 1\n      mb: 10\n      streams: %d\n", maxRebuildStreams)},
	} {
		if _, err := Parse([]byte(tc.doc), tc.name+".yaml"); err != nil {
			t.Errorf("%s at its bound: %v", tc.name, err)
		}
	}
}
