package workload

import (
	"errors"
	"fmt"
	"math"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

func quietCab() *cluster.Platform {
	p := cluster.Cab()
	p.JitterCV = 0
	return p
}

// smallIOR is a fast tuned collective writer for scenario tests.
func smallIOR(label string, tasks int) ior.Config {
	cfg := ior.PaperConfig(tasks)
	cfg.Label = label
	cfg.SegmentCount = 5
	cfg.Reps = 1
	cfg.Hints = ior.TunedHints()
	return cfg
}

// TestSingleJobScenarioMatchesIORRun pins the two streams a scenario
// forks from other than the mix of its name and labels: a single unnamed
// job forks from its label's hash, and Contended's n copies from the base
// label's hash plus n. Each scenario must match its jobs started by hand
// on a system built on that stream, bit for bit.
func TestSingleJobScenarioMatchesIORRun(t *testing.T) {
	plat := cluster.Cab() // jitter on: exact match must survive randomness
	cfg := smallIOR("match", 64)
	byHand := func(fork uint64, cfgs ...ior.Config) []*ior.Result {
		eng := sim.NewEngine()
		sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(plat.Seed).Fork(fork))
		out := make([]*ior.Result, len(cfgs))
		for i, c := range cfgs {
			rj, err := ior.StartJob(sys, c)
			if err != nil {
				t.Fatal(err)
			}
			out[i] = rj.Result
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return out
	}
	copies := make([]ior.Config, 3)
	for i := range copies {
		copies[i] = cfg
		copies[i].Label = fmt.Sprintf("match-job%d", i)
		copies[i].FirstNode = i * plat.NodesFor(cfg.NumTasks)
	}
	for _, tc := range []struct {
		name string
		sc   Scenario
		want []*ior.Result
	}{
		{"solo", Solo(cfg), byHand(ior.HashLabel("match"), cfg)},
		{"contended", Contended(cfg, 3), byHand(ior.HashLabel("match")+3, copies...)},
	} {
		res, err := RunScenario(plat, tc.sc, 0)
		if err != nil {
			t.Fatal(err)
		}
		if len(res.Jobs) != len(tc.want) {
			t.Fatalf("%s: %d jobs, want %d", tc.name, len(res.Jobs), len(tc.want))
		}
		for j, want := range tc.want {
			jr := &res.Jobs[j]
			if jr.Label != want.Config.Label || jr.Config.FirstNode != want.Config.FirstNode {
				t.Errorf("%s: job %d is %q on node %d, want %q on node %d", tc.name, j,
					jr.Label, jr.Config.FirstNode, want.Config.Label, want.Config.FirstNode)
			}
			if got, want := fmt.Sprint(jr.IOR.Write.Values(), jr.IOR.LayoutOSTs),
				fmt.Sprint(want.Write.Values(), want.LayoutOSTs); got != want {
				t.Errorf("%s: job %d: scenario %s, by hand %s", tc.name, j, got, want)
			}
		}
	}
}

func TestHeterogeneousScenario(t *testing.T) {
	plat := quietCab()
	sc := NewScenario("hetero",
		Job{Workload: IORJob{Cfg: smallIOR("striped", 128)}},
		Job{Workload: PLFSLogger{Ranks: 256, MBPerRank: 20}},
	)
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Jobs) != 2 {
		t.Fatalf("jobs = %d", len(res.Jobs))
	}
	if res.Jobs[0].Label != "striped" || res.Jobs[1].Label != "plfs-256" {
		t.Errorf("labels = %q, %q", res.Jobs[0].Label, res.Jobs[1].Label)
	}
	// Auto-placement: the PLFS job sits after the striped job's nodes.
	if res.Jobs[1].Config.FirstNode != plat.NodesFor(128) {
		t.Errorf("plfs FirstNode = %d, want %d", res.Jobs[1].Config.FirstNode, plat.NodesFor(128))
	}
	for i := range res.Jobs {
		if res.Jobs[i].WriteMBs() <= 0 {
			t.Errorf("job %d: no bandwidth", i)
		}
		if res.Jobs[i].FinishedAt <= 0 {
			t.Errorf("job %d: no finish time", i)
		}
	}
	if res.Makespan < res.Jobs[0].FinishedAt || res.Makespan < res.Jobs[1].FinishedAt {
		t.Error("makespan below a job finish time")
	}
	agg := res.Aggregate()
	if agg.TotalMBs <= 0 || agg.MinMBs > agg.MaxMBs || agg.MeanMBs <= 0 {
		t.Errorf("aggregate wrong: %+v", agg)
	}
	if res.Job("striped") == nil || res.Job("nope") != nil {
		t.Error("Job lookup broken")
	}
}

func TestScenarioDeterministicForSeed(t *testing.T) {
	plat := cluster.Cab() // jitter on
	run := func() *Result {
		sc := NewScenario("det",
			Job{Workload: IORJob{Cfg: smallIOR("a", 64)}},
			Job{Workload: PLFSLogger{Ranks: 128, MBPerRank: 10}},
		)
		res, err := RunScenario(plat, sc, 77)
		if err != nil {
			t.Fatal(err)
		}
		return res
	}
	a, b := run(), run()
	for i := range a.Jobs {
		av, bv := a.Jobs[i].IOR.Write.Values(), b.Jobs[i].IOR.Write.Values()
		for j := range av {
			if av[j] != bv[j] {
				t.Fatalf("job %d rep %d: %v != %v", i, j, av[j], bv[j])
			}
		}
		if a.Jobs[i].FinishedAt != b.Jobs[i].FinishedAt {
			t.Fatalf("job %d finish times differ", i)
		}
	}
	// A different seed must actually change the draw.
	c, err := RunScenario(plat, NewScenario("det",
		Job{Workload: IORJob{Cfg: smallIOR("a", 64)}},
		Job{Workload: PLFSLogger{Ranks: 128, MBPerRank: 10}},
	), 78)
	if err != nil {
		t.Fatal(err)
	}
	if c.Jobs[0].IOR.Write.Values()[0] == a.Jobs[0].IOR.Write.Values()[0] {
		t.Error("seed change did not perturb the run")
	}
}

func TestScenarioStartTimes(t *testing.T) {
	plat := quietCab()
	sc := NewScenario("staggered",
		Job{Workload: IORJob{Cfg: smallIOR("early", 64)}},
		Job{Workload: IORJob{Cfg: smallIOR("late", 64)}, StartAt: 1000},
	)
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Jobs[1].FinishedAt < 1000 {
		t.Errorf("late job finished at %v, before its start time", res.Jobs[1].FinishedAt)
	}
	if res.Jobs[0].FinishedAt >= res.Jobs[1].FinishedAt {
		t.Error("early job should finish before the late one")
	}
}

func TestScenarioDuplicateLabelsRenamed(t *testing.T) {
	plat := quietCab()
	sc := UniformScenario("uniform", IORJob{Cfg: smallIOR("same", 32)}, 3)
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]bool{}
	for i := range res.Jobs {
		if seen[res.Jobs[i].Label] {
			t.Fatalf("duplicate label %q", res.Jobs[i].Label)
		}
		seen[res.Jobs[i].Label] = true
	}
}

func TestScenarioValidation(t *testing.T) {
	plat := quietCab()
	if _, err := RunScenario(plat, Scenario{Name: "empty"}, 0); err == nil {
		t.Error("empty scenario accepted")
	}
	if _, err := RunScenario(plat, NewScenario("nil", Job{}), 0); err == nil {
		t.Error("nil workload accepted")
	}
	// A job's fault, its start time included, is a *JobError naming the
	// job by label; an overlap names both jobs.
	x := IORJob{Cfg: smallIOR("x", 32)}
	for _, tc := range []struct {
		sc         Scenario
		want       string
		job, other int
	}{
		{NewScenario("wide", Job{Workload: x}, Job{Workload: x, Stripes: 999}),
			`workload: scenario "wide" job "x-job1": ior: stripe count 999 outside 0..160 (0 = default)`, 1, 0},
		{NewScenario("neg", Job{Workload: x}, Job{Workload: x, StartAt: -1}),
			`workload: scenario "neg" job "x-job1": StartAt -1 must be non-negative`, 1, 0},
		{NewScenario("inf", Job{Workload: x, StartAt: math.Inf(1)}),
			`workload: scenario "inf" job "x": StartAt +Inf must be finite`, 0, 0},
		// Pinned overlap: both jobs claim nodes 4 and 5.
		{NewScenario("overlap",
			Job{Workload: IORJob{Cfg: smallIOR("p", 32)}, FirstNode: 4},
			Job{Workload: IORJob{Cfg: smallIOR("q", 32)}, FirstNode: 4}),
			`workload: scenario "overlap": job "q" overlaps job "p" on nodes 4..5`, 1, 0},
	} {
		_, err := RunScenario(plat, tc.sc, 0)
		var je *JobError
		if !errors.As(err, &je) || err.Error() != tc.want || je.Job != tc.job || je.Other != tc.other {
			t.Errorf("%s: err = %v (%#v), want %q naming jobs %d and %d", tc.sc.Name, err, je, tc.want, tc.job, tc.other)
		}
	}
}

func TestScenarioStripeOverrides(t *testing.T) {
	plat := quietCab()
	sc := NewScenario("hints",
		Job{Workload: IORJob{Cfg: smallIOR("j", 32)}, Stripes: 48, StripeSizeMB: 64})
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	h := res.Jobs[0].Config.Hints
	if h.StripingFactor != 48 || h.StripingUnitMB != 64 {
		t.Errorf("hints = %+v", h)
	}
}

func TestSoloBaselines(t *testing.T) {
	plat := quietCab()
	sc := UniformScenario("base", IORJob{Cfg: smallIOR("same", 64)}, 2)
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	solos := res.SoloConfigs()
	if len(solos) != 1 {
		t.Fatalf("identical jobs should share one baseline, got %d", len(solos))
	}
	solo, err := RunScenario(plat, Solo(solos[0]), 0)
	if err != nil {
		t.Fatal(err)
	}
	base := solo.Jobs[0].IOR
	res.ApplySolo(map[ior.Config]*ior.Result{solos[0]: base})
	for i := range res.Jobs {
		if res.Jobs[i].SoloMBs != base.Write.Mean() {
			t.Errorf("job %d solo = %v", i, res.Jobs[i].SoloMBs)
		}
		if res.Jobs[i].Slowdown < 1 {
			t.Errorf("job %d slowdown = %v, contention should not speed jobs up",
				i, res.Jobs[i].Slowdown)
		}
	}
	agg := res.Aggregate()
	if agg.MeanSlowdown < 1 || agg.MaxSlowdown < agg.MeanSlowdown {
		t.Errorf("aggregate slowdowns wrong: %+v", agg)
	}
}

func TestCheckpointerSpacing(t *testing.T) {
	plat := quietCab()
	app := Checkpoint{Ranks: 32, StateMBPerRank: 10, ComputeSeconds: 500, MTBFSeconds: 86400}
	ck := Checkpointer{App: app, API: mpiio.DriverLustre, Hints: ior.TunedHints(), Checkpoints: 3}
	res, err := RunScenario(plat, NewScenario("", Job{Workload: ck}), 0)
	if err != nil {
		t.Fatal(err)
	}
	// Three checkpoints with two 500 s compute phases between them: the
	// job cannot finish before 1,000 s of virtual time.
	if res.Jobs[0].FinishedAt < 1000 {
		t.Errorf("finished at %v, want >= 1000 (compute gaps missing)", res.Jobs[0].FinishedAt)
	}
	if n := res.Jobs[0].IOR.Write.N(); n != 3 {
		t.Errorf("checkpoints recorded = %d, want 3", n)
	}
}

func TestScenarioLabelCollisionProof(t *testing.T) {
	// Jobs labelled ["x", "x", "x-job1"] once produced two jobs named
	// "x-job1": the second "x" was renamed into the third job's literal
	// label, breaking Result.Job lookups and report keys. Renames must
	// dodge later literal labels too.
	plat := quietCab()
	sc := NewScenario("collide",
		Job{Workload: IORJob{Cfg: smallIOR("x", 16)}},
		Job{Workload: IORJob{Cfg: smallIOR("x", 16)}},
		Job{Workload: IORJob{Cfg: smallIOR("x-job1", 16)}},
	)
	res, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[string]int{}
	for i := range res.Jobs {
		seen[res.Jobs[i].Label]++
	}
	for label, n := range seen {
		if n > 1 {
			t.Fatalf("label %q assigned to %d jobs: %v", label, n, seen)
		}
	}
	// The literal label must survive untouched, and every label must
	// resolve to exactly one job via the lookup API.
	if res.Jobs[2].Label != "x-job1" {
		t.Errorf("literal label rewritten to %q", res.Jobs[2].Label)
	}
	for i := range res.Jobs {
		if jr := res.Job(res.Jobs[i].Label); jr != &res.Jobs[i] {
			t.Errorf("Result.Job(%q) resolved to the wrong job", res.Jobs[i].Label)
		}
	}
}

func TestScenarioDedupKeepsHistoricNames(t *testing.T) {
	// The common case — n identical labels — must keep the established
	// "x", "x-job1", "x-job2" naming so seeds and report keys are stable.
	plat := quietCab()
	sc := UniformScenario("uniform", IORJob{Cfg: smallIOR("x", 16)}, 3)
	cfgs, err := sc.materialise(plat)
	if err != nil {
		t.Fatal(err)
	}
	want := []string{"x", "x-job1", "x-job2"}
	for i, w := range want {
		if cfgs[i].Label != w {
			t.Errorf("job %d label = %q, want %q", i, cfgs[i].Label, w)
		}
	}
}
