package sched

import (
	"math"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
)

func smallCfg(label string, tasks int) ior.Config {
	cfg := ior.PaperConfig(tasks)
	cfg.Label = label
	cfg.Reps = 1
	cfg.SegmentCount = 10
	cfg.Hints = ior.TunedHints()
	return cfg
}

func tinyPlat() *cluster.Platform {
	p := cluster.Cab()
	p.JitterCV = 0
	p.Nodes = 8 // small machine makes queueing observable
	return p
}

func TestParallelWhenRoomExists(t *testing.T) {
	plat := tinyPlat()
	subs := []Submission{
		{Cfg: smallCfg("a", 64), SubmitAt: 0}, // 4 nodes
		{Cfg: smallCfg("b", 64), SubmitAt: 0}, // 4 nodes
	}
	done, makespan, err := Run(plat, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	if len(done) != 2 {
		t.Fatalf("completed = %d", len(done))
	}
	for _, c := range done {
		if c.Wait() > 1e-9 {
			t.Errorf("job %s waited %v; machine had room", c.Cfg.Label, c.Wait())
		}
	}
	if makespan <= 0 {
		t.Error("zero makespan")
	}
	// Jobs run on disjoint node blocks.
	if done[0].FirstNode == done[1].FirstNode {
		t.Error("jobs share a node block")
	}
}

func TestFCFSQueues(t *testing.T) {
	plat := tinyPlat()
	subs := []Submission{
		{Cfg: smallCfg("big1", 96), SubmitAt: 0}, // 6 nodes
		{Cfg: smallCfg("big2", 96), SubmitAt: 0}, // 6 nodes: must wait
	}
	done, _, err := Run(plat, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	var first, second Completed
	for _, c := range done {
		switch c.Cfg.Label {
		case "big1":
			first = c
		case "big2":
			second = c
		}
	}
	if first.Wait() > 1e-9 {
		t.Errorf("first job waited %v", first.Wait())
	}
	if second.Start < first.End-1e-9 {
		t.Errorf("second started at %v before first ended at %v", second.Start, first.End)
	}
	if second.Slowdown() <= 1 {
		t.Errorf("queued job slowdown = %v, want > 1", second.Slowdown())
	}
}

func TestBackfillLetsSmallJobsJump(t *testing.T) {
	plat := tinyPlat()
	subs := []Submission{
		{Cfg: smallCfg("big1", 96), SubmitAt: 0}, // 6 nodes, runs
		{Cfg: smallCfg("big2", 96), SubmitAt: 0}, // 6 nodes, blocked
		{Cfg: smallCfg("tiny", 16), SubmitAt: 0}, // 1 node, fits beside big1
	}
	// Without backfill the tiny job waits behind big2.
	strict, _, err := Run(plat, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	// With backfill it starts immediately.
	relaxed, _, err := Run(plat, subs, Options{Backfill: true})
	if err != nil {
		t.Fatal(err)
	}
	waitOf := func(done []Completed, label string) float64 {
		for _, c := range done {
			if c.Cfg.Label == label {
				return c.Wait()
			}
		}
		t.Fatalf("job %s not found", label)
		return 0
	}
	if w := waitOf(relaxed, "tiny"); w > 1e-9 {
		t.Errorf("backfilled tiny job waited %v", w)
	}
	if waitOf(strict, "tiny") <= waitOf(relaxed, "tiny") {
		t.Error("backfill should reduce the tiny job's wait")
	}
}

func TestContentionVisibleAcrossScheduledJobs(t *testing.T) {
	// Two tuned jobs running simultaneously through the scheduler achieve
	// less than one running alone — the queue inherits the paper's story.
	plat := cluster.Cab()
	plat.JitterCV = 0
	solo, _, err := Run(plat, []Submission{
		{Cfg: smallCfg("solo", 1024), SubmitAt: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	both, _, err := Run(plat, []Submission{
		{Cfg: smallCfg("j1", 1024), SubmitAt: 0},
		{Cfg: smallCfg("j2", 1024), SubmitAt: 0},
	}, Options{})
	if err != nil {
		t.Fatal(err)
	}
	soloBW := solo[0].Result.Write.Mean()
	for _, c := range both {
		if bw := c.Result.Write.Mean(); bw >= soloBW {
			t.Errorf("job %s reached %v MB/s despite contention (solo %v)", c.Cfg.Label, bw, soloBW)
		}
	}
}

func TestStaggeredSubmissions(t *testing.T) {
	plat := tinyPlat()
	subs := []Submission{
		{Cfg: smallCfg("late", 32), SubmitAt: 100},
		{Cfg: smallCfg("early", 32), SubmitAt: 1},
	}
	done, makespan, err := Run(plat, subs, Options{})
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range done {
		if c.Cfg.Label == "late" && c.Start < 100 {
			t.Errorf("late job started at %v before submission", c.Start)
		}
		if c.Cfg.Label == "early" && c.Start < 1 {
			t.Errorf("early job started at %v", c.Start)
		}
	}
	if makespan < 100 {
		t.Errorf("makespan %v ignores the late submission", makespan)
	}
	sum := Summarise(done, makespan)
	if sum.Makespan != makespan || sum.MeanSlowdown < 1 {
		t.Errorf("summary wrong: %+v", sum)
	}
}

func TestRunValidation(t *testing.T) {
	plat := tinyPlat()
	if _, _, err := Run(plat, nil, Options{}); err == nil {
		t.Error("no submissions accepted")
	}
	bad := smallCfg("bad", 64)
	bad.Reps = 0
	if _, _, err := Run(plat, []Submission{{Cfg: bad}}, Options{}); err == nil {
		t.Error("invalid config accepted")
	}
	// A job larger than the machine can never start.
	huge := smallCfg("huge", 1024) // 64 nodes on an 8-node machine
	if _, _, err := Run(plat, []Submission{{Cfg: huge}}, Options{}); err == nil {
		t.Error("oversized job should fail")
	}
	// The engine refuses events at +Inf or NaN; the scheduler reports
	// such a submission time as an error instead.
	for _, at := range []float64{math.Inf(1), math.NaN()} {
		if _, _, err := Run(plat, []Submission{{Cfg: smallCfg("never", 64), SubmitAt: at}}, Options{}); err == nil {
			t.Errorf("SubmitAt %v accepted", at)
		}
	}
}

func TestSummariseEmpty(t *testing.T) {
	s := Summarise(nil, 5)
	if s.Makespan != 5 || s.MeanWait != 0 {
		t.Errorf("empty summary = %+v", s)
	}
}
