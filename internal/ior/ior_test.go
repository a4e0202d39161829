package ior_test

import (
	"math"
	"strings"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/core"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
	"pfsim/internal/workload"
)

func quietCab() *cluster.Platform {
	p := cluster.Cab()
	p.JitterCV = 0
	return p
}

// The tests run jobs as every caller does, through package workload's
// scenario runner, which an internal test package could not import.

// runSolo simulates cfg alone on plat and returns its result.
func runSolo(plat *cluster.Platform, cfg ior.Config) (*ior.Result, error) {
	res, err := workload.RunScenario(plat, workload.Solo(cfg), 0)
	if err != nil {
		return nil, err
	}
	return res.Jobs[0].IOR, nil
}

// runContended simulates n copies of base as the paper's contended jobs
// and returns their results in job order.
func runContended(plat *cluster.Platform, base ior.Config, n int) ([]*ior.Result, error) {
	res, err := workload.RunScenario(plat, workload.Contended(base, n), 0)
	if err != nil {
		return nil, err
	}
	out := make([]*ior.Result, len(res.Jobs))
	for i := range res.Jobs {
		out[i] = res.Jobs[i].IOR
	}
	return out, nil
}

func TestPaperConfig(t *testing.T) {
	cfg := ior.PaperConfig(1024)
	if cfg.PerRankMB() != 400 {
		t.Errorf("per-rank = %v MB, want 400 (4 MB × 100 segments)", cfg.PerRankMB())
	}
	if cfg.TotalMB() != 409600 {
		t.Errorf("total = %v MB, want 409600", cfg.TotalMB())
	}
	if !cfg.WriteFile || cfg.ReadFile {
		t.Error("Table II is write-only")
	}
	if err := cfg.Validate(quietCab()); err != nil {
		t.Errorf("paper config invalid: %v", err)
	}
}

func TestValidateErrors(t *testing.T) {
	plat := quietCab()
	bad := []func(*ior.Config){
		func(c *ior.Config) { c.NumTasks = 0 },
		func(c *ior.Config) { c.BlockSizeMB = 0 },
		func(c *ior.Config) { c.TransferSizeMB = 0 },
		func(c *ior.Config) { c.TransferSizeMB = c.BlockSizeMB + 1 },
		func(c *ior.Config) { c.SegmentCount = 0 },
		func(c *ior.Config) { c.Reps = 0 },
		func(c *ior.Config) { c.Reps = ior.MaxReps + 1 },
		func(c *ior.Config) { c.WriteFile = false },
		func(c *ior.Config) { c.WriteFile, c.ReadFile = false, true }, // reads a file nothing wrote
		func(c *ior.Config) { c.FirstNode = -1 },
		func(c *ior.Config) { c.FirstNode = 1199 }, // 64-node job falls off the machine
		func(c *ior.Config) { c.ComputeSeconds = -1 },
		// Striping hints the MDS would refuse at the first create.
		func(c *ior.Config) { c.Hints.StripingFactor = 161 },
		func(c *ior.Config) { c.Hints.StripingFactor = -1 },
		func(c *ior.Config) { c.Hints.StripingUnitMB = -1 },
		func(c *ior.Config) { c.Hints.StripingUnitMB = math.Inf(1) },
		func(c *ior.Config) { c.Hints.StripingUnitMB = math.NaN() },
		func(c *ior.Config) { c.Hints.StripeOffset = 480 },
	}
	for i, mut := range bad {
		cfg := ior.PaperConfig(1024)
		mut(&cfg)
		if err := cfg.Validate(plat); err == nil {
			t.Errorf("mutation %d not rejected", i)
		}
	}
	// ad_ufs never passes striping hints to the MDS.
	cfg := ior.PaperConfig(1024)
	cfg.API, cfg.Hints.StripingFactor = mpiio.DriverUFS, 161
	if err := cfg.Validate(plat); err != nil {
		t.Errorf("ad_ufs with 161 stripes: %v", err)
	}
}

// TestValidateNonFiniteSizes: NaN and infinite sizes compare false or
// out of range in ways the positivity checks miss, so each must be
// rejected by name before it reaches the simulation (where a NaN block
// panicked in flow admission and an infinite one deadlocked the ranks).
func TestValidateNonFiniteSizes(t *testing.T) {
	plat := quietCab()
	for _, tc := range []struct {
		field string
		mut   func(*ior.Config)
	}{
		{"BlockSizeMB", func(c *ior.Config) { c.BlockSizeMB = math.NaN() }},
		{"BlockSizeMB", func(c *ior.Config) { c.BlockSizeMB = math.Inf(1) }},
		{"BlockSizeMB", func(c *ior.Config) { c.BlockSizeMB = math.Inf(-1) }},
		{"TransferSizeMB", func(c *ior.Config) { c.TransferSizeMB = math.NaN() }},
		{"TransferSizeMB", func(c *ior.Config) { c.TransferSizeMB = math.Inf(1) }},
		{"TransferSizeMB", func(c *ior.Config) { c.TransferSizeMB = math.Inf(-1) }},
	} {
		cfg := ior.PaperConfig(16)
		tc.mut(&cfg)
		if err := cfg.Validate(plat); err == nil || !strings.Contains(err.Error(), tc.field) {
			t.Errorf("block=%v transfer=%v: Validate = %v, want an error naming %s",
				cfg.BlockSizeMB, cfg.TransferSizeMB, err, tc.field)
		}
		if _, err := runSolo(plat, cfg); err == nil {
			t.Errorf("block=%v transfer=%v: Run accepted the config", cfg.BlockSizeMB, cfg.TransferSizeMB)
		}
	}
}

// TestValidateInfiniteComputeSeconds: an infinite compute phase between
// repetitions parks every rank forever, which the engine could only
// report as a deadlock at t=+Inf; Validate rejects it by field name.
func TestValidateInfiniteComputeSeconds(t *testing.T) {
	plat := quietCab()
	cfg := ior.PaperConfig(16)
	cfg.Reps = 2
	cfg.ComputeSeconds = math.Inf(1)
	if err := cfg.Validate(plat); err == nil || !strings.Contains(err.Error(), "ComputeSeconds") {
		t.Errorf("Validate = %v, want an error naming ComputeSeconds", err)
	}
	if _, err := runSolo(plat, cfg); err == nil || !strings.Contains(err.Error(), "ComputeSeconds") {
		t.Errorf("Run = %v, want the Validate error", err)
	}
}

func TestComputeSecondsSpacesReps(t *testing.T) {
	plat := quietCab()
	cfg := ior.PaperConfig(32)
	cfg.Label = "spaced"
	cfg.SegmentCount = 5
	cfg.Reps = 3
	cfg.Hints = ior.TunedHints()
	run := func(compute float64) (reps int, makespan float64) {
		c := cfg
		c.ComputeSeconds = compute
		eng := sim.NewEngine()
		sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(plat.Seed))
		rj, err := ior.StartJob(sys, c)
		if err != nil {
			t.Fatal(err)
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return rj.Result.Write.N(), eng.Now()
	}
	n0, t0 := run(0)
	n1, t1 := run(200)
	if n0 != 3 || n1 != 3 {
		t.Fatalf("reps = %d / %d, want 3", n0, n1)
	}
	// Two 200 s compute gaps between three reps.
	if got := t1 - t0; got < 399 || got > 401 {
		t.Errorf("compute gaps added %v s, want ~400", got)
	}
}

func TestRunTunedAnchor(t *testing.T) {
	cfg := ior.PaperConfig(1024)
	cfg.Hints = ior.TunedHints()
	cfg.Reps = 3
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.N() != 3 {
		t.Fatalf("reps recorded = %d", res.Write.N())
	}
	mean := res.Write.Mean()
	if mean < 0.8*15609 || mean > 1.2*15609 {
		t.Errorf("tuned mean = %.0f MB/s, want ≈15609", mean)
	}
	// Every rep captured the 160-OST layout.
	if len(res.LayoutOSTs) != 3 {
		t.Fatalf("layouts = %d", len(res.LayoutOSTs))
	}
	for _, l := range res.LayoutOSTs {
		if len(l) != 160 {
			t.Errorf("layout size = %d, want 160", len(l))
		}
	}
}

func TestRunDefaultAnchor(t *testing.T) {
	cfg := ior.PaperConfig(1024)
	cfg.API = mpiio.DriverUFS
	cfg.Reps = 2
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	mean := res.Write.Mean()
	if mean < 0.75*313 || mean > 1.25*313 {
		t.Errorf("default mean = %.0f MB/s, want ≈313", mean)
	}
}

func TestFilePerProcPinnedOST(t *testing.T) {
	// The Figure 2 benchmark: k writers, each with a private 1-stripe file
	// pinned to the same OST.
	for _, k := range []int{1, 4, 16} {
		cfg := ior.Config{
			Label: "fig2", API: mpiio.DriverLustre,
			BlockSizeMB: 4, TransferSizeMB: 1, SegmentCount: 25,
			NumTasks: k, WriteFile: true, FilePerProc: true,
			Hints: mpiio.Hints{StripingFactor: 1, StripingUnitMB: 1, StripeOffset: 7},
			Reps:  2,
		}
		res, err := runSolo(quietCab(), cfg)
		if err != nil {
			t.Fatal(err)
		}
		per := res.PerProcWrite().Mean()
		ideal := 288.0 / float64(k)
		if per > ideal*1.01 {
			t.Errorf("k=%d: per-proc %.1f exceeds ideal %.1f", k, per, ideal)
		}
		if per < ideal*0.8 {
			t.Errorf("k=%d: per-proc %.1f too far below ideal %.1f", k, per, ideal)
		}
	}
}

func TestContendedFourJobs(t *testing.T) {
	// Section V headline: four tuned jobs each reach ~4.5 GB/s, a 3-4×
	// drop from the 15.6 GB/s solo peak.
	base := ior.PaperConfig(1024)
	base.Hints = ior.TunedHints()
	base.Reps = 3
	results, err := runContended(quietCab(), base, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(results) != 4 {
		t.Fatalf("results = %d", len(results))
	}
	for j, res := range results {
		mean := res.Write.Mean()
		if mean < 2500 || mean > 7000 {
			t.Errorf("job %d mean = %.0f MB/s, want ~4500 (contended)", j, mean)
		}
		if mean > 15609.0/2 {
			t.Errorf("job %d mean = %.0f: contention should cost ≥2×", j, mean)
		}
	}
}

func TestContendedJobsOnDisjointNodes(t *testing.T) {
	base := ior.PaperConfig(64)
	base.Reps = 1
	base.Hints = ior.TunedHints()
	results, err := runContended(quietCab(), base, 3)
	if err != nil {
		t.Fatal(err)
	}
	seen := map[int]bool{}
	for _, res := range results {
		if seen[res.Config.FirstNode] {
			t.Errorf("jobs share FirstNode %d", res.Config.FirstNode)
		}
		seen[res.Config.FirstNode] = true
	}
}

func TestPLFSRunRecordsAssignment(t *testing.T) {
	cfg := ior.PaperConfig(128)
	cfg.API = mpiio.DriverPLFS
	cfg.Reps = 2
	cfg.SegmentCount = 10 // keep the test fast
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.PLFS) != 2 {
		t.Fatalf("PLFS assignments = %d, want 2", len(res.PLFS))
	}
	for _, a := range res.PLFS {
		if len(a.JobOSTs) != 128 {
			t.Errorf("assignment ranks = %d", len(a.JobOSTs))
		}
		// Realised load should track Equation 6.
		want := core.PLFSLoad(480, 128)
		if got := a.Load(); got < want*0.9 || got > want*1.1 {
			t.Errorf("realised load = %.2f, want ≈%.2f", got, want)
		}
	}
}

func TestReadPhase(t *testing.T) {
	cfg := ior.PaperConfig(64)
	cfg.ReadFile = true
	cfg.Reps = 2
	cfg.SegmentCount = 10
	cfg.Hints = ior.TunedHints()
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	if res.Read.N() != 2 {
		t.Fatalf("read reps = %d", res.Read.N())
	}
	if res.Read.Mean() <= 0 {
		t.Error("read bandwidth not positive")
	}
}

func TestIndependentMode(t *testing.T) {
	cfg := ior.PaperConfig(64)
	cfg.Collective = false
	cfg.Reps = 1
	cfg.SegmentCount = 10
	cfg.Hints.StripingFactor = 64
	cfg.Hints.StripingUnitMB = 16
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	coll := ior.PaperConfig(64)
	coll.Reps = 1
	coll.SegmentCount = 10
	coll.Hints = cfg.Hints
	collRes, err := runSolo(quietCab(), coll)
	if err != nil {
		t.Fatal(err)
	}
	if res.Write.Mean() >= collRes.Write.Mean() {
		t.Errorf("independent (%.0f) should underperform collective (%.0f)",
			res.Write.Mean(), collRes.Write.Mean())
	}
}

func TestDeterministicRuns(t *testing.T) {
	cfg := ior.PaperConfig(128)
	cfg.Reps = 2
	cfg.SegmentCount = 20
	cfg.Hints = ior.TunedHints()
	a, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	av, bv := a.Write.Values(), b.Write.Values()
	for i := range av {
		if av[i] != bv[i] {
			t.Errorf("rep %d differs: %v vs %v", i, av[i], bv[i])
		}
	}
}

func TestRepsRedrawLayouts(t *testing.T) {
	cfg := ior.PaperConfig(64)
	cfg.Hints = ior.TunedHints()
	cfg.Reps = 3
	cfg.SegmentCount = 5
	res, err := runSolo(quietCab(), cfg)
	if err != nil {
		t.Fatal(err)
	}
	same := 0
	for i := 1; i < len(res.LayoutOSTs); i++ {
		if equalInts(res.LayoutOSTs[i], res.LayoutOSTs[0]) {
			same++
		}
	}
	if same == len(res.LayoutOSTs)-1 {
		t.Error("all repetitions drew identical layouts; files must be recreated")
	}
}

func equalInts(a, b []int) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if a[i] != b[i] {
			return false
		}
	}
	return true
}
