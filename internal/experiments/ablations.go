package experiments

import (
	"fmt"

	"pfsim/internal/core"
	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
	"pfsim/internal/report"
	"pfsim/internal/sweep"
	"pfsim/internal/workload"
)

// Ablations are not paper artefacts: they probe the calibrated design
// choices DESIGN.md calls out, so readers can see how sensitive each
// reproduced shape is to its model constant.

// AblationAggregatorCap sweeps the aggregator dispatch rate and reports
// the tuned-configuration bandwidth: the Figure 1 optimum is
// aggregator-bound, so it must scale with this constant while the default
// configuration (OST-bound) must not.
func AblationAggregatorCap(opt Options) (*Outcome, error) {
	base := opt.platform()
	t := report.NewTable("Ablation: aggregator dispatch rate",
		"AggregatorMBs", "Tuned BW", "Default BW")
	scales := []float64{0.5, 1.0, 1.5}
	tunedBW := make([]float64, len(scales))
	defBW := make([]float64, len(scales))
	results := make([]*workload.Result, 2*len(scales))
	err := opt.each(2*len(scales), func(k int) error {
		i, half := k/2, k%2
		scale := scales[i]
		plat := *base
		plat.AggregatorMBs = base.AggregatorMBs * scale
		cfg := ior.PaperConfig(1024)
		cfg.SegmentCount = opt.segments(100)
		cfg.Reps = opt.reps(2)
		if half == 0 {
			cfg.Label = fmt.Sprintf("abl-agg-%g-tuned", scale)
			cfg.Hints = ior.TunedHints()
		} else {
			cfg.Label = fmt.Sprintf("abl-agg-%g-def", scale)
			cfg.API = mpiio.DriverUFS
		}
		res, err := workload.RunScenario(&plat, workload.Solo(cfg), 0)
		if err != nil {
			return err
		}
		results[k] = res
		if half == 0 {
			tunedBW[i] = res.Jobs[0].WriteMBs()
		} else {
			defBW[i] = res.Jobs[0].WriteMBs()
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	var tunedAtBase, defaultAtBase, tunedAtHalf float64
	for i, scale := range scales {
		t.AddRow(base.AggregatorMBs*scale, tunedBW[i], defBW[i])
		switch scale {
		case 1.0:
			tunedAtBase, defaultAtBase = tunedBW[i], defBW[i]
		case 0.5:
			tunedAtHalf = tunedBW[i]
		}
	}
	return &Outcome{
		ID:     "ablation-aggcap",
		Title:  "Sensitivity of the Figure 1 optimum to aggregator dispatch capacity",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"tuned BW halves when dispatch halves (ratio)", 0.5, tunedAtHalf / tunedAtBase},
			{"default BW (OST-bound, insensitive)", defaultAtBase, defaultAtBase},
		},
		Work: workOf(results...),
	}, nil
}

// AblationThrash disables the log-append thrash term and reruns the
// 4,096-process PLFS point: without thrash, PLFS should not collapse,
// demonstrating that the modelled seek interference—not the open storm
// alone—drives the paper's Figure 5 downturn.
func AblationThrash(opt Options) (*Outcome, error) {
	base := opt.platform()
	t := report.NewTable("Ablation: PLFS log-append thrash",
		"ThrashGamma", "PLFS BW at 4096 procs")
	gammas := []float64{base.Class[2].ThrashGamma, 0}
	results := make([]*workload.Result, len(gammas))
	err := opt.each(len(gammas), func(i int) error {
		plat := *base
		plat.Class[2].ThrashGamma = gammas[i] // ClassLogAppend
		cfg := ior.PaperConfig(4096)
		cfg.Label = fmt.Sprintf("abl-thrash-%g", gammas[i])
		cfg.API = mpiio.DriverPLFS
		cfg.SegmentCount = opt.segments(100)
		cfg.Reps = opt.reps(2)
		res, err := workload.RunScenario(&plat, workload.Solo(cfg), 0)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	withThrash, noThrash := results[0].Jobs[0].WriteMBs(), results[1].Jobs[0].WriteMBs()
	t.AddRow(gammas[0], withThrash)
	t.AddRow(0.0, noThrash)
	return &Outcome{
		ID:     "ablation-thrash",
		Title:  "PLFS collapse requires OST log thrash, not just the open storm",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"no-thrash/with-thrash BW ratio (>1.5 expected)", 2, noThrash / withThrash},
		},
		Work: workOf(results...),
	}, nil
}

// ExtensionReadback checks the read-back claim of Polte et al. [23] that
// the paper cites: because PLFS multiplies file streams, data written
// through PLFS reads back faster (at matching scale) than a shared file
// read collectively — the log-structure trade-off in the other direction.
func ExtensionReadback(opt Options) (*Outcome, error) {
	plat := opt.platform()
	const procs = 256
	results := make([]*workload.Result, 2)
	err := opt.each(2, func(i int) error {
		cfg := ior.PaperConfig(procs)
		cfg.Label, cfg.API, cfg.Hints = "ext-rb-lustre", mpiio.DriverLustre, ior.TunedHints()
		if i == 1 {
			cfg.Label, cfg.API, cfg.Hints = "ext-rb-plfs", mpiio.DriverPLFS, mpiio.NewHints()
		}
		cfg.ReadFile = true
		cfg.SegmentCount = opt.segments(100)
		cfg.Reps = opt.reps(3)
		res, err := workload.RunScenario(plat, workload.Solo(cfg), 0)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	lustre, plfs := results[0].Jobs[0].IOR, results[1].Jobs[0].IOR
	lw, lr := lustre.Write.Mean(), lustre.Read.Mean()
	pw, pr := plfs.Write.Mean(), plfs.Read.Mean()
	t := report.NewTable("Extension: read-back bandwidth at 256 processes (MB/s)",
		"Driver", "Write", "Read", "Read/Write")
	t.AddRow("ad_lustre (tuned)", lw, lr, lr/lw)
	t.AddRow("ad_plfs", pw, pr, pr/pw)
	return &Outcome{
		ID:     "extension-readback",
		Title:  "PLFS log structure favours read-back (Polte et al. [23])",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"PLFS read gain over tuned Lustre read (>1 expected)", 1, pr / lr},
		},
		Notes: []string{
			"PLFS reads recover data from per-rank logs as independent streams; the shared file reads through the same aggregator bottleneck it wrote through.",
		},
		Work: workOf(results...),
	}, nil
}

// ExtensionWideStriping lifts the Lustre 2.4.2 stripe limit (the paper's
// conclusion: "particular versions of Lustre already scale beyond this
// OST limit [24], but they are not currently being used") and asks what
// the tuned configuration would achieve striping over up to all 480
// OSTs, for single jobs and for four contending jobs.
func ExtensionWideStriping(opt Options) (*Outcome, error) {
	plat := *opt.platform()
	plat.MaxStripeCount = plat.OSTs // a Lustre without the 160-stripe cap
	t := report.NewTable("Extension: striping beyond the 160-OST limit",
		"Stripes", "Solo BW", "4-job avg BW", "4-job Dload")
	stripeCounts := []int{160, 320, 480}
	solo := make([]float64, len(stripeCounts))
	avg4 := make([]float64, len(stripeCounts))
	results := make([]*workload.Result, 2*len(stripeCounts))
	err := opt.each(2*len(stripeCounts), func(k int) error {
		i, half := k/2, k%2
		r := stripeCounts[i]
		cfg := ior.PaperConfig(1024)
		cfg.Label = fmt.Sprintf("ext-wide-%d", r)
		cfg.SegmentCount = opt.segments(100)
		cfg.Reps = opt.reps(3)
		cfg.Hints.StripingFactor = r
		cfg.Hints.StripingUnitMB = 128
		if half == 0 {
			res, err := workload.RunScenario(&plat, workload.Solo(cfg), 0)
			if err != nil {
				return err
			}
			solo[i], results[k] = res.Jobs[0].WriteMBs(), res
			return nil
		}
		res, err := workload.RunScenario(&plat, workload.Contended(cfg, 4), 0)
		if err != nil {
			return err
		}
		for j := range res.Jobs {
			avg4[i] += res.Jobs[j].WriteMBs()
		}
		avg4[i] /= 4
		results[k] = res
		return nil
	})
	if err != nil {
		return nil, err
	}
	var solo160, solo480 float64
	for i, r := range stripeCounts {
		t.AddRow(r, solo[i], avg4[i], core.Dload(plat.OSTs, r, 4))
		switch r {
		case 160:
			solo160 = solo[i]
		case 480:
			solo480 = solo[i]
		}
	}
	return &Outcome{
		ID:     "extension-widestriping",
		Title:  "Lifting the stripe limit (Drokin [24]): no solo gain, amplified QoS cost",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"solo 480-stripe gain over 160 (ratio)", 1, solo480 / solo160},
		},
		Notes: []string{
			"A single job gains almost nothing from striping past 160 — its aggregators are already saturated — while four contending 480-stripe jobs drive every OST to load ~4: all QoS cost, no benefit (Section V, amplified).",
		},
		Work: workOf(results...),
	}, nil
}

// ExtensionGATuner compares the Behzad-style genetic autotuner with the
// exhaustive sweep: it should find a near-optimal configuration with far
// fewer evaluations. The tuner reads the points the sweep measured from
// its grid instead of simulating them again, so the comparison costs the
// sweep's simulations alone.
func ExtensionGATuner(opt Options) (*Outcome, error) {
	plat := opt.platform()
	base := ior.PaperConfig(1024)
	base.SegmentCount = opt.segments(100)
	base.Reps = 1
	counts := sweep.CountsUpTo(plat)
	sizes := []float64{1, 32, 64, 128, 256}
	sweepOpt := sweep.Options{Tasks: 1024, Reps: 1, Base: &base, Parallelism: opt.Parallelism}
	grid, err := sweep.Exhaustive(plat, counts, sizes, sweepOpt)
	if err != nil {
		return nil, err
	}
	ga, err := sweep.Genetic(plat, sweep.GAOptions{
		Options:     sweepOpt,
		Population:  8,
		Generations: 5,
		Seed:        plat.Seed,
		Counts:      counts,
		SizesMB:     sizes,
		Grid:        grid,
	})
	if err != nil {
		return nil, err
	}
	best := grid.Best()
	work := grid.Work
	work.Add(ga.Work)
	t := report.NewTable("Extension: GA autotuner vs exhaustive sweep",
		"Method", "Best config", "BW", "Evaluations")
	t.AddRow("exhaustive",
		fmt.Sprintf("%d × %gMB", best.StripeCount, best.StripeSizeMB),
		best.MBs, len(counts)*len(sizes))
	t.AddRow("genetic",
		fmt.Sprintf("%d × %gMB", ga.Best.StripeCount, ga.Best.StripeSizeMB),
		ga.Best.MBs, ga.Evaluations)
	return &Outcome{
		ID:     "extension-ga",
		Title:  "Genetic autotuning (Behzad et al.) against the exhaustive search",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"GA best vs exhaustive best (ratio)", 1, ga.Best.MBs / best.MBs},
			{"GA evaluation fraction", 0.5, float64(ga.Evaluations) / float64(len(counts)*len(sizes))},
		},
		Work: work,
	}, nil
}
