package experiments

import (
	"fmt"

	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
	"pfsim/internal/refdata"
	"pfsim/internal/report"
	"pfsim/internal/sweep"
	"pfsim/internal/workload"
)

// Figure1 regenerates the Section IV parameter sweep: write bandwidth over
// 1,024 processes for every stripe count × stripe size combination, plus
// the default-configuration baseline and the headline speed-up.
func Figure1(opt Options) (*Outcome, error) {
	plat := opt.platform()
	counts := sweep.CountsUpTo(plat)
	sizes := []float64{1, 32, 64, 128, 256}
	base := ior.PaperConfig(1024)
	base.SegmentCount = opt.segments(100)
	base.Reps = opt.reps(3)
	grid, err := sweep.Exhaustive(plat, counts, sizes, sweep.Options{
		Tasks: 1024, Reps: base.Reps, Base: &base, Parallelism: opt.Parallelism,
	})
	if err != nil {
		return nil, err
	}

	// Default configuration: ad_ufs, system default layout.
	defCfg := base
	defCfg.Label = "figure1-default"
	defCfg.API = mpiio.DriverUFS
	defRes, err := workload.RunScenario(plat, workload.Solo(defCfg), 0)
	if err != nil {
		return nil, err
	}
	defBW := defRes.Jobs[0].IOR.Write.Mean()

	t := report.NewTable("Figure 1: write bandwidth (MB/s) over 1,024 processes",
		append([]string{"OSTs"}, sizeHeaders(sizes)...)...)
	for i, c := range grid.Counts {
		row := make([]any, 0, len(sizes)+1)
		row = append(row, c)
		for j := range grid.SizesMB {
			row = append(row, grid.MBs[i][j])
		}
		t.AddRow(row...)
	}
	best := grid.Best()
	o := &Outcome{
		ID:     "figure1",
		Title:  "Parameter sweep for an optimal Lustre configuration",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"default config MB/s (2×1MB)", refdata.Figure1.DefaultMBs, defBW},
			{"best MB/s", refdata.Figure1.BestMBs, best.MBs},
			{"best stripe count", float64(refdata.Figure1.BestCount), float64(best.StripeCount)},
			{"best stripe size MB", refdata.Figure1.BestSizeMB, best.StripeSizeMB},
			{"speed-up over default", refdata.Figure1.SpeedupFactor, best.MBs / defBW},
		},
	}
	o.Work = grid.Work
	o.Work.Add(defRes.Work)
	oneMB, _ := grid.At(plat.MaxStripeCount, 1)
	o.Comparisons = append(o.Comparisons,
		Comparison{"160×1MB MB/s (count-only tuning)", refdata.Figure1.CountTunedMBs, oneMB})
	o.Notes = append(o.Notes,
		fmt.Sprintf("Optimum found at %d stripes × %g MB; paper: 160 × 128 MB.",
			best.StripeCount, best.StripeSizeMB))
	return o, nil
}

func sizeHeaders(sizes []float64) []string {
	out := make([]string, len(sizes))
	for i, s := range sizes {
		out[i] = fmt.Sprintf("%gM", s)
	}
	return out
}

// Figure2 regenerates the single-OST contention benchmark: k processes,
// each with a private single-stripe file pinned to the same OST, for
// k = 1..16. The ideal band scales the single-writer 95% CI by 1/k.
func Figure2(opt Options) (*Outcome, error) {
	plat := opt.platform()
	reps := opt.reps(5)
	maxJobs := refdata.Figure2.MaxJobs
	// Every writer count is an independent simulation: fan them out.
	results := make([]*workload.Result, maxJobs)
	err := opt.each(maxJobs, func(i int) error {
		k := i + 1
		cfg := ior.Config{
			Label:          fmt.Sprintf("figure2-k%d", k),
			API:            mpiio.DriverLustre,
			BlockSizeMB:    4,
			TransferSizeMB: 1,
			SegmentCount:   opt.segments(100),
			NumTasks:       k,
			WriteFile:      true,
			FilePerProc:    true,
			Hints:          mpiio.Hints{StripingFactor: 1, StripingUnitMB: 1, StripeOffset: 7},
			Reps:           reps,
		}
		res, err := workload.RunScenario(plat, workload.Solo(cfg), 0)
		results[i] = res
		return err
	})
	if err != nil {
		return nil, err
	}
	perProc := make([]float64, 0, maxJobs)
	var lo1, hi1 float64
	t := report.NewTable("Figure 2: per-process bandwidth on one contended OST (MB/s)",
		"Jobs", "Per-proc BW", "Ideal lower", "Ideal upper", "Within band")
	for k := 1; k <= maxJobs; k++ {
		pp := results[k-1].Jobs[0].IOR.PerProcWrite()
		if k == 1 {
			lo1, hi1 = pp.CI95()
			if lo1 <= 0 {
				lo1 = pp.Mean() * 0.95
				hi1 = pp.Mean() * 1.05
			}
		}
		mean := pp.Mean()
		perProc = append(perProc, mean)
		idealLo, idealHi := lo1/float64(k), hi1/float64(k)
		t.AddRow(k, mean, idealLo, idealHi, mean >= idealLo && mean <= idealHi)
	}
	o := &Outcome{
		ID:     "figure2",
		Title:  "Per-processor bandwidth of lscratchc under forced OST contention",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"single-writer MB/s", refdata.Figure2.SingleWriterMBs, perProc[0]},
			{"16-writer per-proc MB/s (≈288/16, minus thrash)",
				refdata.Figure2.SingleWriterMBs / 16, perProc[len(perProc)-1]},
		},
		Notes: []string{
			"As contention rises the measured curve diverges below the scaled ideal band, as in the paper.",
		},
		Work: workOf(results...),
	}
	return o, nil
}

// Figure3 regenerates the four simultaneous tuned IOR tasks, five
// repetitions each: per-task, per-repetition bandwidth.
func Figure3(opt Options) (*Outcome, error) {
	reps := opt.reps(5)
	run, err := runContendedSweep(opt, 160, reps)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 3: four contended tuned IOR tasks (MB/s)",
		"Rep", "Task 1", "Task 2", "Task 3", "Task 4")
	for rep := 0; rep < reps; rep++ {
		row := []any{rep + 1}
		for _, jr := range run.Jobs {
			vals := jr.IOR.Write.Values()
			if rep < len(vals) {
				row = append(row, vals[rep])
			} else {
				row = append(row, "-")
			}
		}
		t.AddRow(row...)
	}
	var all []float64
	for _, jr := range run.Jobs {
		all = append(all, jr.IOR.Write.Values()...)
	}
	mean := meanOf(all)
	o := &Outcome{
		ID:     "figure3",
		Title:  "Performance of 4 tasks × 5 repetitions contending for the file system",
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"per-task MB/s", refdata.Figure3MBs, mean},
			{"reduction from solo peak", refdata.Figure3ReductionFactor, refdata.Figure1.BestMBs / mean},
		},
		Work: run.Work,
	}
	return o, nil
}

// Figure5 regenerates the Lustre-vs-PLFS scaling study (and with Table7
// shares its data): tuned ad_lustre against ad_plfs from 16 to 4,096
// processes.
func Figure5(opt Options) (*Outcome, error) {
	rows, work, err := figure5Rows(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Figure 5: IOR write bandwidth, tuned Lustre vs PLFS (MB/s)",
		"Tasks", "Lustre", "PLFS", "paper Lustre", "paper PLFS")
	var comps []Comparison
	var crossSim, crossPaper int
	for _, r := range rows {
		t.AddRow(r.procs, r.lustre, r.plfs, r.paperLustre, r.paperPLFS)
		if r.procs == 512 || r.procs == 4096 {
			comps = append(comps,
				Comparison{fmt.Sprintf("PLFS MB/s at %d", r.procs), r.paperPLFS, r.plfs},
				Comparison{fmt.Sprintf("Lustre MB/s at %d", r.procs), r.paperLustre, r.lustre})
		}
		if crossSim == 0 && r.lustre > r.plfs {
			crossSim = r.procs
		}
		if crossPaper == 0 && r.paperLustre > r.paperPLFS {
			crossPaper = r.procs
		}
	}
	o := &Outcome{
		ID:     "figure5",
		Title:  "Achieved write bandwidth through ad_lustre (tuned) and ad_plfs",
		Tables: []*report.Table{t},
		Comparisons: append(comps,
			Comparison{"Lustre/PLFS crossover (procs)", float64(crossPaper), float64(crossSim)}),
		Notes: []string{
			"PLFS wins at small scale, peaks around 512 processes, then self-contends and collapses.",
		},
		Work: work,
	}
	return o, nil
}

type f5row struct {
	procs                      int
	lustre, lustreLo, lustreHi float64
	plfs, plfsLo, plfsHi       float64
	paperLustre, paperPLFS     float64
}

// figure5Rows runs the Lustre and PLFS IOR jobs at every Table VII scale.
// They are independent simulations, and the 2×len(TableVII) of them fan
// across the worker pool largest scale first: the 4,096-rank PLFS run is
// about a quarter of the work, and started last it would leave the other
// workers idle at the end. Rows stay in table order.
func figure5Rows(opt Options) ([]f5row, workload.Work, error) {
	plat := opt.platform()
	scales := len(refdata.TableVII)
	rows := make([]f5row, scales)
	results := make([]*workload.Result, 2*scales)
	err := opt.each(2*scales, func(k int) error {
		i, half := scales-1-k/2, k%2
		ref := refdata.TableVII[i]
		procs := ref.Procs
		if half == 0 {
			rows[i].procs = procs
			rows[i].paperLustre = ref.LustreMBs
			rows[i].paperPLFS = ref.PLFSMBs
		}
		if opt.Quick && procs < 64 {
			// tiny runs contribute little and the quick mode trims them
			if half == 0 {
				rows[i].lustre, rows[i].plfs = -1, -1
			}
			return nil
		}
		if half == 0 {
			lc := ior.PaperConfig(procs)
			lc.Label = fmt.Sprintf("figure5-lustre-%d", procs)
			lc.Hints = ior.TunedHints()
			lc.Reps = opt.reps(5)
			res, err := workload.RunScenario(plat, workload.Solo(lc), 0)
			if err != nil {
				return err
			}
			results[k] = res
			lw := res.Jobs[0].IOR.Write
			rows[i].lustre = lw.Mean()
			rows[i].lustreLo, rows[i].lustreHi = lw.CI95()
			return nil
		}
		pc := ior.PaperConfig(procs)
		pc.Label = fmt.Sprintf("figure5-plfs-%d", procs)
		pc.API = mpiio.DriverPLFS
		pc.Reps = opt.reps(5)
		if procs >= 2048 {
			pc.Reps = opt.reps(3)
		}
		res, err := workload.RunScenario(plat, workload.Solo(pc), 0)
		if err != nil {
			return err
		}
		results[k] = res
		pw := res.Jobs[0].IOR.Write
		rows[i].plfs = pw.Mean()
		rows[i].plfsLo, rows[i].plfsHi = pw.CI95()
		return nil
	})
	if err != nil {
		return nil, workload.Work{}, err
	}
	return rows, workOf(results...), nil
}

// Table7 renders the Figure 5 data in the paper's tabular form with 95%
// confidence intervals.
func Table7(opt Options) (*Outcome, error) {
	rows, work, err := figure5Rows(opt)
	if err != nil {
		return nil, err
	}
	t := report.NewTable("Table VII: IOR through Lustre and PLFS (MB/s, 95% CI)",
		"Procs", "Lustre", "Lustre CI", "PLFS", "PLFS CI")
	for _, r := range rows {
		if r.lustre < 0 {
			t.AddRow(r.procs, "(skipped: quick)", "", "", "")
			continue
		}
		t.AddRow(r.procs,
			r.lustre, fmt.Sprintf("(%.0f, %.0f)", r.lustreLo, r.lustreHi),
			r.plfs, fmt.Sprintf("(%.0f, %.0f)", r.plfsLo, r.plfsHi))
	}
	var comps []Comparison
	for _, r := range rows {
		if r.lustre < 0 {
			continue
		}
		comps = append(comps,
			Comparison{fmt.Sprintf("Lustre@%d", r.procs), r.paperLustre, r.lustre},
			Comparison{fmt.Sprintf("PLFS@%d", r.procs), r.paperPLFS, r.plfs})
	}
	return &Outcome{
		ID:          "table7",
		Title:       "Numeric data for Figure 5",
		Tables:      []*report.Table{t},
		Comparisons: comps,
		Work:        work,
	}, nil
}
