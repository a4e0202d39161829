package experiments

import (
	"fmt"

	"pfsim/internal/core"
	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
	"pfsim/internal/refdata"
	"pfsim/internal/report"
	"pfsim/internal/workload"
)

// Table5 regenerates Table V / Figure 4: four contending jobs while the
// per-job stripe request shrinks from 160 to 32 — bandwidth, the OST
// sharing histogram, and predicted vs realised Dinuse/Dload.
func Table5(opt Options) (*Outcome, error) {
	plat := opt.platform()
	reps := opt.reps(5)
	t := report.NewTable("Table V: four contended jobs, varying stripe request",
		"R", "Avg BW", "Total BW", "Dreq", "x1", "x2", "x3", "x4",
		"Pred Dinuse", "Pred Dload", "Actual Dinuse", "Actual Dload")
	var comps []Comparison
	var avg32, avg160 float64
	// One contended four-job simulation per stripe request: independent
	// systems, so the requests fan across the worker pool.
	perR := make([]*workload.Result, len(refdata.TableV))
	err := opt.each(len(refdata.TableV), func(i int) error {
		run, err := runContendedSweep(opt, refdata.TableV[i].R, reps)
		perR[i] = run
		return err
	})
	if err != nil {
		return nil, err
	}
	for ri, ref := range refdata.TableV {
		jobs := perR[ri].Jobs
		var jobMeans []float64
		for _, jr := range jobs {
			jobMeans = append(jobMeans, jr.WriteMBs())
		}
		avg := meanOf(jobMeans)
		// Per-repetition sharing histogram across the four jobs' layouts.
		var sumCounts [5]float64
		var sumInUse, sumLoad float64
		for rep := 0; rep < reps; rep++ {
			a := core.Assignment{Dtotal: plat.OSTs}
			for _, jr := range jobs {
				if rep < len(jr.IOR.LayoutOSTs) {
					a.JobOSTs = append(a.JobOSTs, jr.IOR.LayoutOSTs[rep])
				}
			}
			h := a.UsageHistogram()
			for m := 1; m <= 4; m++ {
				sumCounts[m] += float64(h.Count(m))
			}
			sumInUse += float64(a.InUse())
			sumLoad += a.Load()
		}
		f := float64(reps)
		pred := core.Dinuse(plat.OSTs, ref.R, 4)
		predLoad := core.Dload(plat.OSTs, ref.R, 4)
		t.AddRow(ref.R, avg, avg*4, 4*ref.R,
			sumCounts[1]/f, sumCounts[2]/f, sumCounts[3]/f, sumCounts[4]/f,
			pred, predLoad, sumInUse/f, sumLoad/f)
		comps = append(comps,
			Comparison{fmt.Sprintf("avg BW at R=%d", ref.R), ref.AvgMBs, avg},
			Comparison{fmt.Sprintf("actual Dinuse at R=%d", ref.R), ref.ActualInUse, sumInUse / f})
		switch ref.R {
		case 32:
			avg32 = avg
		case 160:
			avg160 = avg
		}
	}
	o := &Outcome{
		ID:          "table5",
		Title:       "Bandwidth/availability trade-off under contention (Figure 4 data)",
		Tables:      []*report.Table{t},
		Comparisons: comps,
		Work:        workOf(perR...),
	}
	if avg160 > 0 {
		o.Notes = append(o.Notes, fmt.Sprintf(
			"Dropping each job's request from 160 to 32 stripes costs %.0f%% bandwidth while freeing ~%.0f%% of in-use OSTs.",
			100*(1-avg32/avg160),
			100*(1-core.Dinuse(plat.OSTs, 32, 4)/core.Dinuse(plat.OSTs, 160, 4))))
	}
	return o, nil
}

// plfsCollisions runs an n-rank PLFS IOR workload and renders the
// backend collision statistics the way Tables VIII and IX do: for each
// repetition, the number of in-use OSTs experiencing c collisions.
func plfsCollisions(opt Options, id string, procs, fullReps int, paperDload float64, paperMBs []float64) (*Outcome, error) {
	plat := opt.platform()
	cfg := ior.PaperConfig(procs)
	cfg.Label = fmt.Sprintf("%s-plfs-%d", id, procs)
	cfg.API = mpiio.DriverPLFS
	cfg.SegmentCount = opt.segments(100)
	cfg.Reps = opt.reps(fullReps)
	run, err := workload.RunScenario(plat, workload.Solo(cfg), 0)
	if err != nil {
		return nil, err
	}
	res := run.Jobs[0].IOR
	reps := len(res.PLFS)
	headers := []string{"Collisions"}
	for e := 1; e <= reps; e++ {
		headers = append(headers, fmt.Sprintf("Exp %d", e))
	}
	t := report.NewTable(
		fmt.Sprintf("PLFS backend stripe collisions, %d processes", procs), headers...)
	maxC := 0
	hists := make([][]int, reps)
	for i, a := range res.PLFS {
		hists[i] = a.CollisionHistogram().Counts()
		if len(hists[i])-1 > maxC {
			maxC = len(hists[i]) - 1
		}
	}
	for c := 0; c <= maxC; c++ {
		row := []any{c}
		for _, h := range hists {
			if c < len(h) {
				row = append(row, h[c])
			} else {
				row = append(row, 0)
			}
		}
		t.AddRow(row...)
	}
	inUseRow := []any{"Dinuse"}
	loadRow := []any{"Dload"}
	bwRow := []any{"BW (MB/s)"}
	var meanLoad float64
	for i, a := range res.PLFS {
		inUseRow = append(inUseRow, a.InUse())
		loadRow = append(loadRow, a.Load())
		meanLoad += a.Load()
		vals := res.Write.Values()
		if i < len(vals) {
			bwRow = append(bwRow, vals[i])
		}
	}
	meanLoad /= float64(reps)
	t.AddRow(inUseRow...)
	t.AddRow(loadRow...)
	t.AddRow(bwRow...)

	o := &Outcome{
		ID:     id,
		Title:  fmt.Sprintf("PLFS self-contention statistics at %d processes", procs),
		Tables: []*report.Table{t},
		Comparisons: []Comparison{
			{"mean Dload", paperDload, meanLoad},
			{"mean BW MB/s", meanOf(paperMBs), res.Write.Mean()},
			{"analytic Dload (Eq. 6)", paperDload, core.PLFSLoad(plat.OSTs, procs)},
		},
		Work: run.Work,
	}
	return o, nil
}

// Table8 regenerates Table VIII: collision statistics for the PLFS backend
// directory at 512 processes.
func Table8(opt Options) (*Outcome, error) {
	var paperMean float64
	for _, l := range refdata.TableVIII.Dload {
		paperMean += l
	}
	paperMean /= float64(len(refdata.TableVIII.Dload))
	return plfsCollisions(opt, "table8", 512, 5, paperMean, refdata.TableVIII.MBs)
}

// Table9 regenerates Table IX: collision statistics at 4,096 processes,
// where every OST is in use and the load reaches 17.07.
func Table9(opt Options) (*Outcome, error) {
	reps := 5
	if opt.Quick {
		reps = 1
	}
	return plfsCollisions(opt, "table9", 4096, reps, refdata.TableIXDload, refdata.TableIXMBs)
}
