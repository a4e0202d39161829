// pfsim-metrics prints the paper's analytic contention metrics: the load
// tables (Tables III, IV and VI), predictions for arbitrary file systems,
// and PLFS self-contention estimates (Equations 5-6). It can also report
// the fluid solver's own cost counters for a stress scenario, the
// simulation-side counters the root package's TestWorkCounters pins.
//
// Usage:
//
//	pfsim-metrics                     # reproduce Tables III, IV and VI
//	pfsim-metrics -dtotal 480 -r 96 -jobs 8
//	pfsim-metrics -plfs-ranks 2048    # PLFS load at a rank count
//	pfsim-metrics -solver-writers 512 # solver work for a 1,024-flow storm
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pfsim"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/report"
	"pfsim/internal/workload"
)

func main() {
	dtotal := flag.Int("dtotal", 480, "number of OSTs exposed by the file system")
	r := flag.Int("r", 0, "per-job stripe request; 0 prints the paper's tables")
	jobs := flag.Int("jobs", 10, "maximum number of concurrent jobs")
	plfsRanks := flag.Int("plfs-ranks", 0, "PLFS application rank count (Equations 5-6)")
	maxLoad := flag.Float64("maxload", 0, "recommend the smallest request keeping load <= maxload")
	solverWriters := flag.Int("solver-writers", 0,
		"simulate this many file-per-process writers and print the solver's work counters")
	flag.Parse()

	switch {
	case *solverWriters > 0:
		if err := printSolverStats(os.Stdout, *solverWriters); err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
	case *plfsRanks > 0:
		printPLFS(*dtotal, *plfsRanks)
	case *r > 0:
		printCustom(*dtotal, *r, *jobs, *maxLoad)
	default:
		printPaperTables()
	}
}

// printSolverStats runs pfsim.SolverStressScenario — the exact workload
// behind BenchmarkSolver*Flows and the solver rows of the root package's
// testdata/counters.golden — once per solver mode and prints the
// Net.Stats counters side by side. The counters are deterministic, so
// the incremental column at 512 or 2,048 writers equals those rows.
func printSolverStats(w io.Writer, writers int) error {
	plat, sc := pfsim.SolverStressScenario(writers)
	var inc, ref flow.Stats
	for _, reference := range []bool{false, true} {
		res, err := workload.RunScenario(plat, sc, 0, func(sys *lustre.System) {
			sys.Net().UseReferenceSolver(reference)
		})
		if err != nil {
			return err
		}
		if reference {
			ref = res.Work.Flow
		} else {
			inc = res.Work.Flow
		}
	}
	t := report.NewTable(
		fmt.Sprintf("Solver work: %d file-per-process writers (%d flows)", writers, 2*writers),
		"Counter", "Incremental", "Reference")
	t.AddRow("solves", inc.Solves, ref.Solves)
	t.AddRow("components solved", inc.ComponentsSolved, ref.ComponentsSolved)
	t.AddRow("component flows scanned", inc.ComponentFlowsScanned, ref.ComponentFlowsScanned)
	t.AddRow("link visits", inc.LinkVisits, ref.LinkVisits)
	t.AddRow("rate-fixing rounds", inc.Rounds, ref.Rounds)
	t.AddRow("resumed solves", inc.ResumedSolves, ref.ResumedSolves)
	t.AddRow("replayed rounds", inc.ReplayedRounds, ref.ReplayedRounds)
	t.AddRow("flows scanned", inc.FlowsScanned, ref.FlowsScanned)
	t.AddRow("flows settled", inc.FlowsSettled, ref.FlowsSettled)
	t.AddRow("heap ops", inc.HeapOps, ref.HeapOps)
	t.AddRow("link-share heap ops", inc.ShareHeapOps, ref.ShareHeapOps)
	t.AddRow("coalesced recomputes", inc.Coalesced, ref.Coalesced)
	t.Fprint(w)
	fmt.Fprintf(w, "\nflows scanned per round: %.1f incremental vs %.1f reference (full rescan would pay %d)\n",
		float64(inc.FlowsScanned)/float64(inc.Rounds),
		float64(ref.FlowsScanned)/float64(ref.Rounds), 2*writers)
	fmt.Fprintf(w, "flows per component solve: %.1f incremental vs %.1f reference (the whole population)\n",
		float64(inc.ComponentFlowsScanned)/float64(inc.ComponentsSolved),
		float64(ref.ComponentFlowsScanned)/float64(ref.ComponentsSolved))
	fmt.Fprintf(w, "heap ops per solve: %.1f (the pre-heap completion scan paid %d flow touches per solve)\n",
		float64(inc.HeapOps)/float64(inc.Solves), 2*writers)
	return nil
}

func printPaperTables() {
	for _, tc := range []struct {
		title string
		fs    pfsim.FileSystem
		r     int
	}{
		{"Table III: lscratchc, R=160", pfsim.Lscratchc(), 160},
		{"Table IV: lscratchc, R=64", pfsim.Lscratchc(), 64},
		{"Table VI: Stampede, R=128", pfsim.StampedeFS(), 128},
	} {
		printLoadTable(tc.title, tc.fs, tc.r, 10)
		fmt.Println()
	}
}

func printLoadTable(title string, fs pfsim.FileSystem, r, jobs int) {
	t := report.NewTable(title, "Jobs", "Dinuse", "Dreq", "Dload")
	for _, row := range pfsim.LoadTable(fs, r, jobs) {
		t.AddRow(row.Jobs, row.Dinuse, row.Dreq, row.Dload)
	}
	t.Fprint(os.Stdout)
}

func printCustom(dtotal, r, jobs int, maxLoad float64) {
	fs := pfsim.FileSystem{Name: "custom", TotalOSTs: dtotal, MaxStripeCount: dtotal}
	if err := fs.Validate(r); err != nil {
		fmt.Fprintln(os.Stderr, err)
		os.Exit(2)
	}
	printLoadTable(fmt.Sprintf("Dtotal=%d, R=%d", dtotal, r), fs, r, jobs)
	q := pfsim.Availability(fs, r, jobs)
	fmt.Printf("\nWith %d jobs: %.1f OSTs free (%.0f%%), collision probability %.2f, expected max sharers %.1f\n",
		jobs, q.FreeOSTs, 100*q.FreeFraction, q.CollisionProb, q.ExpectedMaxSharers)
	if maxLoad > 0 {
		candidates := []int{}
		for c := 8; c <= dtotal; c *= 2 {
			candidates = append(candidates, c)
		}
		if rec := pfsim.RecommendRequest(fs, jobs, maxLoad, candidates); rec > 0 {
			fmt.Printf("Smallest power-of-two request keeping load <= %.2f: %d stripes (load %.2f)\n",
				maxLoad, rec, pfsim.Dload(dtotal, rec, jobs))
		} else {
			fmt.Printf("No request keeps load <= %.2f with %d jobs on %d OSTs\n", maxLoad, jobs, dtotal)
		}
	}
}

func printPLFS(dtotal, ranks int) {
	fmt.Printf("PLFS on %d OSTs with %d ranks (R=2 per rank):\n", dtotal, ranks)
	fmt.Printf("  Dinuse (Eq. 5): %.2f\n", pfsim.PLFSDinuse(dtotal, ranks))
	fmt.Printf("  Dload  (Eq. 6): %.2f\n", pfsim.PLFSLoad(dtotal, ranks))
	be := pfsim.PLFSBreakEvenRanks(dtotal, 3)
	fmt.Printf("  Load exceeds 3 tasks/OST (the paper's \"good\" threshold) beyond %d ranks\n", be)
}
