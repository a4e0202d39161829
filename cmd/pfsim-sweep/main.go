// pfsim-sweep reproduces the Section IV parameter search (Figure 1): an
// exhaustive sweep of stripe count × stripe size for an IOR workload on
// the simulated platform, fanned across a worker pool, optionally
// followed by the genetic autotuner.
//
// Usage:
//
//	pfsim-sweep                 # full Figure 1 grid, 1,024 tasks, all cores
//	pfsim-sweep -tasks 256 -reps 3 -parallel 1
//	pfsim-sweep -ga             # add the Behzad-style GA comparison
package main

import (
	"flag"
	"fmt"
	"os"
	"strconv"
	"strings"

	"pfsim"
	"pfsim/internal/report"
	"pfsim/internal/sweep"
)

func main() {
	tasks := flag.Int("tasks", 1024, "IOR task count")
	reps := flag.Int("reps", 2, "repetitions per configuration")
	countsArg := flag.String("counts", "", "comma-separated stripe counts (default: Figure 1 axis)")
	sizesArg := flag.String("sizes", "1,32,64,128,256", "comma-separated stripe sizes in MB")
	ga := flag.Bool("ga", false, "also run the genetic autotuner")
	csv := flag.Bool("csv", false, "emit the grid as CSV")
	parallel := flag.Int("parallel", 0, "worker pool width (0 = all cores, 1 = serial)")
	progress := flag.Bool("progress", false, "report sweep progress on stderr")
	flag.Parse()

	plat := pfsim.Cab()
	counts := pfsim.SweepCounts(plat)
	if *countsArg != "" {
		counts = parseInts(*countsArg)
	}
	sizes := parseFloats(*sizesArg)

	opts := []pfsim.RunnerOption{pfsim.WithParallelism(*parallel)}
	if *progress {
		opts = append(opts, pfsim.WithProgress(func(done, total int) {
			fmt.Fprintf(os.Stderr, "\rsweep: %d/%d points", done, total)
			if done == total {
				fmt.Fprintln(os.Stderr)
			}
		}))
	}
	runner := pfsim.NewRunner(opts...)
	grid, err := runner.Sweep(plat, counts, sizes, pfsim.SweepOptions{Tasks: *tasks, Reps: *reps})
	if err != nil {
		fmt.Fprintln(os.Stderr, "pfsim-sweep:", err)
		os.Exit(1)
	}
	headers := []string{"OSTs"}
	for _, s := range sizes {
		headers = append(headers, fmt.Sprintf("%gM", s))
	}
	t := report.NewTable(fmt.Sprintf("Write bandwidth (MB/s), %d tasks", *tasks), headers...)
	for i, c := range grid.Counts {
		row := []any{c}
		for j := range sizes {
			row = append(row, grid.MBs[i][j])
		}
		t.AddRow(row...)
	}
	if *csv {
		t.CSV(os.Stdout)
	} else {
		t.Fprint(os.Stdout)
	}
	best := grid.Best()
	fmt.Printf("\noptimum: %d stripes × %g MB = %.0f MB/s\n",
		best.StripeCount, best.StripeSizeMB, best.MBs)

	if *ga {
		// The grid was measured under the same options, so the GA reads
		// the points it holds instead of simulating them again.
		res, err := sweep.Genetic(plat, sweep.GAOptions{
			Options: sweep.Options{Tasks: *tasks, Reps: *reps, Parallelism: *parallel},
			Seed:    plat.Seed,
			Counts:  counts,
			SizesMB: sizes,
			Grid:    grid,
		})
		if err != nil {
			fmt.Fprintln(os.Stderr, "pfsim-sweep:", err)
			os.Exit(1)
		}
		fmt.Printf("genetic:  %d stripes × %g MB = %.0f MB/s after %d evaluations (grid: %d)\n",
			res.Best.StripeCount, res.Best.StripeSizeMB, res.Best.MBs,
			res.Evaluations, len(counts)*len(sizes))
	}
}

func parseInts(s string) []int {
	var out []int
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.Atoi(strings.TrimSpace(part))
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfsim-sweep: bad count %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}

func parseFloats(s string) []float64 {
	var out []float64
	for _, part := range strings.Split(s, ",") {
		v, err := strconv.ParseFloat(strings.TrimSpace(part), 64)
		if err != nil {
			fmt.Fprintf(os.Stderr, "pfsim-sweep: bad size %q\n", part)
			os.Exit(2)
		}
		out = append(out, v)
	}
	return out
}
