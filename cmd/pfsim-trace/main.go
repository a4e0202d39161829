// pfsim-trace runs one scenario file with the I/O tracer attached and
// reports what happened inside: per-transfer records, the slowest
// streams (the stragglers that set each job's bandwidth), and an
// aggregate throughput timeline. Use -csv to dump the raw trace.
//
// The file is read as pfsim-scenario reads it, timeline faults included,
// but its assertion block is not evaluated and no solo baselines run:
// that is pfsim-scenario's job. Sharded files are refused, since the
// tracer watches one file system.
//
// Usage:
//
//	pfsim-trace scenarios/paper-contended-four.yaml
//	pfsim-trace -csv trace.csv -slowest 10 mix.yaml
package main

import (
	"flag"
	"fmt"
	"io"
	"os"

	"pfsim/internal/lustre"
	"pfsim/internal/report"
	"pfsim/internal/scenariofile"
	"pfsim/internal/trace"
	"pfsim/internal/workload"
)

// options collects the command line; run is pure in (options, out), so
// the golden-output test drives it directly.
type options struct {
	path    string
	csvPath string
	slowest int
}

func main() {
	var o options
	flag.StringVar(&o.csvPath, "csv", "", "write the raw transfer trace to this file")
	flag.IntVar(&o.slowest, "slowest", 5, "how many straggler transfers to list")
	flag.Usage = func() {
		fmt.Fprintln(flag.CommandLine.Output(), "usage: pfsim-trace [-csv file] [-slowest n] file.yaml")
		flag.PrintDefaults()
	}
	flag.Parse()
	if flag.NArg() != 1 {
		flag.Usage()
		os.Exit(2)
	}
	o.path = flag.Arg(0)
	if err := run(os.Stdout, o); err != nil {
		fmt.Fprintln(os.Stderr, "pfsim-trace:", err)
		os.Exit(1)
	}
}

func run(w io.Writer, o options) error {
	f, err := scenariofile.Load(o.path)
	if err != nil {
		return err
	}
	if f.Sharded() {
		return fmt.Errorf("%s: sharded files cannot be traced; run it with pfsim-scenario", o.path)
	}
	plat, scens, err := f.Compile()
	if err != nil {
		return err
	}

	rec := &trace.Recorder{}
	res, err := workload.RunScenario(plat, scens[0], 0, f.InstrumentShard(-1), func(sys *lustre.System) {
		rec.Attach(sys.Net())
	})
	if err != nil {
		return err
	}

	for i := range res.Jobs {
		jr := &res.Jobs[i]
		fmt.Fprintf(w, "%s (%s, %d tasks): %.0f MB/s, finished at %.2f s\n",
			jr.Label, jr.Config.API, jr.Config.NumTasks, jr.WriteMBs(), jr.FinishedAt)
	}
	fmt.Fprintf(w, "\ntransfers: %d (peak concurrency %d), %.0f MB moved\n",
		rec.Len(), rec.MaxConcurrent(), rec.TotalMB())
	start, end := rec.Makespan()
	fmt.Fprintf(w, "makespan:  %.2f s (%.2f .. %.2f)\n\n", end-start, start, end)

	t := report.NewTable(fmt.Sprintf("%d slowest transfers", o.slowest),
		"Name", "Start", "End", "MB", "MB/s")
	for _, r := range rec.Slowest(o.slowest) {
		t.AddRow(r.Name, r.Start, r.End, r.SizeMB, r.MeanMBs)
	}
	t.Fprint(w)

	first, tl := rec.Timeline((end - start) / 20)
	labels := make([]string, len(tl))
	for i := range tl {
		labels[i] = fmt.Sprintf("t%02d", first+i)
	}
	fmt.Fprintln(w)
	report.Bars(w, "aggregate throughput timeline (MB/s)", labels, tl, 40)

	if o.csvPath != "" {
		out, err := os.Create(o.csvPath)
		if err != nil {
			return err
		}
		if err := rec.WriteCSV(out); err != nil {
			out.Close()
			return err
		}
		if err := out.Close(); err != nil {
			return err
		}
		fmt.Fprintf(w, "\ntrace written to %s\n", o.csvPath)
	}
	return nil
}
