// Command bench is pfsim's end-to-end benchmark. It runs one named
// workload through the simulator's public entry points for a fixed
// number of seconds, checks every result against the first iteration and
// the recorded digests, and prints one line per metric followed by a JSON
// summary line. With -trace 1 it runs the traced per-layer measurement
// instead. Without -workload it runs every workload in turn, each in its
// own child process. See README.md.
//
// Usage, from the repository root:
//
//	bash bench/run.sh --workload corpus --seed 1 --seconds 20 --trace 0
//	bash bench/run.sh                      # every workload, default seed
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
)

func main() {
	name := flag.String("workload", "", "workload to run; empty runs every workload, each in a child process")
	seed := flag.Uint64("seed", 1, "seed for the generated workloads (corpus and paper-artefacts are fixed inputs)")
	seconds := flag.Float64("seconds", 20, "seconds of measured iterations")
	trace := flag.Int("trace", 0, "1 runs the traced per-layer measurement instead of the end-to-end one")
	update := flag.Bool("update-digests", false, "rerun every workload once at the default seed and rewrite bench/digests.json")
	flag.Parse()
	if flag.NArg() > 0 || (*trace != 0 && *trace != 1) {
		flag.Usage()
		os.Exit(2)
	}
	cfg := config{root: ".", seed: *seed, seconds: *seconds, outDir: filepath.Join(".bench_build", "trace")}

	switch {
	case *update:
		if err := updateDigests(cfg); err != nil {
			fatal(err)
		}
	case *name == "":
		os.Exit(runChildren(os.Args[1:]))
	default:
		w, ok := lookupWorkload(*name)
		if !ok {
			fatal(fmt.Errorf("unknown workload %q", *name))
		}
		var (
			rep *report
			err error
		)
		if *trace == 1 {
			rep, err = runTraced(w, cfg)
		} else {
			rep, err = runMeasured(w, cfg)
		}
		if err != nil {
			fatal(err)
		}
		if err := rep.print(os.Stdout); err != nil {
			fatal(err)
		}
		if rep.failed > 0 {
			os.Exit(1)
		}
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "bench:", err)
	os.Exit(2)
}

// runChildren runs every workload in its own child process, so each
// process's peak RSS belongs to one workload alone, and returns the exit
// code: 0 when every child passed.
func runChildren(args []string) int {
	code := 0
	for _, w := range workloads {
		cmd := exec.Command(os.Args[0], append([]string{"-workload", w.name}, args...)...)
		cmd.Stdout, cmd.Stderr = os.Stdout, os.Stderr
		if err := cmd.Run(); err != nil {
			fmt.Fprintf(os.Stderr, "bench: %s: %v\n", w.name, err)
			code = 1
		}
	}
	return code
}

// metric is one reported number with its unit.
type metric struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// report is one workload run's outcome: the metrics, in print order, and
// the correctness accounting over the run's units.
type report struct {
	workload          string
	names             []string
	metrics           map[string]metric
	notes             map[string]string // printed beside a metric's line
	attempted, failed int
	failures          []string // first few failure messages, for stderr
}

func newReport(workload string) *report {
	return &report{workload: workload, metrics: map[string]metric{}, notes: map[string]string{}}
}

func (r *report) add(name string, value float64, unit string) {
	if _, ok := r.metrics[name]; !ok {
		r.names = append(r.names, name)
	}
	r.metrics[name] = metric{value, unit}
}

// fail records one failed unit.
func (r *report) fail(format string, args ...any) {
	r.failed++
	if len(r.failures) < 10 {
		r.failures = append(r.failures, fmt.Sprintf(format, args...))
	}
}

// print writes one line per metric and then the JSON summary as the last
// line. Failure messages go to stderr.
func (r *report) print(w io.Writer) error {
	for _, msg := range r.failures {
		fmt.Fprintf(os.Stderr, "bench: %s: FAIL %s\n", r.workload, msg)
	}
	for _, n := range r.names {
		m := r.metrics[n]
		line := fmt.Sprintf("%-16s %-34s %-14.6g %s", r.workload, n, m.Value, m.Unit)
		if note := r.notes[n]; note != "" {
			line += "  (" + note + ")"
		}
		if _, err := fmt.Fprintln(w, line); err != nil {
			return err
		}
	}
	failedFrac := 0.0
	if r.attempted > 0 {
		failedFrac = float64(r.failed) / float64(r.attempted)
	}
	fmt.Fprintf(w, "%-16s %-34s %-14.6g ratio  (%d of %d units)\n", r.workload, "failed_frac", failedFrac, r.failed, r.attempted)
	summary, err := json.Marshal(struct {
		Correct   bool              `json:"correct"`
		Attempted int               `json:"attempted"`
		Failed    int               `json:"failed"`
		Metrics   map[string]metric `json:"metrics"`
	}{r.failed == 0 && r.attempted > 0, r.attempted, r.failed, r.jsonMetrics()})
	if err != nil {
		return err
	}
	_, err = fmt.Fprintln(w, string(summary))
	return err
}

// jsonMetrics is every metric except the informational ones, which are
// printed as lines but are not part of the summary's metric set.
func (r *report) jsonMetrics() map[string]metric {
	out := make(map[string]metric, len(r.metrics))
	for n, m := range r.metrics {
		if !informational[n] {
			out[n] = m
		}
	}
	return out
}

// informational metrics are printed for readers but gated elsewhere:
// paper_error_pct exists for one workload only and is checked against
// its recorded value as part of correctness.
var informational = map[string]bool{"paper_error_pct": true}
