// pfsim-scenario drives declarative scenario files: YAML/JSON documents
// describing a platform, a workload fleet, a timed fault/chaos timeline
// and a self-checking assertion block. It is the CI entry point that
// turns every file under scenarios/ into a regression test.
//
// Usage:
//
//	pfsim-scenario run scenarios/...        # run a corpus, assertions gate
//	pfsim-scenario run -v file.yaml         # one file, per-job detail
//	pfsim-scenario validate scenarios/...   # static + platform checks only
//	pfsim-scenario list scenarios/...       # index the corpus
package main

import (
	"flag"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"

	"pfsim/internal/scenariofile"
	"pfsim/internal/workload"
)

func main() {
	os.Exit(cmdMain(os.Args[1:], os.Stdout, os.Stderr))
}

// cmdMain is the testable entry point: argv in, exit code out.
func cmdMain(args []string, stdout, stderr io.Writer) int {
	if len(args) == 0 {
		usage(stderr)
		return 2
	}
	sub, rest := args[0], args[1:]
	switch sub {
	case "run":
		return cmdRun(rest, stdout, stderr)
	case "validate":
		return cmdValidate(rest, stdout, stderr)
	case "list":
		return cmdList(rest, stdout, stderr)
	case "-h", "--help", "help":
		usage(stdout)
		return 0
	}
	fmt.Fprintf(stderr, "pfsim-scenario: unknown command %q\n", sub)
	usage(stderr)
	return 2
}

func usage(w io.Writer) {
	fmt.Fprint(w, `usage: pfsim-scenario <command> [flags] <path>...

commands:
  run        execute scenario files; assertion blocks gate the exit code
  validate   parse and validate without simulating
  list       index scenario files (name, shape, assertions)

paths may be files, directories, or dir/... (recursive); directories
collect every .yaml, .yml and .json file beneath them, sorted.

run flags:
  -seed N    override the platform seed
  -par N     worker pool width for solo baselines and shards (0 = all cores)
  -v         per-job detail for every file
`)
}

// expandPaths resolves path arguments to a sorted list of scenario
// files. A trailing /... is accepted (and equivalent to naming the
// directory): both walk recursively.
func expandPaths(args []string) ([]string, error) {
	var out []string
	for _, arg := range args {
		arg = strings.TrimSuffix(arg, "/...")
		info, err := os.Stat(arg)
		if err != nil {
			return nil, err
		}
		if !info.IsDir() {
			out = append(out, arg)
			continue
		}
		err = filepath.WalkDir(arg, func(p string, d fs.DirEntry, err error) error {
			if err != nil {
				return err
			}
			if d.IsDir() {
				return nil
			}
			switch filepath.Ext(p) {
			case ".yaml", ".yml", ".json":
				out = append(out, p)
			}
			return nil
		})
		if err != nil {
			return nil, err
		}
	}
	if len(out) == 0 {
		return nil, fmt.Errorf("no scenario files found")
	}
	sort.Strings(out)
	return out, nil
}

// cmdRun executes every file and reports pass/fail per file plus a
// corpus summary. Exit code 1 when any file fails (to load, validate,
// simulate, or assert).
func cmdRun(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("run", flag.ContinueOnError)
	fl.SetOutput(stderr)
	seed := fl.Uint64("seed", 0, "override the platform seed")
	par := fl.Int("par", 0, "worker pool width for solo baselines and shards (0 = all cores)")
	verbose := fl.Bool("v", false, "per-job detail")
	if err := fl.Parse(args); err != nil {
		return 2
	}
	paths, err := expandPaths(fl.Args())
	if err != nil {
		fmt.Fprintln(stderr, "pfsim-scenario:", err)
		return 2
	}
	passed, failed := 0, 0
	for _, path := range paths {
		ok := runOne(path, *seed, *par, *verbose, stdout)
		if ok {
			passed++
		} else {
			failed++
		}
	}
	fmt.Fprintf(stdout, "\n%d passed, %d failed, %d total\n", passed, failed, passed+failed)
	if failed > 0 {
		return 1
	}
	return 0
}

// runOne executes one file, printing its verdict; false on any failure.
func runOne(path string, seed uint64, par int, verbose bool, w io.Writer) bool {
	f, err := scenariofile.Load(path)
	if err != nil {
		fmt.Fprintf(w, "=== FAIL %s\n    %v\n", path, err)
		return false
	}
	res, err := scenariofile.Run(f, scenariofile.RunOptions{Seed: seed, Parallelism: par})
	if err != nil {
		fmt.Fprintf(w, "=== FAIL %s (%s)\n    %v\n", path, f.Name, err)
		return false
	}
	verdict := "ok  "
	if !res.Passed() {
		verdict = "FAIL"
	}
	agg := res.Aggregate()
	jobs := 0
	res.EachJob(func(int, *workload.JobResult) { jobs++ })
	fmt.Fprintf(w, "=== %s %s (%s)\n", verdict, path, f.Name)
	fmt.Fprintf(w, "    jobs %d  makespan %.1fs  total %.1f MB/s  mean %.1f MB/s  asserts %d\n",
		jobs, res.Makespan(), agg.TotalMBs, agg.MeanMBs, f.Assert.Count())
	if verbose {
		res.EachJob(func(shard int, jr *workload.JobResult) {
			loc := ""
			if shard >= 0 {
				loc = fmt.Sprintf("fs%d/", shard)
			}
			line := fmt.Sprintf("    job %s%-24s %10.1f MB/s  finished %.1fs", loc, jr.Label, jr.WriteMBs(), jr.FinishedAt)
			if jr.Slowdown > 0 {
				line += fmt.Sprintf("  slowdown %.2f", jr.Slowdown)
			}
			fmt.Fprintln(w, line)
		})
	}
	for _, fail := range res.Failures {
		fmt.Fprintf(w, "    assert failed: %s\n", fail)
	}
	return res.Passed()
}

// cmdValidate checks every file without simulating.
func cmdValidate(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("validate", flag.ContinueOnError)
	fl.SetOutput(stderr)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	paths, err := expandPaths(fl.Args())
	if err != nil {
		fmt.Fprintln(stderr, "pfsim-scenario:", err)
		return 2
	}
	bad := 0
	for _, path := range paths {
		f, err := scenariofile.Load(path)
		if err == nil {
			err = f.Validate()
		}
		if err != nil {
			fmt.Fprintf(stdout, "invalid  %s\n    %v\n", path, err)
			bad++
			continue
		}
		fmt.Fprintf(stdout, "valid    %s (%s)\n", path, f.Name)
	}
	if bad > 0 {
		fmt.Fprintf(stdout, "\n%d of %d files invalid\n", bad, len(paths))
		return 1
	}
	fmt.Fprintf(stdout, "\nall %d files valid\n", len(paths))
	return 0
}

// cmdList indexes the corpus: one line per file with its shape.
func cmdList(args []string, stdout, stderr io.Writer) int {
	fl := flag.NewFlagSet("list", flag.ContinueOnError)
	fl.SetOutput(stderr)
	if err := fl.Parse(args); err != nil {
		return 2
	}
	paths, err := expandPaths(fl.Args())
	if err != nil {
		fmt.Fprintln(stderr, "pfsim-scenario:", err)
		return 2
	}
	for _, path := range paths {
		f, err := scenariofile.Load(path)
		if err != nil {
			fmt.Fprintf(stdout, "%-40s (unreadable: %v)\n", path, err)
			continue
		}
		shape := "monolithic"
		if f.Sharded() {
			shape = fmt.Sprintf("%d shards", f.ShardCount())
		}
		fmt.Fprintf(stdout, "%-40s %-24s %-10s events %-3d asserts %-3d %s\n",
			path, f.Name, shape, len(f.Timeline), f.Assert.Count(), f.Description)
	}
	return 0
}
