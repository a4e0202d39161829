package pfsim

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"flag"
	"fmt"
	"io"
	"os"
	"path/filepath"
	"reflect"
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pfsim/internal/experiments"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/scenariofile"
	"pfsim/internal/sim"
	"pfsim/internal/workload"
)

// updateCounters rewrites testdata/counters.golden from the current code
// instead of checking against it: go test -run TestWorkCounters -update .
var updateCounters = flag.Bool("update", false, "rewrite testdata/counters.golden")

const countersGolden = "testdata/counters.golden"

// allocSlackPct is how far a run's allocations, in objects and in bytes,
// may stray from the recorded value, either way. Work counters are exact,
// but from one process to the next the same run allocates a few dozen
// objects more or fewer, and up to a few percent more or fewer bytes. A
// run that allocates that much less than its record is a cut that was not
// re-recorded: failing it keeps the record current, so the slack for a
// regression counts from what the code allocates now.
const allocSlackPct = 10

// workCounts is what one run reports: its solver's and its engine's
// work counters, summed over its simulations where it runs several.
type workCounts struct {
	solver flow.Stats
	engine sim.Stats
	// parts counts, for a run of several experiments, each one's
	// simulations, in run order.
	parts []simCount
	// baselines is, for a corpus file that runs solo baselines, their
	// summed work, which solver and engine leave out.
	baselines workload.Work
}

// countsOf is the workCounts of a runner's result.
func countsOf(w workload.Work) workCounts { return workCounts{solver: w.Flow, engine: w.Sim} }

// simCount is one part of a run, the simulations it ran and the digest
// of what it rendered.
type simCount struct {
	name        string
	simulations int
	digest      string
}

// rows renders c as golden rows, "<run> <counter> <value>", one per
// field of flow.Stats and sim.Stats, so a counter added to either struct
// joins the golden, then for a run with parts the simulations in all and
// per part a "<run>/<part> simulations <n>" and a "<run>/<part> digest
// <sha256>" row, and for a run with solo baselines their counters and
// simulations as "<run>/baselines" rows.
func (c workCounts) rows(run string) []string {
	var out []string
	for _, f := range []struct {
		prefix string
		v      reflect.Value
	}{{"flow", reflect.ValueOf(c.solver)}, {"sim", reflect.ValueOf(c.engine)}} {
		for i := 0; i < f.v.NumField(); i++ {
			out = append(out, fmt.Sprintf("%s %s.%s %d", run, f.prefix, f.v.Type().Field(i).Name, f.v.Field(i).Int()))
		}
	}
	if len(c.parts) > 0 {
		total := 0
		for _, p := range c.parts {
			total += p.simulations
		}
		out = append(out, fmt.Sprintf("%s simulations %d", run, total))
		for _, p := range c.parts {
			out = append(out,
				fmt.Sprintf("%s/%s simulations %d", run, p.name, p.simulations),
				fmt.Sprintf("%s/%s digest %s", run, p.name, p.digest))
		}
	}
	if b := c.baselines; b.Simulations > 0 {
		out = append(out, countsOf(b).rows(run+"/baselines")...)
		out = append(out, fmt.Sprintf("%s/baselines simulations %d", run, b.Simulations))
	}
	return out
}

// workRun is one row of the work-counter table: a deterministic run whose
// counters TestWorkCounters pins and whose wall time a benchmark reports.
// Building the table does each run's set-up (parsing, compiling, building
// scenarios), so run is the run alone: what the test and benchmarks
// measure.
type workRun struct {
	name string
	run  func(tb testing.TB) workCounts
	// reference is the same run under the reference solver, for the
	// benchmarks to compare; nil where a run has no such variant.
	reference func(tb testing.TB) workCounts
}

// solverRow runs scenarios built in Go: one scenario alone, several as
// shards, each a simulation of its own, their counters summed.
func solverRow(name string, plat *Platform, scens ...Scenario) workRun {
	mode := func(reference bool) func(testing.TB) workCounts {
		return func(tb testing.TB) workCounts {
			useSolver := func(sys *lustre.System) { sys.Net().UseReferenceSolver(reference) }
			if len(scens) == 1 {
				res, err := workload.RunScenario(plat, scens[0], 0, useSolver)
				if err != nil {
					tb.Fatal(err)
				}
				return countsOf(res.Work)
			}
			res, err := workload.RunSharded(plat, scens, 0, func(_ int, sys *lustre.System) { useSolver(sys) })
			if err != nil {
				tb.Fatal(err)
			}
			return countsOf(res.Work)
		}
	}
	return workRun{name: name, run: mode(false), reference: mode(true)}
}

// checkpointFleetShards replicates digestFleet's shard this many times
// for the checkpoint-fleet run: the shard-fleet benchmark workload's
// shape, small.
const checkpointFleetShards = 48

// workRuns builds the table:
//   - the solver stress runs (SolverStressScenario at 1,024 and 4,096
//     flows, SolverShardedScenario at 16 shards, a 2,048-rank PLFS job);
//   - engine-fleet: 100k short-lived inline-task writers (runFleet);
//   - checkpoint-fleet: digestFleet's jittered checkpointers on 48 shards,
//     whose ranks meet in MPI collectives around every write;
//   - one row per scenarios/*.yaml file through scenariofile.Run at
//     Parallelism 1, solo baselines and assertions included, so a moved
//     counter names its file; the solo baselines' work has rows of its
//     own;
//   - paper-artefacts: every registered experiment in quick mode, its
//     simulations' counters summed and counted per experiment, and what
//     it rendered digested per experiment.
func workRuns(tb testing.TB) []workRun {
	tb.Helper()
	plat1k, sc1k := SolverStressScenario(512)
	plat4k, sc4k := SolverStressScenario(2048)
	platSharded, shards := SolverShardedScenario(128, 16)
	runs := []workRun{
		solverRow("solver-1024-flows", plat1k, sc1k),
		solverRow("solver-4096-flows", plat4k, sc4k),
		solverRow("solver-sharded-4096x16", platSharded, shards...),
		solverRow("solver-plfs-2048", Cab(),
			NewScenario("bench-plfs2048", ScenarioJob{Workload: PLFSWorkload(2048, 0)})),
		{name: "engine-fleet", run: func(tb testing.TB) workCounts {
			_, c := runFleet(tb, 100_000)
			return c
		}},
		checkpointFleetRow(tb),
		{name: "paper-artefacts", run: paperArtefacts},
	}
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		tb.Fatal(err)
	}
	if len(paths) == 0 {
		tb.Fatal("no scenario files under scenarios/")
	}
	for _, p := range paths {
		doc, err := os.ReadFile(p)
		if err != nil {
			tb.Fatal(err)
		}
		f, err := scenariofile.Parse(doc, p)
		if err != nil {
			tb.Fatal(err)
		}
		runs = append(runs, workRun{
			name: "corpus/" + strings.TrimSuffix(filepath.Base(p), ".yaml"),
			run: func(tb testing.TB) workCounts {
				res, err := scenariofile.Run(f, scenariofile.RunOptions{Parallelism: 1})
				if err != nil {
					tb.Fatal(err)
				}
				if !res.Passed() {
					tb.Fatalf("%s: assertions failed: %v", p, res.Failures)
				}
				c := countsOf(res.Work())
				if res.Mono != nil {
					c.baselines = res.Mono.Baselines
				} else {
					for _, sh := range res.Sharded.Shards {
						c.baselines.Add(sh.Baselines)
					}
				}
				return c
			},
		})
	}
	return runs
}

// paperArtefacts regenerates every paper artefact and extra in quick
// mode on a two-worker pool, the width the benchmark's paper pass uses.
func paperArtefacts(tb testing.TB) workCounts {
	var c workCounts
	for _, id := range append(experiments.IDs(), experiments.ExtraIDs()...) {
		run, _ := experiments.Lookup(id)
		o, err := run(experiments.Options{Quick: true, Parallelism: 2})
		if err != nil {
			tb.Fatalf("%s: %v", id, err)
		}
		c.solver.Add(o.Work.Flow)
		c.engine.Add(o.Work.Sim)
		c.parts = append(c.parts, simCount{id, o.Work.Simulations, outcomeDigest(o)})
	}
	return c
}

// outcomeDigest hashes what an experiment renders: its ID, tables,
// comparison table and notes, each string preceded by its length in
// eight little-endian bytes, as the benchmark's paper digests are.
func outcomeDigest(o *experiments.Outcome) string {
	h := sha256.New()
	put := func(s string) {
		var n [8]byte
		binary.LittleEndian.PutUint64(n[:], uint64(len(s)))
		h.Write(n[:])
		io.WriteString(h, s)
	}
	put(o.ID)
	for _, t := range o.Tables {
		put(t.String())
	}
	put(o.ComparisonTable().String())
	for _, n := range o.Notes {
		put(n)
	}
	return hex.EncodeToString(h.Sum(nil))
}

// checkpointFleetRow compiles digestFleet replicated over
// checkpointFleetShards file systems, each a simulation of its own.
func checkpointFleetRow(tb testing.TB) workRun {
	tb.Helper()
	doc := strings.Replace(digestFleet, "replicate: 3\n",
		"replicate: "+strconv.Itoa(checkpointFleetShards)+"\n", 1)
	f, err := scenariofile.Parse([]byte(doc), "checkpoint-fleet.yaml")
	if err != nil {
		tb.Fatal(err)
	}
	plat, err := f.BuildPlatform()
	if err != nil {
		tb.Fatal(err)
	}
	scens, err := f.BuildScenarios()
	if err != nil {
		tb.Fatal(err)
	}
	return workRun{name: "checkpoint-fleet", run: func(tb testing.TB) workCounts {
		res, err := workload.RunShardedWith(plat, scens, workload.RunOptions{Parallelism: 1},
			func(shard int, sys *lustre.System) { f.InstrumentShard(shard)(sys) })
		if err != nil {
			tb.Fatal(err)
		}
		if len(res.Shards) != checkpointFleetShards {
			tb.Fatalf("ran %d shards, want %d", len(res.Shards), checkpointFleetShards)
		}
		return countsOf(res.Work)
	}}
}

// workRunNamed returns the table's row called name.
func workRunNamed(tb testing.TB, name string) workRun {
	tb.Helper()
	for _, r := range workRuns(tb) {
		if r.name == name {
			return r
		}
	}
	tb.Fatalf("no work run named %q", name)
	return workRun{}
}

// TestWorkCounters runs every row of the work-counter table once and
// holds its counters to testdata/counters.golden: every flow.Stats and
// sim.Stats field and every digest exactly, since the runs are
// deterministic, and the objects and bytes the run allocates to the
// recorded value within allocSlackPct either way. Allocations are measured as a one-iteration benchmark
// measures them: a GC, then runtime.MemStats deltas around the run. The
// counts are process-wide, which is safe because no test in this package
// runs in parallel. Regenerate the golden after an intended change with
// go test -run TestWorkCounters -update .
func TestWorkCounters(t *testing.T) {
	if raceEnabled {
		t.Skip("the race detector's instrumentation allocates")
	}
	var got []string
	for _, r := range workRuns(t) {
		var before, after runtime.MemStats
		runtime.GC()
		runtime.ReadMemStats(&before)
		c := r.run(t)
		runtime.ReadMemStats(&after)
		got = append(got, c.rows(r.name)...)
		got = append(got,
			fmt.Sprintf("%s allocs %d", r.name, after.Mallocs-before.Mallocs),
			fmt.Sprintf("%s alloc_bytes %d", r.name, after.TotalAlloc-before.TotalAlloc))
	}
	if *updateCounters {
		text := "# run counter value; go test -run TestWorkCounters -update . rewrites this file\n" +
			strings.Join(got, "\n") + "\n"
		if err := os.WriteFile(countersGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	data, err := os.ReadFile(countersGolden)
	if err != nil {
		t.Fatal(err)
	}
	want := map[string]string{}
	for _, line := range strings.Split(strings.TrimSuffix(string(data), "\n"), "\n") {
		if !strings.HasPrefix(line, "#") {
			key, v := splitRow(t, line)
			want[key] = v
		}
	}
	for _, line := range got {
		key, v := splitRow(t, line)
		w, ok := want[key]
		delete(want, key)
		switch {
		case !ok:
			t.Errorf("%s = %s has no row in %s", key, v, countersGolden)
		case strings.HasSuffix(key, " allocs") || strings.HasSuffix(key, " alloc_bytes"):
			switch n, recorded := count(t, v), count(t, w); {
			case n*100 > recorded*(100+allocSlackPct):
				t.Errorf("%s = %d, more than %d%% over the recorded %d", key, n, allocSlackPct, recorded)
			case n*100 < recorded*(100-allocSlackPct):
				t.Errorf("%s = %d, more than %d%% under the recorded %d: re-record the cut with -update", key, n, allocSlackPct, recorded)
			}
		case v != w:
			t.Errorf("%s = %s, golden %s", key, v, w)
		}
	}
	for key := range want {
		t.Errorf("%s is in %s but no run reports it", key, countersGolden)
	}
}

// splitRow splits a golden row into its "<run> <counter>" key and value.
func splitRow(t *testing.T, line string) (string, string) {
	t.Helper()
	i := strings.LastIndexByte(line, ' ')
	if i < 0 {
		t.Fatalf("malformed row %q in %s", line, countersGolden)
	}
	return line[:i], line[i+1:]
}

// count parses an allocation row's value.
func count(t *testing.T, v string) int64 {
	t.Helper()
	n, err := strconv.ParseInt(v, 10, 64)
	if err != nil {
		t.Fatalf("malformed allocation count %q in %s", v, countersGolden)
	}
	return n
}

// benchCounts times run and reports the last iteration's counters.
func benchCounts(b *testing.B, run func(testing.TB) workCounts) {
	b.Helper()
	b.ReportAllocs()
	b.ResetTimer()
	var c workCounts
	for i := 0; i < b.N; i++ {
		c = run(b)
	}
	reportSolverStats(b, c.solver)
	b.ReportMetric(float64(c.engine.Scheduled), "events/op")
	b.ReportMetric(float64(c.engine.LaneEvents), "laneevents/op")
	b.ReportMetric(float64(c.engine.HeapPushes), "heappushes/op")
}
