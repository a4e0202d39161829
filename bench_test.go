// Benchmarks regenerating every table and figure of Wright & Jarvis,
// "Quantifying the Effects of Contention on Parallel File Systems"
// (IPDPSW 2015). Each benchmark runs the corresponding experiment in
// quick mode, reports its headline value as a custom metric, and (under
// -v) logs the regenerated rows next to the paper's numbers.
//
// Run all of them with:
//
//	go test -bench=. -benchmem
package pfsim

import (
	"fmt"
	"runtime"
	"testing"

	"pfsim/internal/experiments"
	"pfsim/internal/flow"
)

// benchExperiment runs one registered experiment per iteration, reporting
// the named comparison as paper-vs-measured metrics.
func benchExperiment(b *testing.B, id string, headline string) {
	b.Helper()
	run, ok := experiments.Lookup(id)
	if !ok {
		b.Fatalf("unknown experiment %q", id)
	}
	var out *experiments.Outcome
	for i := 0; i < b.N; i++ {
		var err error
		out, err = run(experiments.Options{Quick: true})
		if err != nil {
			b.Fatal(err)
		}
	}
	for _, c := range out.Comparisons {
		if c.Metric == headline {
			b.ReportMetric(c.Measured, "measured")
			b.ReportMetric(c.Paper, "paper")
		}
	}
	logOutcome(b, out)
}

func logOutcome(b *testing.B, out *experiments.Outcome) {
	b.Helper()
	for _, t := range out.Tables {
		b.Logf("\n%s", t.String())
	}
	b.Logf("\n%s", out.ComparisonTable().String())
	for _, n := range out.Notes {
		b.Logf("note: %s", n)
	}
}

// BenchmarkFigure1ParameterSweep regenerates Figure 1: the stripe count ×
// stripe size sweep over 1,024 processes, its 160×128MB optimum and the
// ~49× improvement over the default configuration.
func BenchmarkFigure1ParameterSweep(b *testing.B) {
	benchExperiment(b, "figure1", "speed-up over default")
}

// BenchmarkTable3LoadR160 regenerates Table III: Dinuse/Dreq/Dload on
// lscratchc for 1..10 jobs of 160 stripes.
func BenchmarkTable3LoadR160(b *testing.B) {
	benchExperiment(b, "table3", "Dload at n=10")
}

// BenchmarkTable4LoadR64 regenerates Table IV (R = 64).
func BenchmarkTable4LoadR64(b *testing.B) {
	benchExperiment(b, "table4", "Dload at n=10")
}

// BenchmarkFigure2OSTContention regenerates Figure 2: per-process
// bandwidth of 1..16 writers pinned to a single OST, against the scaled
// ideal band.
func BenchmarkFigure2OSTContention(b *testing.B) {
	benchExperiment(b, "figure2", "single-writer MB/s")
}

// BenchmarkFigure3FourContendedJobs regenerates Figure 3: four
// simultaneous tuned IOR tasks × five repetitions (~4,500 MB/s each,
// 3.44× below the solo peak).
func BenchmarkFigure3FourContendedJobs(b *testing.B) {
	benchExperiment(b, "figure3", "per-task MB/s")
}

// BenchmarkTable5StripeReduction regenerates Table V / Figure 4: the
// bandwidth/availability trade-off as per-job requests shrink 160 → 32.
func BenchmarkTable5StripeReduction(b *testing.B) {
	benchExperiment(b, "table5", "avg BW at R=160")
}

// BenchmarkTable6Stampede regenerates Table VI: predicted load on
// Stampede's 160-OST file system with 128-stripe jobs.
func BenchmarkTable6Stampede(b *testing.B) {
	benchExperiment(b, "table6", "Dload at n=10")
}

// BenchmarkFigure5LustreVsPLFS regenerates Figure 5: tuned ad_lustre vs
// ad_plfs from 16 to 4,096 processes, with PLFS peaking near 512 and
// collapsing by 4,096.
func BenchmarkFigure5LustreVsPLFS(b *testing.B) {
	benchExperiment(b, "figure5", "PLFS MB/s at 4096")
}

// BenchmarkTable7ScalingData regenerates Table VII (the numeric Figure 5
// data with 95% confidence intervals).
func BenchmarkTable7ScalingData(b *testing.B) {
	benchExperiment(b, "table7", "PLFS@512")
}

// BenchmarkTable8PLFSCollisions512 regenerates Table VIII: PLFS backend
// collision statistics at 512 processes (load ≈ 2.4).
func BenchmarkTable8PLFSCollisions512(b *testing.B) {
	benchExperiment(b, "table8", "mean Dload")
}

// BenchmarkTable9PLFSCollisions4096 regenerates Table IX: collision
// statistics at 4,096 processes (every OST in use, load 17.07).
func BenchmarkTable9PLFSCollisions4096(b *testing.B) {
	benchExperiment(b, "table9", "mean Dload")
}

// BenchmarkAblationAggregatorCap probes the calibrated aggregator
// dispatch rate, the constant behind the Figure 1 optimum.
func BenchmarkAblationAggregatorCap(b *testing.B) {
	benchExperiment(b, "ablation-aggcap", "tuned BW halves when dispatch halves (ratio)")
}

// BenchmarkAblationThrash disables log-append thrash to show it — not the
// open storm alone — drives the PLFS collapse.
func BenchmarkAblationThrash(b *testing.B) {
	benchExperiment(b, "ablation-thrash", "no-thrash/with-thrash BW ratio (>1.5 expected)")
}

// BenchmarkExtensionGATuner compares the Behzad-style genetic autotuner
// against the exhaustive sweep.
func BenchmarkExtensionGATuner(b *testing.B) {
	benchExperiment(b, "extension-ga", "GA best vs exhaustive best (ratio)")
}

// BenchmarkExtensionReadback checks the Polte et al. read-back claim: data
// written through PLFS reads back faster than the tuned shared file.
func BenchmarkExtensionReadback(b *testing.B) {
	benchExperiment(b, "extension-readback", "PLFS read gain over tuned Lustre read (>1 expected)")
}

// BenchmarkExtensionWideStriping lifts the Lustre 2.4.2 stripe limit (the
// conclusion's Exascale discussion): modest solo gains, amplified QoS
// damage under contention.
func BenchmarkExtensionWideStriping(b *testing.B) {
	benchExperiment(b, "extension-widestriping", "solo 480-stripe gain over 160 (ratio)")
}

// BenchmarkEquationKernels measures the raw analytic metric kernels —
// the costs a monitoring tool would pay calling them per job submission.
func BenchmarkEquationKernels(b *testing.B) {
	b.Run("Dinuse", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Dinuse(480, 160, 10)
		}
	})
	b.Run("LoadTable", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = LoadTable(Lscratchc(), 160, 10)
		}
	})
	b.Run("Availability", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			_ = Availability(Lscratchc(), 160, 4)
		}
	})
	b.Run("Assignment", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			a := AssignOSTs(uint64(i), 480, 160, 4)
			if a.InUse() == 0 {
				b.Fatal("empty assignment")
			}
		}
	})
}

// BenchmarkSweepExhaustive measures the Section IV parameter sweep on the
// Runner's worker pool: "serial" pins one worker, "parallel" uses every
// core. Each grid point is an isolated deterministic simulation, so the
// parallel grid is byte-identical to the serial one — the speedup on
// multi-core machines is free.
func BenchmarkSweepExhaustive(b *testing.B) {
	plat := Cab()
	base := TunedIOR(256)
	base.Label = "bench-sweep"
	base.SegmentCount = 10
	base.Reps = 1
	counts := []int{8, 32, 64, 128, 160}
	sizes := []float64{1, 32, 64, 128, 256}
	for _, bc := range []struct {
		name string
		par  int
	}{
		{"serial", 1},
		{fmt.Sprintf("parallel-%d", runtime.GOMAXPROCS(0)), runtime.GOMAXPROCS(0)},
	} {
		b.Run(bc.name, func(b *testing.B) {
			r := NewRunner(WithParallelism(bc.par))
			var grid *SweepGrid
			for i := 0; i < b.N; i++ {
				var err error
				grid, err = r.Sweep(plat, counts, sizes,
					SweepOptions{Tasks: 256, Reps: 1, Base: &base})
				if err != nil {
					b.Fatal(err)
				}
			}
			b.ReportMetric(float64(len(counts)*len(sizes))/b.Elapsed().Seconds()*float64(b.N), "points/s")
			b.ReportMetric(grid.Best().MBs, "bestMBs")
		})
	}
}

// BenchmarkScenarioHeterogeneous measures the mixed-workload engine: a
// 256-rank collective writer next to a 256-rank PLFS logger on one
// simulated system, slowdown baselines included.
func BenchmarkScenarioHeterogeneous(b *testing.B) {
	plat := Cab()
	writer := TunedIOR(256)
	writer.Label = "bench-hetero-writer"
	writer.SegmentCount = 10
	writer.Reps = 1
	sc := NewScenario("bench-hetero",
		ScenarioJob{Workload: IORWorkload(writer)},
		ScenarioJob{Workload: PLFSWorkload(256, 40)},
	)
	r := NewRunner()
	for i := 0; i < b.N; i++ {
		res, err := r.RunScenario(plat, sc)
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Jobs) != 2 || res.Jobs[0].Slowdown <= 0 {
			b.Fatal("scenario result malformed")
		}
	}
}

// reportSolverStats emits the machine-independent solver cost metrics:
// the number of link and flow records the solver examined per simulated
// run, completion-heap element operations (zero in reference mode, which
// rescans every active flow per solve instead), link-share heap element
// operations (zero unless a solve ran long enough to switch from scanning
// to the heap), per-component pass counts and accrual settles.
// compflowspersolve/op is the headline partitioning metric: the average
// population one progressive-filling pass touches — ~the component size
// under partitioning, the whole active population without it.
func reportSolverStats(b *testing.B, stats flow.Stats) {
	b.Helper()
	b.ReportMetric(float64(stats.Solves), "solves/op")
	b.ReportMetric(float64(stats.LinkVisits), "linkvisits/op")
	b.ReportMetric(float64(stats.Rounds), "rounds/op")
	b.ReportMetric(float64(stats.FlowsScanned), "flowsscanned/op")
	b.ReportMetric(float64(stats.HeapOps), "heapops/op")
	b.ReportMetric(float64(stats.ShareHeapOps), "shareheapops/op")
	b.ReportMetric(float64(stats.ComponentsSolved), "componentssolved/op")
	b.ReportMetric(float64(stats.ComponentFlowsScanned), "compflowsscanned/op")
	b.ReportMetric(float64(stats.FlowsSettled), "flowssettled/op")
	if stats.ComponentsSolved > 0 {
		b.ReportMetric(float64(stats.ComponentFlowsScanned)/float64(stats.ComponentsSolved), "compflowspersolve/op")
	}
}

// benchSolverModes times the table's named solver run (see workRuns) in
// both solver modes:
//
//   - incremental: component partitioning, per-flow accrual anchors,
//     same-instant recompute coalescing, live-link lists with a per-link
//     flow index and the completion heap (the default);
//   - reference: the naive behaviour — a full progressive-filling pass
//     over every link on every flow arrival and completion, and a linear
//     scan for the next completion.
//
// Results are byte-identical across modes (the property tests enforce
// it); only the solver work differs. TestWorkCounters pins the
// incremental counters; the reference ones are reported here and by
// pfsim-metrics -solver-writers.
func benchSolverModes(b *testing.B, name string) {
	r := workRunNamed(b, name)
	b.Run("incremental", func(b *testing.B) { benchCounts(b, r.run) })
	b.Run("reference", func(b *testing.B) { benchCounts(b, r.reference) })
}

// BenchmarkSolverSharded4096x16 is the BenchmarkSolver4096Flows
// population (4,096 concurrent flows) split across 16 disjoint file
// systems (SolverShardedScenario). Each shard is a simulation of its own
// with a 256-flow population, so the counters it reports are the sums
// over 16 small simulations.
func BenchmarkSolverSharded4096x16(b *testing.B) { benchSolverModes(b, "solver-sharded-4096x16") }

// BenchmarkSolver1024Flows is the solver-stress scenario: 512
// file-per-process writers, 1,024 concurrent flows. The scenario shares
// one backbone, so it is a single component, and the counters here guard
// against the partitioned machinery regressing the monolithic case.
func BenchmarkSolver1024Flows(b *testing.B) { benchSolverModes(b, "solver-1024-flows") }

// BenchmarkSolver4096Flows scales the solver stress 4×: 2,048
// file-per-process writers, 4,096 concurrent flows — the population where
// per-event rescans of every active flow dominated before the completion
// heap.
func BenchmarkSolver4096Flows(b *testing.B) { benchSolverModes(b, "solver-4096-flows") }

// BenchmarkSolverPLFS2048 is the many-rounds regime: a 2,048-rank PLFS
// logger on Cab (the paper-plfs-selfcontention shape). Every rank appends
// to its own log, so hundreds of OSTs carry different stream counts and
// max-min filling fixes about one share level per loaded OST: ~38
// rate-fixing rounds per solve on average over the run, where the stress
// benchmarks above average 3–6. This is the regime in which a round's
// cost — the live links it scans and the flows it fixes — dominates the
// solver.
func BenchmarkSolverPLFS2048(b *testing.B) { benchSolverModes(b, "solver-plfs-2048") }

// BenchmarkSimulatorThroughput measures the simulator itself: simulated
// MB of I/O processed per wall-clock second for a tuned 1,024-process
// write.
func BenchmarkSimulatorThroughput(b *testing.B) {
	cfg := TunedIOR(1024)
	cfg.Reps = 1
	cfg.Label = "bench-simthroughput"
	totalMB := cfg.TotalMB()
	for i := 0; i < b.N; i++ {
		res, err := RunIOR(Cab(), cfg)
		if err != nil {
			b.Fatal(err)
		}
		if res.Write.Mean() <= 0 {
			b.Fatal("no bandwidth")
		}
	}
	b.SetBytes(int64(totalMB * 1e6))
}

func ExampleDinuse() {
	// Three jobs of 160 stripes on lscratchc's 480 OSTs.
	fmt.Printf("%.2f\n", Dinuse(480, 160, 3))
	// Output: 337.78
}

func ExamplePLFSLoad() {
	// A 4,096-rank PLFS run loads every OST with ~17 stripe streams.
	fmt.Printf("%.2f\n", PLFSLoad(480, 4096))
	// Output: 17.07
}
