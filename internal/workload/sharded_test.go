package workload

import (
	"context"
	"errors"
	"math"
	"runtime"
	"strings"
	"testing"
	"time"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
)

func shardScenarios(n, tasks int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		cfg := ior.PaperConfig(tasks)
		cfg.Label = "shard-job"
		cfg.SegmentCount = 2
		cfg.Reps = 1
		out[i] = NewScenario("shard", Job{Workload: IORJob{Cfg: cfg}})
	}
	return out
}

func TestRunShardedBasics(t *testing.T) {
	plat := cluster.Cab()
	res, err := RunSharded(plat, shardScenarios(3, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Shards) != 3 {
		t.Fatalf("got %d shard results", len(res.Shards))
	}
	for i, sh := range res.Shards {
		if len(sh.Jobs) != 1 || sh.Jobs[0].WriteMBs() <= 0 {
			t.Fatalf("shard %d result malformed", i)
		}
		if sh.Makespan <= 0 || sh.Makespan > res.Makespan {
			t.Fatalf("shard %d makespan %v outside total %v", i, sh.Makespan, res.Makespan)
		}
	}
	if res.Work.Flow.ComponentsSolved == 0 {
		t.Error("shared solver counters not collected")
	}
	agg := res.Aggregate()
	if agg.TotalMBs <= 0 || agg.MinMBs > agg.MaxMBs {
		t.Errorf("aggregate malformed: %+v", agg)
	}
}

// TestRunShardedSolverModesBitIdentical runs the same sharded scenario set
// under the partitioned and the reference solver, at 8 and 64 tasks per
// shard: every job's bandwidth and finish time must match bit for bit.
func TestRunShardedSolverModesBitIdentical(t *testing.T) {
	plat := cluster.Cab()
	for _, tasks := range []int{8, 64} {
		shards := shardScenarios(4, tasks)
		results := map[bool]*ShardedResult{}
		for _, reference := range []bool{false, true} {
			var err error
			results[reference], err = RunSharded(plat, shards, 0, func(i int, sys *lustre.System) {
				if i == 0 {
					sys.Net().UseReferenceSolver(reference)
				}
			})
			if err != nil {
				t.Fatal(err)
			}
		}
		inc, ref := results[false], results[true]
		if math.Float64bits(inc.Makespan) != math.Float64bits(ref.Makespan) {
			t.Fatalf("tasks=%d: makespan diverged: %v vs %v", tasks, inc.Makespan, ref.Makespan)
		}
		for i := range inc.Shards {
			for j := range inc.Shards[i].Jobs {
				a, b := inc.Shards[i].Jobs[j], ref.Shards[i].Jobs[j]
				if math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) {
					t.Errorf("tasks=%d: shard %d job %d finish diverged: %v vs %v", tasks, i, j, a.FinishedAt, b.FinishedAt)
				}
				if math.Float64bits(a.WriteMBs()) != math.Float64bits(b.WriteMBs()) {
					t.Errorf("tasks=%d: shard %d job %d bandwidth diverged: %v vs %v", tasks, i, j, a.WriteMBs(), b.WriteMBs())
				}
			}
		}
		// The partitioned solver must have scanned per-shard populations:
		// the average component solve touches far fewer flows than the
		// reference's whole-population passes.
		incPer := float64(inc.Work.Flow.ComponentFlowsScanned) / float64(inc.Work.Flow.ComponentsSolved)
		refPer := float64(ref.Work.Flow.ComponentFlowsScanned) / float64(ref.Work.Flow.ComponentsSolved)
		if incPer*2 > refPer {
			t.Errorf("tasks=%d: per-solve scan %.1f not well below reference %.1f", tasks, incPer, refPer)
		}
	}
}

// TestRunShardedShardsAreIsolated: a shard's result must be independent of
// its neighbours — the same scenario alone or next to a heavy neighbour
// yields identical virtual-time behaviour, since shards share no links.
func TestRunShardedShardsAreIsolated(t *testing.T) {
	plat := cluster.Cab()
	alone, err := RunSharded(plat, shardScenarios(1, 16), 0)
	if err != nil {
		t.Fatal(err)
	}
	heavy := ior.PaperConfig(64)
	heavy.Label = "heavy"
	heavy.SegmentCount = 4
	heavy.Reps = 1
	both, err := RunSharded(plat, []Scenario{
		shardScenarios(1, 16)[0],
		NewScenario("noise", Job{Workload: IORJob{Cfg: heavy}}),
	}, 0)
	if err != nil {
		t.Fatal(err)
	}
	a, b := alone.Shards[0].Jobs[0], both.Shards[0].Jobs[0]
	if math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) {
		t.Errorf("neighbour changed shard 0 finish: %v vs %v", a.FinishedAt, b.FinishedAt)
	}
	if math.Float64bits(a.WriteMBs()) != math.Float64bits(b.WriteMBs()) {
		t.Errorf("neighbour changed shard 0 bandwidth: %v vs %v", a.WriteMBs(), b.WriteMBs())
	}
}

func TestRunShardedErrors(t *testing.T) {
	plat := cluster.Cab()
	if _, err := RunSharded(plat, nil, 0); err == nil {
		t.Error("empty shard list accepted")
	}
	bad := Scenario{Name: "bad", Jobs: []Job{{}}}
	if _, err := RunSharded(plat, []Scenario{bad}, 0); err == nil || !strings.Contains(err.Error(), "shard 0") {
		t.Errorf("bad shard error = %v, want shard-indexed error", err)
	}
}

func TestRunShardedDeterministicForSeed(t *testing.T) {
	plat := cluster.Cab()
	shards := shardScenarios(2, 8)
	r1, err := RunSharded(plat, shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	r2, err := RunSharded(plat, shards, 7)
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(r1.Makespan) != math.Float64bits(r2.Makespan) {
		t.Fatalf("same seed diverged: %v vs %v", r1.Makespan, r2.Makespan)
	}
	r3, err := RunSharded(plat, shards, 8)
	if err != nil {
		t.Fatal(err)
	}
	if r1.Makespan == r3.Makespan {
		t.Error("different seed produced identical makespan (suspicious)")
	}
}

// TestShardedAggregateSkipsEmptyShards: a shard without jobs must not
// contribute a zero-valued aggregate — an earlier revision let any empty
// shard past the first drag the cross-shard MinMBs to 0 — and slowdown
// statistics must aggregate across shards rather than being dropped.
func TestShardedAggregateSkipsEmptyShards(t *testing.T) {
	plat := cluster.Cab()
	res, err := RunSharded(plat, shardScenarios(2, 8), 0)
	if err != nil {
		t.Fatal(err)
	}
	want := res.Aggregate()
	if want.MinMBs <= 0 {
		t.Fatalf("baseline aggregate MinMBs = %v, want > 0", want.MinMBs)
	}
	// Splice an empty middle shard in; every bandwidth statistic must be
	// unaffected.
	res.Shards = []*Result{res.Shards[0], {}, res.Shards[1]}
	got := res.Aggregate()
	if got != want {
		t.Errorf("empty middle shard changed the aggregate:\ngot  %+v\nwant %+v", got, want)
	}
	// Slowdowns filled in on a subset of jobs aggregate like
	// Result.Aggregate: mean over the jobs that have one, max over all.
	res.Shards[0].Jobs[0].Slowdown = 2
	res.Shards[2].Jobs[0].Slowdown = 4
	got = res.Aggregate()
	if got.MeanSlowdown != 3 || got.MaxSlowdown != 4 {
		t.Errorf("slowdown aggregate = mean %v max %v, want mean 3 max 4",
			got.MeanSlowdown, got.MaxSlowdown)
	}
	if (&ShardedResult{Shards: []*Result{{}, {}}}).Aggregate() != (Aggregate{}) {
		t.Error("all-empty sharded result should aggregate to the zero value")
	}
}

// TestRunShardedContextCancelledMidRun: RunShardedWith is one long engine
// execution, so a context cancelled mid-run must stop the engine at the
// next event-count poll and surface ctx.Err(), not run the deployment to
// completion. The cancel fires from an engine event, so the test is
// fully deterministic.
func TestRunShardedContextCancelledMidRun(t *testing.T) {
	plat := cluster.Cab()
	shards := shardScenarios(2, 16)
	full, err := RunSharded(plat, shards, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Makespan <= 2 {
		t.Fatalf("scenario too short (%v s) to cancel mid-run", full.Makespan)
	}
	// A context already cancelled at launch stops the engine before it
	// runs at all — no waiting for the first periodic check.
	pre, cancelPre := context.WithCancel(context.Background())
	cancelPre()
	if _, err := RunShardedWith(plat, shards, RunOptions{Ctx: pre}); !errors.Is(err, context.Canceled) {
		t.Fatalf("pre-cancelled ctx: err = %v, want context.Canceled", err)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goroutines := runtime.NumGoroutine()
	var stoppedAt float64
	res, err := RunShardedWith(plat, shards, RunOptions{Ctx: ctx},
		func(i int, sys *lustre.System) {
			if i == 0 {
				sys.Engine().Schedule(1, func() {
					cancel()
					stoppedAt = sys.Engine().Now()
				})
			}
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a partial result")
	}
	if stoppedAt == 0 {
		t.Error("cancel event never fired: engine did not reach t=1")
	}
	// The cancelled run's rank tasks were parked mid-simulation, but they
	// own no goroutine: no goroutine (pinning the whole engine and network)
	// may outlive the call. Poll briefly: the runtime reaps exited
	// goroutines asynchronously.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled run leaked goroutines: %d before, %d after",
				goroutines, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
	// An uncancelled context must not perturb the run: the poll hook
	// injects no events and touches no simulation state.
	watched, err := RunShardedWith(plat, shards, RunOptions{Ctx: ctx2(t)})
	if err != nil {
		t.Fatal(err)
	}
	if math.Float64bits(watched.Makespan) != math.Float64bits(full.Makespan) {
		t.Errorf("watcher perturbed the run: makespan %v vs %v", watched.Makespan, full.Makespan)
	}
}

// ctx2 returns a cancellable (hence watched) context that stays live for
// the duration of the test.
func ctx2(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}
