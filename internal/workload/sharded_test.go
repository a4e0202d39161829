package workload

import (
	"context"
	"errors"
	"fmt"
	"math"
	"reflect"
	"runtime"
	"strings"
	"testing"
	"time"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
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
	var sum Work
	for _, sh := range res.Shards {
		if sh.Work.Simulations != 1 || sh.Work.Flow.ComponentsSolved == 0 {
			t.Errorf("shard work %+v, want one simulation's counters", sh.Work)
		}
		sum.Add(sh.Work)
	}
	if res.Work != sum {
		t.Errorf("sharded work %+v, want the shards' sum %+v", res.Work, sum)
	}
	agg := res.Aggregate()
	if agg.TotalMBs <= 0 || agg.MinMBs > agg.MaxMBs {
		t.Errorf("aggregate malformed: %+v", agg)
	}
}

// TestRunShardedSolverModesBitIdentical runs the same sharded scenario set
// with every shard's net under the partitioned and then the reference
// solver, at 8 and 64 tasks per shard: every job's bandwidth and finish
// time must match bit for bit.
func TestRunShardedSolverModesBitIdentical(t *testing.T) {
	plat := cluster.Cab()
	for _, tasks := range []int{8, 64} {
		shards := shardScenarios(4, tasks)
		results := map[bool]*ShardedResult{}
		for _, reference := range []bool{false, true} {
			var err error
			results[reference], err = RunSharded(plat, shards, 0, func(_ int, sys *lustre.System) {
				sys.Net().UseReferenceSolver(reference)
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

// TestRunShardedContextCancelledMidRun: a context cancelled mid-run must
// stop the running shards at their next event-count poll and surface
// ctx.Err(), not run the deployment to completion, whether the shards
// run one after another or side by side. The cancel fires from an event
// of shard 0, so where it lands in that shard is deterministic.
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
	for _, width := range []int{1, 2} {
		ctx, cancel := context.WithCancel(context.Background())
		defer cancel()
		goroutines := runtime.NumGoroutine()
		var stoppedAt float64
		res, err := RunShardedWith(plat, shards, RunOptions{Ctx: ctx, Parallelism: width},
			func(i int, sys *lustre.System) {
				if i == 0 {
					sys.Engine().Schedule(1, func() {
						cancel()
						stoppedAt = sys.Engine().Now()
					})
				}
			})
		if err != context.Canceled {
			t.Fatalf("width %d: err = %v, want context.Canceled", width, err)
		}
		if res != nil {
			t.Errorf("width %d: cancelled run returned a partial result", width)
		}
		if stoppedAt == 0 {
			t.Errorf("width %d: cancel event never fired: engine did not reach t=1", width)
		}
		// The cancelled run's rank tasks were parked mid-simulation, but
		// they own no goroutine: no goroutine (pinning an engine and its
		// network) may outlive the call. Poll briefly: the runtime reaps
		// exited goroutines asynchronously.
		deadline := time.Now().Add(10 * time.Second)
		for runtime.NumGoroutine() > goroutines {
			if time.Now().After(deadline) {
				t.Fatalf("width %d: cancelled run leaked goroutines: %d before, %d after",
					width, goroutines, runtime.NumGoroutine())
			}
			runtime.Gosched()
			time.Sleep(time.Millisecond)
		}
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

// jitteredShards is a small set of dissimilar shards on Cab, whose OSTs
// draw service jitter: each shard runs an IOR job of its own size and a
// checkpointer staggered by shard, so the shards draw their own layouts
// and finish at their own times.
func jitteredShards(n int) []Scenario {
	out := make([]Scenario, n)
	for i := range out {
		cfg := ior.PaperConfig(8 * (i + 1))
		cfg.Label = "ior"
		cfg.SegmentCount = 2
		cfg.Reps = 2
		ckpt := Checkpointer{App: Checkpoint{Ranks: 8, StateMBPerRank: 4, ComputeSeconds: 2}, Checkpoints: 3}
		out[i] = NewScenario(fmt.Sprintf("w%d", i),
			Job{Workload: IORJob{Cfg: cfg}},
			Job{Workload: ckpt, StartAt: 0.25 * float64(i+1)})
	}
	return out
}

// TestRunShardedWidthsBitIdentical: a shard is a simulation of its own
// and its stream is forked before any shard runs, so running the shards
// one at a time or side by side must give every job the same start,
// finish, per-repetition bandwidths and layouts, bit for bit, and the
// same summed work.
func TestRunShardedWidthsBitIdentical(t *testing.T) {
	plat := cluster.Cab()
	shards := jitteredShards(4)
	var want *ShardedResult
	for _, width := range []int{1, 2, 4} {
		got, err := RunShardedWith(plat, shards, RunOptions{Seed: 3, Parallelism: width})
		if err != nil {
			t.Fatalf("width %d: %v", width, err)
		}
		if want == nil {
			want = got
			continue
		}
		if got.Work != want.Work {
			t.Errorf("width %d: work %+v, want %+v", width, got.Work, want.Work)
		}
		if math.Float64bits(got.Makespan) != math.Float64bits(want.Makespan) {
			t.Errorf("width %d: makespan %v, want %v", width, got.Makespan, want.Makespan)
		}
		for i := range want.Shards {
			for j := range want.Shards[i].Jobs {
				a, b := &want.Shards[i].Jobs[j], &got.Shards[i].Jobs[j]
				if math.Float64bits(a.StartAt) != math.Float64bits(b.StartAt) ||
					math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) {
					t.Errorf("width %d: shard %d job %q ran %v..%v, want %v..%v",
						width, i, a.Label, b.StartAt, b.FinishedAt, a.StartAt, a.FinishedAt)
				}
				wa, wb := a.IOR.Write.Values(), b.IOR.Write.Values()
				if len(wa) != len(wb) {
					t.Fatalf("width %d: shard %d job %q has %d write samples, want %d", width, i, a.Label, len(wb), len(wa))
				}
				for k := range wa {
					if math.Float64bits(wa[k]) != math.Float64bits(wb[k]) {
						t.Errorf("width %d: shard %d job %q rep %d wrote %v MB/s, want %v", width, i, a.Label, k, wb[k], wa[k])
					}
				}
				if !reflect.DeepEqual(a.IOR.LayoutOSTs, b.IOR.LayoutOSTs) {
					t.Errorf("width %d: shard %d job %q layouts %v, want %v", width, i, a.Label, b.IOR.LayoutOSTs, a.IOR.LayoutOSTs)
				}
			}
		}
	}
}

// TestRunShardedReportsLowestFailingShard: shards 1 and 3 lose their
// backbone at t = 0.5 and deadlock. At every width the run fails naming
// shard 1, the lowest failing index, and names it once.
func TestRunShardedReportsLowestFailingShard(t *testing.T) {
	plat := cluster.Cab()
	shards := jitteredShards(4)
	cut := func(i int, sys *lustre.System) {
		if i == 1 || i == 3 {
			sys.Engine().ScheduleAt(0.5, func() { sys.Backbone().SetModel(flow.Const(0)) })
		}
	}
	for _, width := range []int{1, 2, 4} {
		res, err := RunShardedWith(plat, shards, RunOptions{Parallelism: width}, cut)
		if err == nil || res != nil {
			t.Fatalf("width %d: err = %v, result %v; want the shard 1 failure", width, err, res)
		}
		if msg := err.Error(); !strings.HasPrefix(msg, "workload: shard 1: ") || strings.Count(msg, "shard") != 1 ||
			!strings.Contains(msg, "deadlock") {
			t.Errorf("width %d: err = %q, want shard 1's deadlock, naming the shard once", width, msg)
		}
	}
}

// ctx2 returns a cancellable (hence watched) context that stays live for
// the duration of the test.
func ctx2(t *testing.T) context.Context {
	ctx, cancel := context.WithCancel(context.Background())
	t.Cleanup(cancel)
	return ctx
}
