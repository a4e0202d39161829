package scenariofile

import (
	"fmt"
	"strings"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/workload"
)

// RunOptions configures one scenario-file execution: a seed overriding
// the file's (0 keeps it), the width of the pool the solo baselines fan
// across, and a context that cancels the run mid-simulation.
type RunOptions = workload.RunOptions

// Result is the outcome of running one scenario file: the simulation
// results plus the assertion verdict.
type Result struct {
	// File is the executed scenario.
	File *File
	// Platform is the resolved cluster description.
	Platform *cluster.Platform
	// Mono holds the monolithic run's result (nil for sharded files).
	Mono *workload.Result
	// Sharded holds the sharded run's result (nil for monolithic files).
	Sharded *workload.ShardedResult
	// Failures lists every assertion that did not hold, in assertion
	// block order. Empty means the file passed.
	Failures []string
}

// Passed reports whether every assertion held.
func (r *Result) Passed() bool { return len(r.Failures) == 0 }

// Makespan returns the run's makespan.
func (r *Result) Makespan() float64 {
	if r.Mono != nil {
		return r.Mono.Makespan
	}
	return r.Sharded.Makespan
}

// Work returns the run's simulation and its solver and engine work
// counters.
func (r *Result) Work() workload.Work {
	if r.Mono != nil {
		return r.Mono.Work
	}
	return r.Sharded.Work
}

// Aggregate returns the run's cross-job bandwidth summary.
func (r *Result) Aggregate() workload.Aggregate {
	if r.Mono != nil {
		return r.Mono.Aggregate()
	}
	return r.Sharded.Aggregate()
}

// EachJob visits every job result in deterministic order (shard by
// shard, jobs in scenario order) with its shard index (-1 monolithic).
func (r *Result) EachJob(fn func(shard int, jr *workload.JobResult)) {
	if r.Mono != nil {
		for i := range r.Mono.Jobs {
			fn(-1, &r.Mono.Jobs[i])
		}
		return
	}
	for s, sh := range r.Sharded.Shards {
		for i := range sh.Jobs {
			fn(s, &sh.Jobs[i])
		}
	}
}

// Run executes the scenario file: validate, keeping the platform and
// the expanded fleet that validation built, run the simulation with the
// timeline compiled onto engine hooks, compute solo baselines when an
// assertion needs slowdowns, and evaluate the assertion block. The
// returned Result carries the assertion verdict; err is reserved for
// files that fail to validate or simulate at all.
func Run(f *File, opts RunOptions) (*Result, error) {
	plat, scens, err := f.Compile()
	if err != nil {
		return nil, err
	}
	out := &Result{File: f, Platform: plat}
	if !f.Sharded() {
		res, err := workload.RunScenarioWith(plat, scens[0], opts, f.InstrumentShard(-1))
		if err != nil {
			return nil, err
		}
		out.Mono = res
	} else {
		res, err := workload.RunShardedWith(plat, scens, opts, func(i int, sys *lustre.System) {
			f.InstrumentShard(i)(sys)
		})
		if err != nil {
			return nil, err
		}
		out.Sharded = res
	}
	if f.needsBaselines() {
		// A baseline measures each job alone on a healthy system: no
		// timeline, no instrumentation.
		var results []*workload.Result
		if out.Mono != nil {
			results = []*workload.Result{out.Mono}
		} else {
			results = out.Sharded.Shards
		}
		if err := workload.RunBaselines(plat, results, nil, opts, nil); err != nil {
			return nil, err
		}
	}
	out.Failures = f.evaluate(out)
	return out, nil
}

// counterValue maps an assertable counter name to its Stats field.
func counterValue(s flow.Stats, name string) int64 {
	switch name {
	case "solves":
		return s.Solves
	case "components_solved":
		return s.ComponentsSolved
	case "component_flows_scanned":
		return s.ComponentFlowsScanned
	case "link_visits":
		return s.LinkVisits
	case "coalesced":
		return s.Coalesced
	case "rounds":
		return s.Rounds
	case "flows_scanned":
		return s.FlowsScanned
	case "flows_settled":
		return s.FlowsSettled
	case "heap_ops":
		return s.HeapOps
	}
	panic(fmt.Sprintf("scenariofile: unknown solver counter %q", name))
}

// evaluate checks the assertion block against the run, returning one
// message per failed assertion.
func (f *File) evaluate(r *Result) []string {
	var fails []string
	add := func(msg string) {
		if msg != "" {
			fails = append(fails, msg)
		}
	}
	agg := r.Aggregate()
	a := &f.Assert
	add(prefixFail("assert.makespan", a.Makespan.check("makespan", r.Makespan())))
	add(prefixFail("assert.total_mbs", a.TotalMBs.check("total bandwidth", agg.TotalMBs)))
	add(prefixFail("assert.mean_mbs", a.MeanMBs.check("mean job bandwidth", agg.MeanMBs)))
	add(prefixFail("assert.min_job_mbs", a.MinJobMBs.check("slowest job bandwidth", agg.MinMBs)))
	add(prefixFail("assert.max_job_mbs", a.MaxJobMBs.check("fastest job bandwidth", agg.MaxMBs)))
	if a.MeanSlowdown.set() {
		add(prefixFail("assert.mean_slowdown", a.MeanSlowdown.check("mean slowdown", agg.MeanSlowdown)))
	}
	if a.MaxSlowdown.set() {
		add(prefixFail("assert.max_slowdown", a.MaxSlowdown.check("max slowdown", agg.MaxSlowdown)))
	}
	solver := r.Work().Flow
	for _, ca := range a.Solver {
		add(prefixFail("assert.solver."+ca.Name,
			ca.Bound.check(ca.Name, float64(counterValue(solver, ca.Name)))))
	}
	for i := range a.Jobs {
		ja := &a.Jobs[i]
		where := fmt.Sprintf("assert.jobs[%d] (%s)", i, ja.Job)
		matched := 0
		r.EachJob(func(shard int, jr *workload.JobResult) {
			if ja.Shard >= 0 && shard != ja.Shard {
				return
			}
			if !labelMatches(ja.Job, jr.Label) {
				return
			}
			matched++
			add(prefixFail(where, ja.MBs.check(fmt.Sprintf("job %q bandwidth", jr.Label), jr.WriteMBs())))
			if ja.Slowdown.set() {
				if jr.Slowdown == 0 {
					add(fmt.Sprintf("%s: job %q has no slowdown baseline", where, jr.Label))
				} else {
					add(prefixFail(where, ja.Slowdown.check(fmt.Sprintf("job %q slowdown", jr.Label), jr.Slowdown)))
				}
			}
			if ja.Finished.set() {
				add(prefixFail(where, ja.Finished.check(fmt.Sprintf("job %q finish time", jr.Label), jr.FinishedAt)))
			}
		})
		if matched == 0 {
			add(fmt.Sprintf("%s: no job matches", where))
		}
	}
	for i := range a.Shards {
		sa := &a.Shards[i]
		where := fmt.Sprintf("assert.shards[%d]", i)
		sh := r.Sharded.Shards[sa.Shard]
		sagg := sh.Aggregate()
		add(prefixFail(where, sa.TotalMBs.check(fmt.Sprintf("shard %d total bandwidth", sa.Shard), sagg.TotalMBs)))
		add(prefixFail(where, sa.MeanMBs.check(fmt.Sprintf("shard %d mean job bandwidth", sa.Shard), sagg.MeanMBs)))
		add(prefixFail(where, sa.Makespan.check(fmt.Sprintf("shard %d makespan", sa.Shard), sh.Makespan)))
	}
	return fails
}

// prefixFail prepends the assertion's location to a non-empty failure.
func prefixFail(where, msg string) string {
	if msg == "" {
		return ""
	}
	return where + ": " + msg
}

// labelMatches matches a job label against an assertion pattern: exact,
// or prefix when the pattern ends in '*'.
func labelMatches(pattern, label string) bool {
	if strings.HasSuffix(pattern, "*") {
		return strings.HasPrefix(label, pattern[:len(pattern)-1])
	}
	return pattern == label
}
