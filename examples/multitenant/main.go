// Multitenant: several independent Lustre file systems under one engine —
// the shared-nothing deployment shape behind "millions of users": many
// installations, one simulation. Four tenants run side by side, each on
// its own file-system shard (own MDS, OSTs, jitter draws) over one shared
// fluid solver: a tuned collective writer farm, a PLFS logger, a periodic
// checkpointer, and a file-per-process burst. Shard link sets are
// disjoint, so the component-partitioned solver keeps every shard its own
// connected component: an arrival or completion in one tenant's traffic
// re-solves and settles only that tenant's flows — per-event cost tracks
// the touched shard, not the whole deployment.
//
// The example runs the deployment twice — under the partitioned solver and
// under the monolithic reference solver — and cross-checks the physics bit
// for bit: makespan, every job's finish time and bandwidth. It then shows
// the cost counters that differ between the two (per-solve populations,
// link visits) and the isolation counters that do not (accrual settles).
package main

import (
	"fmt"
	"log"
	"math"
	"os"

	"pfsim"
	"pfsim/internal/lustre"
	"pfsim/internal/report"
	"pfsim/internal/workload"
)

func tenants() []pfsim.Scenario {
	writer := pfsim.TunedIOR(128)
	writer.Label = "writer-farm"
	writer.SegmentCount = 10
	writer.Reps = 1

	burst := pfsim.PaperIOR(64)
	burst.Label = "burst"
	burst.FilePerProc = true
	burst.Collective = false
	burst.SegmentCount = 4
	burst.Reps = 1

	return []pfsim.Scenario{
		pfsim.NewScenario("tenant-ior", pfsim.ScenarioJob{Workload: pfsim.IORWorkload(writer)}),
		pfsim.NewScenario("tenant-plfs", pfsim.ScenarioJob{Workload: pfsim.PLFSWorkload(128, 40)}),
		pfsim.NewScenario("tenant-ckpt", pfsim.ScenarioJob{Workload: pfsim.CheckpointWorkload(
			pfsim.Checkpoint{Ranks: 64, StateMBPerRank: 20, ComputeSeconds: 5}, pfsim.TunedHints(), 3)}),
		pfsim.NewScenario("tenant-burst", pfsim.ScenarioJob{Workload: pfsim.IORWorkload(burst)}),
	}
}

func main() {
	plat := pfsim.Cab()
	shards := tenants()
	run := func(reference bool) *pfsim.ShardedResult {
		res, err := workload.RunSharded(plat, shards, 0, func(i int, sys *lustre.System) {
			if i == 0 { // the net is shared: one toggle switches the whole run
				sys.Net().UseReferenceSolver(reference)
			}
		})
		if err != nil {
			log.Fatal(err)
		}
		return res
	}
	inc, ref := run(false), run(true)

	// Both runs must tell the same physical story, bit for bit.
	if math.Float64bits(inc.Makespan) != math.Float64bits(ref.Makespan) {
		log.Fatalf("solver modes diverged: makespan %v vs %v", inc.Makespan, ref.Makespan)
	}
	for i := range inc.Shards {
		for j := range inc.Shards[i].Jobs {
			a, b := inc.Shards[i].Jobs[j], ref.Shards[i].Jobs[j]
			if math.Float64bits(a.FinishedAt) != math.Float64bits(b.FinishedAt) ||
				math.Float64bits(a.WriteMBs()) != math.Float64bits(b.WriteMBs()) {
				log.Fatalf("shard %d job %s diverged between solver modes", i, a.Label)
			}
		}
	}

	t := report.NewTable("Four tenants, four file systems, one simulation",
		"Tenant", "Job", "MB/s", "Finished (s)")
	for i, sh := range inc.Shards {
		for j := range sh.Jobs {
			jr := &sh.Jobs[j]
			t.AddRow(fmt.Sprintf("fs%d", i), jr.Label, jr.WriteMBs(), jr.FinishedAt)
		}
	}
	t.Fprint(os.Stdout)

	is, rs := inc.Solver, ref.Solver
	fmt.Printf("\nmakespan: %.1f s — identical under the partitioned and reference solvers, bit for bit\n",
		inc.Makespan)
	fmt.Printf("\nsolver cost (partitioned vs reference):\n")
	fmt.Printf("  flows per solve:  %9.1f  vs %11.1f  (each solve touches one tenant, not the deployment)\n",
		float64(is.ComponentFlowsScanned)/float64(is.ComponentsSolved),
		float64(rs.ComponentFlowsScanned)/float64(rs.ComponentsSolved))
	fmt.Printf("  link visits:      %9d  vs %11d  (%.0fx fewer)\n",
		is.LinkVisits, rs.LinkVisits, float64(rs.LinkVisits)/float64(is.LinkVisits))
	fmt.Printf("  flows scanned:    %9d  vs %11d\n", is.FlowsScanned, rs.FlowsScanned)
	fmt.Printf("  accrual settles:  %9d  vs %11d  (identical: settles are physics, not solver mode)\n",
		is.FlowsSettled, rs.FlowsSettled)
}
