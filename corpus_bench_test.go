package pfsim

import (
	"os"
	"path/filepath"
	"testing"

	"pfsim/internal/flow"
	"pfsim/internal/scenariofile"
)

// BenchmarkScenarioCorpus runs every committed scenario file
// (scenarios/*.yaml) as `pfsim-scenario run` does: parse, then
// scenariofile.Run at Parallelism 1, solo baselines and assertions
// included. It is the gate on the front door end to end: allocs/op and
// B/op, plus, summed over the corpus's contended runs, the engine's
// events/op (events scheduled) and the flow solver's counters — all
// deterministic, so a change that claims to move only allocation must
// leave events/op and every solver counter exactly as they were.
func BenchmarkScenarioCorpus(b *testing.B) {
	paths, err := filepath.Glob(filepath.Join("scenarios", "*.yaml"))
	if err != nil {
		b.Fatal(err)
	}
	if len(paths) == 0 {
		b.Fatal("no scenario files under scenarios/")
	}
	docs := make([][]byte, len(paths))
	for i, p := range paths {
		if docs[i], err = os.ReadFile(p); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	var events int64
	var solver flow.Stats
	for i := 0; i < b.N; i++ {
		events, solver = 0, flow.Stats{}
		for j, doc := range docs {
			f, err := scenariofile.Parse(doc, paths[j])
			if err != nil {
				b.Fatal(err)
			}
			res, err := scenariofile.Run(f, scenariofile.RunOptions{Parallelism: 1})
			if err != nil {
				b.Fatal(err)
			}
			if !res.Passed() {
				b.Fatalf("%s: assertions failed: %v", paths[j], res.Failures)
			}
			events += res.Engine().Scheduled
			addSolverStats(&solver, res.Solver())
		}
	}
	b.ReportMetric(float64(events), "events/op")
	reportSolverStats(b, solver)
}

// addSolverStats adds s's counters to sum.
func addSolverStats(sum *flow.Stats, s flow.Stats) {
	sum.Solves += s.Solves
	sum.ComponentsSolved += s.ComponentsSolved
	sum.ComponentFlowsScanned += s.ComponentFlowsScanned
	sum.LinkVisits += s.LinkVisits
	sum.Coalesced += s.Coalesced
	sum.Rounds += s.Rounds
	sum.FlowsScanned += s.FlowsScanned
	sum.FlowsSettled += s.FlowsSettled
	sum.HeapOps += s.HeapOps
	sum.ShareHeapOps += s.ShareHeapOps
}
