package pfsim

import (
	"strings"
	"testing"
)

// BenchmarkScenarioCorpus times the table's corpus rows: every committed
// scenario file (scenarios/*.yaml) through scenariofile.Run at
// Parallelism 1, as `pfsim-scenario run` does, solo baselines and
// assertions included. testdata/counters.golden holds each file's
// counters.
func BenchmarkScenarioCorpus(b *testing.B) {
	var corpus []workRun
	for _, r := range workRuns(b) {
		if strings.HasPrefix(r.name, "corpus/") {
			corpus = append(corpus, r)
		}
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		for _, r := range corpus {
			r.run(b)
		}
	}
}
