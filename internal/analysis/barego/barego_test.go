package barego_test

import (
	"testing"

	"pfsim/internal/analysis/analysistest"
	"pfsim/internal/analysis/barego"
)

func TestBareGo(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), barego.Analyzer,
		"fixture/internal/pool", "fixture/internal/sim", "fixture/internal/workload", "fixture/cmd/tool")
}
