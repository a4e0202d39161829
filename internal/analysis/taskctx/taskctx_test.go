package taskctx_test

import (
	"testing"

	"pfsim/internal/analysis/analysistest"
	"pfsim/internal/analysis/taskctx"
)

// TestTaskctx checks root discovery (literal and function-value
// continuations), cross-package reachability (ior → flow), every
// flagged construct class, the go-launched-closure exemption, and the
// line-level escape hatch. fixture/internal/sim is listed to assert the
// annotated engine miniature itself stays clean.
func TestTaskctx(t *testing.T) {
	analysistest.Run(t, analysistest.TestData(), taskctx.Analyzer,
		"fixture/internal/flow", "fixture/internal/ior", "fixture/internal/sim")
}
