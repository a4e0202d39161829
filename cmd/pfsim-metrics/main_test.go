package main

import (
	"strings"
	"testing"
)

// golden64 is the exact -solver-writers 64 output. The simulation and its
// counters are deterministic, so any drift here is a real solver
// behaviour change — the same property the root package's
// TestWorkCounters relies on.
const golden64 = `Solver work: 64 file-per-process writers (128 flows)
  Counter                  Incremental  Reference
  -----------------------  -----------  ---------
  solves                   148          212
  components solved        147          212
  component flows scanned  9148         13046
  link visits              33698        2513264
  rate-fixing rounds       301          609
  resumed solves           64           0
  replayed rounds          136          0
  flows scanned            5934         38997
  flows settled            2095         2095
  heap ops                 2485         0
  link-share heap ops      0            0
  coalesced recomputes     108          0

flows scanned per round: 19.7 incremental vs 64.0 reference (full rescan would pay 128)
flows per component solve: 62.2 incremental vs 61.5 reference (the whole population)
heap ops per solve: 16.8 (the pre-heap completion scan paid 128 flow touches per solve)
`

func TestSolverStatsGolden(t *testing.T) {
	var b strings.Builder
	if err := printSolverStats(&b, 64); err != nil {
		t.Fatal(err)
	}
	if b.String() != golden64 {
		t.Errorf("solver stats output drifted.\n--- got ---\n%s--- want ---\n%s", b.String(), golden64)
	}
}
