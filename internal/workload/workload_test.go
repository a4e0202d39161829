package workload

import (
	"math"
	"testing"

	"pfsim/internal/ior"
	"pfsim/internal/mpiio"
)

func TestCheckpointBasics(t *testing.T) {
	c := Checkpoint{Ranks: 1024, StateMBPerRank: 400, ComputeSeconds: 3600, MTBFSeconds: 86400}
	if c.TotalStateMB() != 409600 {
		t.Errorf("total state = %v", c.TotalStateMB())
	}
	// At the paper's tuned 15,609 MB/s, one checkpoint takes ~26 s.
	w := c.WriteSeconds(15609)
	if math.Abs(w-26.24) > 0.1 {
		t.Errorf("write time = %v, want ~26.24", w)
	}
	// At the 313 MB/s default it takes ~22 minutes.
	wSlow := c.WriteSeconds(313)
	if wSlow < 1200 || wSlow > 1400 {
		t.Errorf("default write time = %v, want ~1309", wSlow)
	}
	if !math.IsInf(c.WriteSeconds(0), 1) {
		t.Error("zero bandwidth must give infinite write time")
	}
}

func TestEfficiencyImprovesWithBandwidth(t *testing.T) {
	c := Checkpoint{Ranks: 1024, StateMBPerRank: 400, ComputeSeconds: 3600, MTBFSeconds: 86400}
	effTuned := c.Efficiency(15609)
	effDefault := c.Efficiency(313)
	if effTuned <= effDefault {
		t.Errorf("tuned efficiency %v should beat default %v", effTuned, effDefault)
	}
	if effTuned < 0.99 {
		t.Errorf("tuned efficiency = %v, want ≈0.993", effTuned)
	}
	if effDefault > 0.75 {
		t.Errorf("default efficiency = %v, want ≈0.73", effDefault)
	}
}

func TestYoungInterval(t *testing.T) {
	c := Checkpoint{Ranks: 1024, StateMBPerRank: 400, MTBFSeconds: 86400}
	// sqrt(2 * 26.24 * 86400) ≈ 2,130 s.
	tau := c.YoungInterval(15609)
	if math.Abs(tau-2129) > 25 {
		t.Errorf("Young interval = %v, want ~2129", tau)
	}
	// Lower bandwidth -> longer interval.
	if c.YoungInterval(313) <= tau {
		t.Error("slower I/O should lengthen the optimal interval")
	}
	if !math.IsInf(c.YoungInterval(0), 1) {
		t.Error("zero bandwidth must give infinite interval")
	}
	noFail := Checkpoint{Ranks: 1, StateMBPerRank: 1}
	if !math.IsInf(noFail.YoungInterval(100), 1) {
		t.Error("zero MTBF must give infinite interval")
	}
}

func TestGoodputMonotoneInBandwidth(t *testing.T) {
	c := Checkpoint{Ranks: 1024, StateMBPerRank: 400, ComputeSeconds: 3600, MTBFSeconds: 86400}
	prev := 0.0
	for _, bw := range []float64{313, 1000, 4000, 15609} {
		g := c.GoodputFraction(bw)
		if g <= prev {
			t.Errorf("goodput at %v MB/s = %v, not above %v", bw, g, prev)
		}
		if g <= 0 || g >= 1 {
			t.Errorf("goodput at %v MB/s = %v out of (0,1)", bw, g)
		}
		prev = g
	}
	if got := c.GoodputFraction(0); got != 0 {
		t.Errorf("goodput at 0 bandwidth = %v", got)
	}
}

func TestIORConfigConversion(t *testing.T) {
	c := Checkpoint{Ranks: 256, StateMBPerRank: 100, ComputeSeconds: 60, MTBFSeconds: 3600}
	cfg := c.IORConfig(mpiio.DriverLustre, ior.TunedHints())
	if cfg.NumTasks != 256 || cfg.PerRankMB() != 100 {
		t.Errorf("conversion wrong: tasks=%d per-rank=%v", cfg.NumTasks, cfg.PerRankMB())
	}
	if cfg.TransferSizeMB > cfg.BlockSizeMB {
		t.Error("transfer must not exceed block")
	}
	// Tiny states keep transfer <= block.
	tiny := Checkpoint{Ranks: 4, StateMBPerRank: 0.5}
	tcfg := tiny.IORConfig(mpiio.DriverUFS, mpiio.NewHints())
	if tcfg.TransferSizeMB != 0.5 {
		t.Errorf("tiny transfer = %v", tcfg.TransferSizeMB)
	}
}
