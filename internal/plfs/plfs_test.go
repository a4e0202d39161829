package plfs

import (
	"math"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

func testSys(t *testing.T) (*sim.Engine, *lustre.System) {
	t.Helper()
	plat := cluster.Cab()
	plat.JitterCV = 0
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(7))
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

// startMeta starts the task that creates c's skeleton.
func startMeta(eng *sim.Engine, c *Container) {
	eng.StartTask(0, "meta", -1, func(tk *sim.Task) { c.CreateMetaK(tk, tk.Finish) })
}

// mustOpen opens rank r's logs and hands them to k, failing the test on
// an open error.
func mustOpen(t *testing.T, c *Container, tk *sim.Task, r int, k func(*RankLog)) {
	t.Helper()
	c.OpenRankK(tk, r, func(err error) {
		if err != nil {
			t.Fatalf("OpenRankK(%d): %v", r, err)
		}
		k(c.Log(r))
	})
}

func TestContainerLifecycle(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "checkpoint")
	const ranks = 8
	var logs [ranks]*RankLog
	startMeta(eng, c)
	for r := 0; r < ranks; r++ {
		r := r
		eng.StartTask(0, "rank", r, func(tk *sim.Task) {
			mustOpen(t, c, tk, r, func(rl *RankLog) {
				logs[r] = rl
				rl.WriteK(tk, r/16, 100, 1, func(err error) {
					if err != nil {
						t.Errorf("WriteK(%d): %v", r, err)
					}
					rl.CloseK(tk, tk.Finish)
				})
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if c.Ranks() != ranks {
		t.Errorf("Ranks = %d, want %d", c.Ranks(), ranks)
	}
	for r, rl := range logs {
		if rl.WrittenMB() != 100 {
			t.Errorf("rank %d wrote %v MB", r, rl.WrittenMB())
		}
		if rl.Records() != 100 {
			t.Errorf("rank %d has %d records, want 100", r, rl.Records())
		}
		if got := rl.Data().Layout.StripeCount(); got != 2 {
			t.Errorf("rank %d data log has %d stripes, want system default 2", r, got)
		}
	}
	if c.IndexRecords() != ranks*100 {
		t.Errorf("index records = %d", c.IndexRecords())
	}
}

func TestOpenStormSerializes(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "storm")
	const ranks = 32
	var lastOpen float64
	startMeta(eng, c)
	for r := 0; r < ranks; r++ {
		r := r
		eng.StartTask(0, "rank", r, func(tk *sim.Task) {
			mustOpen(t, c, tk, r, func(*RankLog) {
				if tk.Now() > lastOpen {
					lastOpen = tk.Now()
				}
				tk.Finish()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 32 ranks × 2 creates × PLFSCreateTime serialized, plus MDS ops.
	minExpected := float64(ranks) * 2 * sys.Platform().PLFSCreateTime
	if lastOpen < minExpected {
		t.Errorf("open storm finished at %v, want >= %v (serialized)", lastOpen, minExpected)
	}
	if lastOpen > 2*minExpected {
		t.Errorf("open storm took %v, suspiciously long vs %v", lastOpen, minExpected)
	}
}

func TestDuplicateOpenRejected(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "dup")
	startMeta(eng, c)
	eng.StartTask(0, "rank", -1, func(tk *sim.Task) {
		mustOpen(t, c, tk, 3, func(*RankLog) {
			c.OpenRankK(tk, 3, func(err error) {
				if err == nil {
					t.Error("duplicate open accepted")
				}
				tk.Finish()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

// TestConcurrentDuplicateOpenRejected: two tasks open the same rank at
// t=0, so the second arrives while the first is still waiting for the
// container skeleton. The second must fail, and the rank must be counted
// once.
func TestConcurrentDuplicateOpenRejected(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "dup-race")
	startMeta(eng, c)
	var errs []error
	for i := 0; i < 2; i++ {
		eng.StartTask(0, "opener", i, func(tk *sim.Task) {
			c.OpenRankK(tk, 0, func(err error) {
				errs = append(errs, err)
				tk.Finish()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if len(errs) != 2 || errs[0] == nil || errs[1] != nil {
		t.Errorf("open results in completion order = %v, want [duplicate error, nil]", errs)
	}
	if c.Ranks() != 1 {
		t.Errorf("Ranks = %d, want 1", c.Ranks())
	}
	if a := c.Assignment(); len(a.JobOSTs) != 1 {
		t.Errorf("Assignment lists %d rank logs, want 1", len(a.JobOSTs))
	}
}

func TestWriteValidation(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "val")
	startMeta(eng, c)
	wantErr := func(what string, want bool) func(error) {
		return func(err error) {
			if (err != nil) != want {
				t.Errorf("%s: err = %v, want error %v", what, err, want)
			}
		}
	}
	eng.StartTask(0, "rank", -1, func(tk *sim.Task) {
		mustOpen(t, c, tk, 0, func(rl *RankLog) {
			rl.WriteK(tk, 0, -1, 1, wantErr("negative size", true))
			rl.WriteK(tk, 0, 10, 0, wantErr("zero transfer", true))
			rl.WriteK(tk, 0, 0, 1, wantErr("zero-size write", false))
			rl.CloseK(tk, func() {
				rl.CloseK(tk, func() { // idempotent
					rl.WriteK(tk, 0, 10, 1, wantErr("write after close", true))
					tk.Finish()
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestRankRateCap(t *testing.T) {
	// A single rank writing alone must sustain ~PLFSRankMBs, not the full
	// OST bandwidth.
	eng, sys := testSys(t)
	c := NewContainer(sys, "solo")
	var bw float64
	startMeta(eng, c)
	eng.StartTask(0, "rank", -1, func(tk *sim.Task) {
		mustOpen(t, c, tk, 0, func(rl *RankLog) {
			start := tk.Now()
			rl.WriteK(tk, 0, 470, 1, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				bw = 470 / (tk.Now() - start)
				tk.Finish()
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := sys.Platform().PLFSRankMBs
	if math.Abs(bw-want) > 0.02*want {
		t.Errorf("solo rank bandwidth = %.1f, want ~%.1f", bw, want)
	}
}

func TestSubdirHashing(t *testing.T) {
	_, sys := testSys(t)
	c := NewContainer(sys, "hash")
	counts := make([]int, c.subdirs)
	for r := 0; r < 320; r++ {
		d := c.Subdir(r)
		if d < 0 || d >= c.subdirs {
			t.Fatalf("subdir %d out of range", d)
		}
		counts[d]++
	}
	for d, n := range counts {
		if n != 10 {
			t.Errorf("subdir %d holds %d ranks, want 10 (uniform)", d, n)
		}
	}
	if c.Subdir(-5) < 0 {
		t.Error("negative rank must still hash to a valid subdir")
	}
}

func TestAssignmentMatchesEquation5(t *testing.T) {
	// The realised container layout must track PLFSDinuse/PLFSLoad.
	eng, sys := testSys(t)
	c := NewContainer(sys, "eq5")
	const ranks = 512
	startMeta(eng, c)
	for r := 0; r < ranks; r++ {
		r := r
		eng.StartTask(0, "rank", r, func(tk *sim.Task) {
			mustOpen(t, c, tk, r, func(*RankLog) { tk.Finish() })
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	a := c.Assignment()
	if len(a.JobOSTs) != ranks {
		t.Fatalf("assignment has %d ranks", len(a.JobOSTs))
	}
	// Paper Table VIII: Dinuse 418-433, Dload 2.36-2.45 across experiments.
	inUse := float64(a.InUse())
	if inUse < 410 || inUse > 440 {
		t.Errorf("realised Dinuse = %v, want ~427", inUse)
	}
	if l := a.Load(); l < 2.3 || l > 2.5 {
		t.Errorf("realised Dload = %v, want ~2.4", l)
	}
}

func TestReadBack(t *testing.T) {
	eng, sys := testSys(t)
	c := NewContainer(sys, "rb")
	startMeta(eng, c)
	var readTime float64
	eng.StartTask(0, "rank", -1, func(tk *sim.Task) {
		mustOpen(t, c, tk, 0, func(rl *RankLog) {
			rl.WriteK(tk, 0, 94, 1, func(err error) {
				if err != nil {
					t.Fatal(err)
				}
				start := tk.Now()
				rl.ReadK(tk, 0, 94, func(err error) {
					if err != nil {
						t.Fatal(err)
					}
					readTime = tk.Now() - start
					rl.ReadK(tk, 0, 0, func(err error) {
						if err != nil {
							t.Errorf("zero read: %v", err)
						}
						tk.Finish()
					})
				})
			})
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Read path is sequential-class and index-merge-dominated; it must be
	// faster than the rank-capped write (94/47 = 2s).
	if readTime <= 0 || readTime > 2 {
		t.Errorf("read took %v, want (0, 2)", readTime)
	}
}
