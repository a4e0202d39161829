package mpiio

import (
	"fmt"
	"math"
	"strings"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/lustre"
	"pfsim/internal/mpi"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

func testSys(t *testing.T, seed uint64) (*sim.Engine, *lustre.System) {
	t.Helper()
	plat := cluster.Cab()
	plat.JitterCV = 0
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(seed))
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

// must adapts a rank step's error continuation for tests: an error fails
// the test at once; otherwise k runs.
func must(t *testing.T, what string, k func()) func(error) {
	return func(err error) {
		if err != nil {
			t.Fatalf("%s: %v", what, err)
		}
		k()
	}
}

// runJob opens a file, writes per-rank MB collectively, closes, and
// returns the achieved aggregate bandwidth (open-to-close, like IOR).
func runJob(t *testing.T, eng *sim.Engine, sys *lustre.System,
	procs int, driver Driver, hints Hints, perRankMB, transferMB float64) float64 {
	t.Helper()
	w := mpi.NewWorld(eng, procs, sys.Platform().CoresPerNode, 0)
	f := NewFile(sys, w.Comm(), "testfile", driver, hints)
	var start, end float64
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		w.Comm().BarrierK(r, func() {
			t0 := r.Task().Now()
			f.OpenK(r, must(t, "open", func() {
				f.WriteAllK(r, perRankMB, transferMB, must(t, "write", func() {
					f.CloseK(r, func() {
						w.Comm().AllreduceMinK(r, t0, func(v float64) {
							start = v
							w.Comm().AllreduceMaxK(r, r.Task().Now(), func(v float64) {
								end = v
								done()
							})
						})
					})
				}))
			}))
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if end <= start {
		t.Fatal("no elapsed time")
	}
	return perRankMB * float64(procs) / (end - start)
}

func TestDriverString(t *testing.T) {
	if DriverUFS.String() != "ad_ufs" || DriverLustre.String() != "ad_lustre" ||
		DriverPLFS.String() != "ad_plfs" {
		t.Error("driver names wrong")
	}
	if Driver(9).String() != "driver(9)" {
		t.Error("unknown driver name wrong")
	}
}

// TestDefaultConfigAnchor: 1,024 processes through ad_ufs with the default
// layout (2 × 1 MB) must land near the paper's 313 MB/s baseline.
func TestDefaultConfigAnchor(t *testing.T) {
	eng, sys := testSys(t, 1)
	bw := runJob(t, eng, sys, 1024, DriverUFS, NewHints(), 400, 1)
	if bw < 0.75*313 || bw > 1.25*313 {
		t.Errorf("default config bandwidth = %.0f MB/s, want ≈313", bw)
	}
}

// TestTunedConfigAnchor: ad_lustre with 160 × 128 MB must land near
// 15,609 MB/s, a ~49× improvement.
func TestTunedConfigAnchor(t *testing.T) {
	eng, sys := testSys(t, 2)
	hints := NewHints()
	hints.StripingFactor = 160
	hints.StripingUnitMB = 128
	bw := runJob(t, eng, sys, 1024, DriverLustre, hints, 400, 1)
	if bw < 0.8*15609 || bw > 1.2*15609 {
		t.Errorf("tuned bandwidth = %.0f MB/s, want ≈15609", bw)
	}

	eng2, sys2 := testSys(t, 3)
	defBW := runJob(t, eng2, sys2, 1024, DriverUFS, NewHints(), 400, 1)
	if factor := bw / defBW; factor < 35 || factor > 65 {
		t.Errorf("improvement factor = %.1f×, want ≈49×", factor)
	}
}

// TestUFSIgnoresHints: ad_ufs with tuning hints must behave like the
// default — the paper's motivating observation that without the Lustre
// driver the file system is underused.
func TestUFSIgnoresHints(t *testing.T) {
	eng, sys := testSys(t, 4)
	hints := NewHints()
	hints.StripingFactor = 160
	hints.StripingUnitMB = 128
	bw := runJob(t, eng, sys, 256, DriverUFS, hints, 400, 1)
	eng2, sys2 := testSys(t, 4)
	defBW := runJob(t, eng2, sys2, 256, DriverUFS, NewHints(), 400, 1)
	if math.Abs(bw-defBW) > 0.05*defBW {
		t.Errorf("ad_ufs with hints %.0f != without %.0f; hints must be ignored", bw, defBW)
	}
}

// TestStripeCountScaling: more OSTs, more bandwidth (until aggregators
// saturate) — the stripe-count axis of Figure 1.
func TestStripeCountScaling(t *testing.T) {
	prev := 0.0
	for _, count := range []int{8, 32, 64, 160} {
		eng, sys := testSys(t, 5)
		hints := NewHints()
		hints.StripingFactor = count
		hints.StripingUnitMB = 128
		bw := runJob(t, eng, sys, 1024, DriverLustre, hints, 400, 1)
		if bw <= prev {
			t.Errorf("count=%d: bandwidth %.0f not above previous %.0f", count, bw, prev)
		}
		prev = bw
	}
}

// TestStripeSizeMatters: 1 MB stripes at count 160 must reach only ~4 GB/s
// (the paper's stripe-size-only limit at max count).
func TestStripeSizeMatters(t *testing.T) {
	eng, sys := testSys(t, 6)
	hints := NewHints()
	hints.StripingFactor = 160
	hints.StripingUnitMB = 1
	bw := runJob(t, eng, sys, 1024, DriverLustre, hints, 400, 1)
	if bw < 0.7*4075 || bw > 1.3*4075 {
		t.Errorf("160×1MB bandwidth = %.0f, want ≈4075", bw)
	}
}

// TestPLFSWriteAll: PLFS at 64 ranks should beat the default ad_ufs (the
// paper's small-scale PLFS win).
func TestPLFSWriteAll(t *testing.T) {
	eng, sys := testSys(t, 7)
	plfsBW := runJob(t, eng, sys, 64, DriverPLFS, NewHints(), 400, 1)
	eng2, sys2 := testSys(t, 7)
	ufsBW := runJob(t, eng2, sys2, 64, DriverUFS, NewHints(), 400, 1)
	if plfsBW <= ufsBW {
		t.Errorf("PLFS (%.0f) should beat default ad_ufs (%.0f) at small scale", plfsBW, ufsBW)
	}
	// And the container must hold one log per rank.
	// (Re-run to inspect: runJob closed over the file internally.)
}

func TestPLFSContainerState(t *testing.T) {
	eng, sys := testSys(t, 8)
	w := mpi.NewWorld(eng, 32, 16, 0)
	f := NewFile(sys, w.Comm(), "plfsfile", DriverPLFS, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", func() {
			f.WriteAllK(r, 50, 1, must(t, "write", func() {
				f.CloseK(r, done)
			}))
		}))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	c := f.Container()
	if c == nil || c.Ranks() != 32 {
		t.Fatalf("container missing or wrong rank count")
	}
	if c.IndexRecords() != 32*50 {
		t.Errorf("index records = %d, want 1600", c.IndexRecords())
	}
	a := c.Assignment()
	if len(a.JobOSTs) != 32 {
		t.Errorf("assignment ranks = %d", len(a.JobOSTs))
	}
	if f.Layout() != nil {
		t.Error("PLFS file should have no shared layout")
	}
}

func TestWriteBeforeOpenFails(t *testing.T) {
	eng, sys := testSys(t, 9)
	w := mpi.NewWorld(eng, 4, 16, 0)
	f := NewFile(sys, w.Comm(), "x", DriverLustre, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.WriteAllK(r, 10, 1, func(err error) {
			if err == nil {
				t.Error("WriteAll before Open accepted")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestBadSizesFail(t *testing.T) {
	eng, sys := testSys(t, 10)
	w := mpi.NewWorld(eng, 2, 16, 0)
	f := NewFile(sys, w.Comm(), "x", DriverLustre, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", func() {
			f.WriteAllK(r, -1, 1, func(err error) {
				if err == nil {
					t.Error("negative size accepted")
				}
				w.Comm().BarrierK(r, func() {
					f.WriteAllK(r, 10, 0, func(err error) {
						if err == nil {
							t.Error("zero transfer accepted")
						}
						done()
					})
				})
			})
		}))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestStripeOffsetPinning(t *testing.T) {
	eng, sys := testSys(t, 11)
	w := mpi.NewWorld(eng, 2, 16, 0)
	hints := NewHints()
	hints.StripingFactor = 1
	hints.StripingUnitMB = 1
	hints.StripeOffset = 77
	f := NewFile(sys, w.Comm(), "pinned", DriverLustre, hints)
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", done))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if got := f.Layout().OSTs[0]; got != 77 {
		t.Errorf("pinned OST = %d, want 77", got)
	}
}

func TestCBNodesHint(t *testing.T) {
	// Limiting aggregators must cut tuned bandwidth roughly linearly.
	eng, sys := testSys(t, 12)
	hints := NewHints()
	hints.StripingFactor = 160
	hints.StripingUnitMB = 128
	hints.CBNodes = 8
	bw := runJob(t, eng, sys, 1024, DriverLustre, hints, 400, 1)
	want := 8 * sys.Platform().AggregatorMBs // ≈ dispatch-bound
	if bw < 0.7*want || bw > 1.2*want {
		t.Errorf("cb_nodes=8 bandwidth = %.0f, want ≈%.0f", bw, want)
	}
}

func TestIndependentSlowerThanCollective(t *testing.T) {
	// Independent shared-file writes create per-rank lock domains and must
	// underperform collective buffering at the same layout.
	hints := NewHints()
	hints.StripingFactor = 64
	hints.StripingUnitMB = 16

	eng, sys := testSys(t, 13)
	w := mpi.NewWorld(eng, 128, 16, 0)
	f := NewFile(sys, w.Comm(), "ind", DriverLustre, hints)
	var indEnd float64
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", func() {
			f.WriteIndependentK(r, 100, 1, must(t, "independent write", func() {
				f.CloseK(r, func() {
					w.Comm().AllreduceMaxK(r, r.Task().Now(), func(v float64) {
						indEnd = v
						done()
					})
				})
			}))
		}))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}

	eng2, sys2 := testSys(t, 13)
	collBW := runJob(t, eng2, sys2, 128, DriverLustre, hints, 100, 1)
	indBW := 128 * 100 / indEnd
	if indBW >= collBW {
		t.Errorf("independent (%.0f) should be slower than collective (%.0f)", indBW, collBW)
	}
}

func TestDeterminism(t *testing.T) {
	run := func() float64 {
		eng, sys := testSys(t, 99)
		hints := NewHints()
		hints.StripingFactor = 96
		hints.StripingUnitMB = 64
		return runJob(t, eng, sys, 256, DriverLustre, hints, 200, 1)
	}
	if a, b := run(), run(); a != b {
		t.Errorf("same-seed runs differ: %v vs %v", a, b)
	}
}

func TestReadAllMirrorsWritePath(t *testing.T) {
	eng, sys := testSys(t, 20)
	w := mpi.NewWorld(eng, 64, 16, 0)
	hints := NewHints()
	hints.StripingFactor = 64
	hints.StripingUnitMB = 64
	f := NewFile(sys, w.Comm(), "rw", DriverLustre, hints)
	var writeTime, readTime float64
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", func() {
			t0 := r.Task().Now()
			f.WriteAllK(r, 100, 1, must(t, "write", func() {
				w.Comm().AllreduceMaxK(r, r.Task().Now(), func(end float64) {
					writeTime = end - t0
					t1 := r.Task().Now()
					f.ReadAllK(r, 100, 1, must(t, "read", func() {
						w.Comm().AllreduceMaxK(r, r.Task().Now(), func(end float64) {
							readTime = end - t1
							done()
						})
					}))
				})
			}))
		}))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Fluid model is direction-agnostic: read and write phases should take
	// nearly identical time on an otherwise idle system.
	if math.Abs(readTime-writeTime) > 0.1*writeTime {
		t.Errorf("read %.3fs vs write %.3fs: phases should match", readTime, writeTime)
	}
}

func TestReadBeforeOpenFails(t *testing.T) {
	eng, sys := testSys(t, 21)
	w := mpi.NewWorld(eng, 2, 16, 0)
	f := NewFile(sys, w.Comm(), "x", DriverLustre, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.ReadAllK(r, 10, 1, func(err error) {
			if err == nil {
				t.Error("ReadAll before Open accepted")
			}
			done()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCBBufferHintCapsRPC(t *testing.T) {
	// A small cb_buffer_size forces small RPCs even with large stripes,
	// hurting OST efficiency exactly like small stripes do.
	run := func(cbMB float64) float64 {
		eng, sys := testSys(t, 22)
		hints := NewHints()
		hints.StripingFactor = 2 // OST-bound regime exposes RPC efficiency
		hints.StripingUnitMB = 128
		hints.CBBufferMB = cbMB
		return runJob(t, eng, sys, 64, DriverLustre, hints, 100, 1)
	}
	big := run(16)
	small := run(1)
	if small >= big {
		t.Errorf("1MB cb buffer (%.0f) should underperform 16MB (%.0f)", small, big)
	}
}

func TestPLFSFileIDZero(t *testing.T) {
	eng, sys := testSys(t, 23)
	w := mpi.NewWorld(eng, 4, 16, 0)
	f := NewFile(sys, w.Comm(), "pl", DriverPLFS, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", done))
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if f.FileID() != 0 {
		t.Errorf("PLFS FileID = %d, want 0", f.FileID())
	}
	if f.Driver() != DriverPLFS || f.Name() != "pl" {
		t.Error("accessors wrong")
	}
}

// TestZeroDurationCollectives: a collective that takes no virtual time —
// a zero total, or flows at or below the fluid model's instantaneous
// threshold that complete at admission — finishes rank 0's side
// synchronously, before the other ranks reach the rendezvous. Every rank
// must still see that operation's signal and complete, on every driver,
// for a write followed by a read.
func TestZeroDurationCollectives(t *testing.T) {
	for _, driver := range []Driver{DriverLustre, DriverUFS, DriverPLFS} {
		for _, size := range []float64{0, 1e-10} {
			eng, sys := testSys(t, 24)
			w := mpi.NewWorld(eng, 4, 16, 0)
			f := NewFile(sys, w.Comm(), "zero", driver, NewHints())
			finished := 0
			w.LaunchTasks(func(r *mpi.Rank, done func()) {
				f.OpenK(r, must(t, "open", func() {
					f.WriteAllK(r, size, size+1e-10, must(t, "write", func() {
						f.ReadAllK(r, size, size+1e-10, must(t, "read", func() {
							f.CloseK(r, func() {
								finished++
								done()
							})
						}))
					}))
				}))
			})
			if err := eng.Run(); err != nil {
				t.Errorf("%v size %v: %v", driver, size, err)
				continue
			}
			if finished != 4 {
				t.Errorf("%v size %v: %d of 4 ranks finished", driver, size, finished)
			}
		}
	}
}

// TestStuckWriteNamesItsOperation: a collective write that never
// completes is reported under the file's operation count, which runs on
// across the one recycled operation signal: the third write on a file is
// writeall:<file>:2. Rank 0, which runs the write, waits on its batch of
// streams, named after the first: aggregator 0's stream to the layout's
// first OST. Every OST fails before it, so its flows stall.
func TestStuckWriteNamesItsOperation(t *testing.T) {
	eng, sys := testSys(t, 25)
	w := mpi.NewWorld(eng, 4, 16, 0)
	f := NewFile(sys, w.Comm(), "stuck", DriverLustre, NewHints())
	w.LaunchTasks(func(r *mpi.Rank, done func()) {
		f.OpenK(r, must(t, "open", func() {
			f.WriteAllK(r, 10, 1, must(t, "write 0", func() {
				f.WriteAllK(r, 10, 1, must(t, "write 1", func() {
					if r.ID() == 0 {
						for i := 0; i < sys.NumOSTs(); i++ {
							sys.OST(i).SetHealth(0)
						}
					}
					f.WriteAllK(r, 10, 1, must(t, "write 2", done))
				}))
			}))
		}))
	})
	err := eng.Run()
	if err == nil {
		t.Fatal("want the stalled write to deadlock")
	}
	want := []string{fmt.Sprintf("rank0 (waiting cw:stuck:a0:o%d)", f.Layout().OSTs[0])}
	for _, rank := range []string{"rank1", "rank2", "rank3"} {
		want = append(want, rank+" (waiting writeall:stuck:2)")
	}
	for _, w := range want {
		if !strings.Contains(err.Error(), w) {
			t.Errorf("deadlock report %q does not name %q", err, w)
		}
	}
}
