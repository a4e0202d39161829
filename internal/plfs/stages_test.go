package plfs

import (
	"fmt"
	"strings"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/lustre"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// openRankClosures is OpenRankK written as one closure per stage and
// rank — the ready signal, the create lock, the data create, the index
// create — which keeps each rank's state in its own frame. The stage
// queues must open every rank exactly as it does.
func openRankClosures(c *Container, t *sim.Task, rank int, k func(error)) {
	if _, dup := c.logs[rank]; dup {
		k(fmt.Errorf("plfs: rank %d already open in %q", rank, c.name))
		return
	}
	c.logs[rank] = nil
	c.ready.Await(t, func() {
		c.createRes.UseTask(t, 2*c.sys.Platform().PLFSCreateTime, func() {
			c.sys.MDS().CreateK(t, lustre.DefaultSpec(), func(data *lustre.File, err error) {
				if err != nil {
					delete(c.logs, rank)
					k(err)
					return
				}
				c.sys.MDS().CreateK(t, c.indexSpec(), func(index *lustre.File, err error) {
					if err != nil {
						delete(c.logs, rank)
						k(err)
						return
					}
					c.adoptLog(rank, data, index)
					k(nil)
				})
			})
		})
	})
}

// interleavedOpens runs two containers' open storms and a Lustre job's
// creates and stats on one metadata server, with open selecting the
// open path, and reports every outcome in completion order: each rank's
// data and index layouts or its error, and each of the job's creates.
// The MDS is slowed so that its queue stays deep, and two windows make
// creates fail validation while others wait at every stage: first data
// logs and the job's files (more stripes than the limit allows), then
// every create (a negative stripe size), index logs included.
func interleavedOpens(t *testing.T, open func(*Container, *sim.Task, int, func(error))) (outcomes []string, dataErrs, indexErrs int) {
	t.Helper()
	plat := cluster.Cab()
	plat.JitterCV = 0
	plat.MDSOpTime = 0.02
	eng := sim.NewEngine()
	sys, err := lustre.NewSystem(eng, plat, stats.NewRNG(11))
	if err != nil {
		t.Fatal(err)
	}
	window := func(at, until float64, set, reset func()) {
		eng.Schedule(at, set)
		eng.Schedule(until, reset)
	}
	// The skeletons' metadata operations and the job's keep the server
	// busy until about t = 2 s; the storm of opens runs from there, and
	// the windows fall inside it (the test checks that both kinds fail).
	window(2.0, 2.1, func() { plat.MaxStripeCount = 1 }, func() { plat.MaxStripeCount = 160 })
	window(2.31, 2.36, func() { plat.DefaultStripeSizeMB = -1 }, func() { plat.DefaultStripeSizeMB = 1 })
	record := func(s string) { outcomes = append(outcomes, s) }
	opened, failed, jobFiles := 0, 0, 0
	report := func(c *Container, r int, err error) {
		if err != nil {
			failed++
			record(fmt.Sprintf("%s/%d %v", c.name, r, err))
			return
		}
		opened++
		rl := c.logs[r]
		record(fmt.Sprintf("%s/%d data=%v index=%v", c.name, r, rl.data.Layout.OSTs, rl.index.Layout.OSTs))
	}
	for ci, name := range []string{"a", "b"} {
		c := NewContainer(sys, name)
		eng.StartTask(float64(ci)*0.01, "meta-"+name, -1, func(tk *sim.Task) {
			c.CreateMetaK(tk, func() {
				// Opens at the instant the skeleton appears, ahead of the
				// wakes of the ranks already waiting for it.
				open(c, tk, 100, func(err error) {
					report(c, 100, err)
					tk.Finish()
				})
			})
		})
		for r := 0; r < 12; r++ {
			eng.StartTask(float64(r)*0.11*float64(ci), "rank-"+name, r, func(tk *sim.Task) {
				open(c, tk, r, func(err error) {
					report(c, r, err)
					tk.Finish()
				})
			})
		}
	}
	eng.StartTask(0.05, "job", -1, func(tk *sim.Task) {
		left := 40
		var next func()
		next = func() {
			if left == 0 {
				tk.Finish()
				return
			}
			left--
			sys.MDS().CreateK(tk, lustre.StripeSpec{Count: 4, OffsetOST: -1}, func(f *lustre.File, err error) {
				if err != nil {
					record(fmt.Sprintf("job %v", err))
				} else {
					jobFiles++
					record(fmt.Sprintf("job %v", f.Layout.OSTs))
				}
				sys.MDS().StatK(tk, next)
			})
		}
		next()
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// An open whose index create failed made its data log first: the
	// files made beyond the opened ranks' two each and the job's count
	// those opens.
	indexErrs = sys.MDS().Creates() - 2*opened - jobFiles
	return outcomes, failed - indexErrs, indexErrs
}

// TestOpenStagesMatchClosures: two PLFS containers and a Lustre job
// interleaved on one metadata server give every rank the data and index
// layouts, and every failed open the error, that the closure-per-stage
// form gives, in the same completion order. Each stage resumes the head
// of its queue, which holds because each stage's wait completes in call
// order; a create that fails validation is reported within its CreateK
// call, so the stage hands the error to the open it pushed last, never to
// the head, whose create is still waiting at the server.
func TestOpenStagesMatchClosures(t *testing.T) {
	got, dataErrs, indexErrs := interleavedOpens(t, (*Container).OpenRankK)
	want, _, _ := interleavedOpens(t, openRankClosures)
	if dataErrs == 0 || indexErrs == 0 {
		t.Fatalf("the scenario failed %d data and %d index creates; both kinds must fail while others wait", dataErrs, indexErrs)
	}
	if g, w := strings.Join(got, "\n"), strings.Join(want, "\n"); g != w {
		t.Errorf("stage queues:\n%s\nclosures:\n%s", g, w)
	}
}

// TestOpenStagesRetainPeakDepth: a container's stage queues keep room for
// the most opens in flight at once, not for every open: ranks opened in
// waves of 8, each wave after the last has finished, leave the queues as
// large after 6 waves as after 3.
func TestOpenStagesRetainPeakDepth(t *testing.T) {
	room := func(waves int) int {
		eng, sys := testSys(t)
		c := NewContainer(sys, "waves")
		startMeta(eng, c)
		for r := 0; r < 8*waves; r++ {
			eng.StartTask(float64(r/8)*10, "rank", r, func(tk *sim.Task) {
				mustOpen(t, c, tk, r, func(*RankLog) { tk.Finish() })
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		if c.Ranks() != 8*waves {
			t.Fatalf("%d ranks opened, want %d", c.Ranks(), 8*waves)
		}
		return c.awaiting.Cap() + c.locking.Cap() + c.creatingData.Cap() + c.creatingIndex.Cap()
	}
	if three, six := room(3), room(6); three != six {
		t.Errorf("the stage queues keep room for %d opens after 3 waves of 8 and %d after 6", three, six)
	}
}
