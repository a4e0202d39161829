// Fleet-scale dispatch benchmarks: how much the engine itself costs per
// short-lived writer, and how many real goroutines a fleet holds.
package pfsim

import (
	"runtime"
	"strconv"
	"testing"

	"pfsim/internal/flow"
	"pfsim/internal/sim"
)

// The fleet shape: writers arrive at a constant stagger, each doing a
// create (bounded-concurrency resource, the MDS pattern), one small
// rate-capped transfer on its backbone link, and retiring. The stagger
// and transfer time put a few hundred writers in flight at any instant
// regardless of the total count, so the benchmark measures steady-state
// churn — spawn, block, wake, retire — not a static population.
const (
	fleetLinks      = 64   // disjoint backbone links (writer i uses i mod 64)
	fleetMDSSlots   = 16   // create concurrency
	fleetCreateCost = 1e-4 // seconds per create
	fleetWriteMB    = 1.0  // transfer size
	fleetWriteRate  = 50.0 // per-writer rate cap (MB/s): solo transfer = 20 ms
	fleetStagger    = 5e-5 // seconds between writer starts (20k arrivals/s)
)

// runFleet simulates writers short-lived writers as inline tasks and
// returns the peak goroutine count observed while the engine ran (sampled
// every few hundred fired events, which at this event density is many
// times per simulated writer lifetime) and the run's work counters.
func runFleet(tb testing.TB, writers int) (int, workCounts) {
	tb.Helper()
	e := sim.NewEngine()
	n := flow.NewNet(e)
	links := make([]*flow.Link, fleetLinks)
	for i := range links {
		links[i] = n.NewLink("fleet-pipe"+strconv.Itoa(i), flow.Const(1000))
	}
	mds := e.NewResource("fleet-mds", fleetMDSSlots)
	completed := 0
	for i := 0; i < writers; i++ {
		link := links[i%fleetLinks]
		e.StartTask(float64(i)*fleetStagger, "w", i, func(t *sim.Task) {
			mds.UseTask(t, fleetCreateCost, func() {
				write := flow.FlowSpec{Name: "fleet-write", SizeMB: fleetWriteMB, MaxRate: fleetWriteRate, Path: []*flow.Link{link}}
				n.StartBatch([]flow.FlowSpec{write}).Await(t, func() {
					completed++
					t.Finish()
				})
			})
		})
	}
	peak := runtime.NumGoroutine()
	e.SetPoll(512, func() {
		if g := runtime.NumGoroutine(); g > peak {
			peak = g
		}
	})
	if err := e.Run(); err != nil {
		tb.Fatal(err)
	}
	if completed != writers {
		tb.Fatalf("%d of %d writers completed", completed, writers)
	}
	if e.LiveTasks() != 0 {
		tb.Fatalf("fleet not retired: %d tasks live", e.LiveTasks())
	}
	return peak, workCounts{solver: n.Stats(), engine: e.Stats()}
}

// BenchmarkEngineFleet times the engine-fleet run: 100k short-lived
// writers through the engine. It reports the engine's event counts:
// events scheduled, and how many took the same-instant lane or the heap
// (laneevents + heappushes == events).
func BenchmarkEngineFleet(b *testing.B) { benchCounts(b, workRunNamed(b, "engine-fleet").run) }

// TestEngineFleetGoroutinesO1: a fleet holds a constant number of
// goroutines however many writers pass through. The arrival and service
// rates put ~400 writers in flight at steady state, so a goroutine per
// in-flight writer would show far beyond the few-goroutine slack allowed
// over the test baseline.
func TestEngineFleetGoroutinesO1(t *testing.T) {
	base := runtime.NumGoroutine()
	small, _ := runFleet(t, 1_000)
	large, _ := runFleet(t, 20_000)
	if small > base+4 || large > base+4 {
		t.Errorf("task fleet grew the goroutine count: baseline %d, peak %d (1k writers) / %d (20k writers)",
			base, small, large)
	}
	if large > small+4 {
		t.Errorf("task fleet peak scales with fleet size: %d at 1k writers, %d at 20k", small, large)
	}
}

// BenchmarkCheckpointFleet times the checkpoint-fleet run: digestFleet's
// jittered checkpointer fleet (TestShardFleetDigest) replicated over 48
// file systems under one engine. Every checkpoint is an IOR repetition
// whose ranks meet in MPI collectives around the write, so this times
// the collective path.
func BenchmarkCheckpointFleet(b *testing.B) { benchCounts(b, workRunNamed(b, "checkpoint-fleet").run) }
