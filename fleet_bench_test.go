// Fleet-scale dispatch benchmarks: how much the engine itself costs per
// short-lived writer, and how many real goroutines a fleet holds.
package pfsim

import (
	"runtime"
	"strconv"
	"strings"
	"testing"

	"pfsim/internal/flow"
	"pfsim/internal/lustre"
	"pfsim/internal/scenariofile"
	"pfsim/internal/sim"
	"pfsim/internal/workload"
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
// times per simulated writer lifetime) and the engine's work counters.
func runFleet(tb testing.TB, writers int) (int, sim.Stats) {
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
				n.TransferThen(t, "fleet-write", fleetWriteMB, fleetWriteRate, func(*flow.Flow) {
					completed++
					t.Finish()
				}, link)
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
	return peak, e.Stats()
}

// BenchmarkEngineFleet runs 100k short-lived writers through the engine.
// The sub-benchmark is gated under its name "tasks" (BENCH_solver.json):
// ns/op, B/op, allocs/op, the peak live goroutine count — O(1) in fleet
// size, as TestEngineFleetGoroutinesO1 asserts — and the engine's event
// counts: events scheduled, and how many took the same-instant lane or
// the heap (laneevents + heappushes == events).
func BenchmarkEngineFleet(b *testing.B) {
	const writers = 100_000
	b.Run("tasks", func(b *testing.B) {
		b.ReportAllocs()
		peak := 0
		var st sim.Stats
		for i := 0; i < b.N; i++ {
			peak, st = runFleet(b, writers)
		}
		b.ReportMetric(float64(peak), "peakgoroutines")
		b.ReportMetric(float64(st.Scheduled), "events/op")
		b.ReportMetric(float64(st.LaneEvents), "laneevents/op")
		b.ReportMetric(float64(st.HeapPushes), "heappushes/op")
	})
}

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

// checkpointFleetShards replicates digestFleet's shard this many times
// for BenchmarkCheckpointFleet: about 100 ms of host time per run.
const checkpointFleetShards = 48

// BenchmarkCheckpointFleet runs digestFleet's jittered checkpointer fleet
// (TestShardFleetDigest) replicated over checkpointFleetShards file
// systems under one engine: the shard-fleet benchmark workload's shape,
// small. Every checkpoint is an IOR repetition whose ranks meet in MPI
// collectives around the write, so this is the gate on the collective
// path: allocs/op and B/op, and the engine's events/op (events
// scheduled), which a change to how ranks park and resume must leave
// exactly as it was.
func BenchmarkCheckpointFleet(b *testing.B) {
	doc := strings.Replace(digestFleet, "replicate: 3\n",
		"replicate: "+strconv.Itoa(checkpointFleetShards)+"\n", 1)
	f, err := scenariofile.Parse([]byte(doc), "checkpoint-fleet.yaml")
	if err != nil {
		b.Fatal(err)
	}
	if err := f.Validate(); err != nil {
		b.Fatal(err)
	}
	plat, err := f.BuildPlatform()
	if err != nil {
		b.Fatal(err)
	}
	scens, err := f.BuildScenarios()
	if err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	var st sim.Stats
	for i := 0; i < b.N; i++ {
		var eng *sim.Engine
		res, err := workload.RunShardedWith(plat, scens, workload.RunOptions{Parallelism: 1},
			func(shard int, sys *lustre.System) {
				f.InstrumentShard(shard)(sys)
				eng = sys.Engine()
			})
		if err != nil {
			b.Fatal(err)
		}
		if len(res.Shards) != checkpointFleetShards {
			b.Fatalf("ran %d shards, want %d", len(res.Shards), checkpointFleetShards)
		}
		st = eng.Stats()
	}
	b.ReportMetric(float64(st.Scheduled), "events/op")
}
