package workload

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"math"
	"os"
	"runtime"
	"strings"
	"testing"
	"time"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
)

// dispatchScenario mixes every converted execution path in one scenario:
// a collective write+read job (ad_lustre aggregators, ReadAll), a
// file-per-process job (per-rank communicator splits and private files),
// an independent writer (WriteIndependent), and a PLFS logger (container
// create, per-rank logs, index compaction). Staggered starts keep the
// jobs genuinely contending rather than phase-locked.
func dispatchScenario() Scenario {
	coll := ior.PaperConfig(8)
	coll.Label = "collective"
	coll.SegmentCount = 2
	coll.Reps = 2
	coll.ReadFile = true

	fpp := ior.PaperConfig(8)
	fpp.Label = "fpp"
	fpp.FilePerProc = true
	fpp.SegmentCount = 2
	fpp.Reps = 1

	indep := ior.PaperConfig(8)
	indep.Label = "independent"
	indep.Collective = false
	indep.SegmentCount = 2
	indep.Reps = 1

	return NewScenario("dispatch",
		Job{Workload: IORJob{Cfg: coll}},
		Job{Workload: IORJob{Cfg: fpp}, StartAt: 0.5},
		Job{Workload: IORJob{Cfg: indep}, StartAt: 1},
		Job{Workload: PLFSLogger{Ranks: 8, MBPerRank: 64, TransferMB: 8}, StartAt: 0.25},
	)
}

// updateGolden rewrites testdata/dispatch.golden from the current code
// instead of checking against it: go test ./internal/workload -run
// TestDispatchModesBitIdentical -update.
var updateGolden = flag.Bool("update", false, "rewrite testdata/dispatch.golden")

const dispatchGolden = "testdata/dispatch.golden"

// dispatchFingerprint renders one run of dispatchScenario as a single
// golden line: the exact bits of the makespan and of every job's finish
// time, mean write and read bandwidth, the OST layouts, and the full
// flow.Stats struct.
func dispatchFingerprint(mode string, res *Result) string {
	var b strings.Builder
	fmt.Fprintf(&b, "%s makespan=%016x", mode, math.Float64bits(res.Makespan))
	for i := range res.Jobs {
		j := &res.Jobs[i]
		fmt.Fprintf(&b, " | %s finish=%016x write=%016x read=%016x layouts=%v",
			j.Label, math.Float64bits(j.FinishedAt), math.Float64bits(j.WriteMBs()),
			math.Float64bits(j.IOR.Read.Mean()), j.IOR.LayoutOSTs)
	}
	fmt.Fprintf(&b, " | stats=%+v", res.Work.Flow)
	return b.String()
}

// TestDispatchModesBitIdentical pins dispatchScenario to an absolute
// golden: each solver mode must reproduce its recorded line bit for bit.
// The scenario is the only one that drives collective reads,
// file-per-process splits, independent writes and a PLFS logger together,
// so the golden is what guards those paths.
func TestDispatchModesBitIdentical(t *testing.T) {
	plat := cluster.Cab()
	sc := dispatchScenario()
	modes := []struct {
		name      string
		reference bool
	}{{"incremental", false}, {"reference", true}}
	var got []string
	for _, m := range modes {
		res, err := RunScenario(plat, sc, 0,
			func(sys *lustre.System) { sys.Net().UseReferenceSolver(m.reference) })
		if err != nil {
			t.Fatalf("%s: %v", m.name, err)
		}
		got = append(got, dispatchFingerprint(m.name, res))
	}
	text := strings.Join(got, "\n") + "\n"
	if *updateGolden {
		if err := os.WriteFile(dispatchGolden, []byte(text), 0o644); err != nil {
			t.Fatal(err)
		}
		return
	}
	want, err := os.ReadFile(dispatchGolden)
	if err != nil {
		t.Fatal(err)
	}
	wantLines := strings.Split(strings.TrimSuffix(string(want), "\n"), "\n")
	if len(wantLines) != len(got) {
		t.Fatalf("%s has %d lines, want %d", dispatchGolden, len(wantLines), len(got))
	}
	for i := range got {
		if got[i] != wantLines[i] {
			t.Errorf("%s drifted:\n got %s\nwant %s", modes[i].name, got[i], wantLines[i])
		}
	}
}

// TestDispatchCancelLeavesNoGoroutines: a run cancelled mid-flight must
// surface ctx.Err() and leave nothing behind — parked inline tasks own no
// goroutine, so abandoning the stopped engine returns the goroutine count
// to its baseline.
func TestDispatchCancelLeavesNoGoroutines(t *testing.T) {
	plat := cluster.Cab()
	sc := dispatchScenario()
	full, err := RunScenario(plat, sc, 0)
	if err != nil {
		t.Fatal(err)
	}
	if full.Makespan <= 2 {
		t.Fatalf("scenario too short (%v s) to cancel mid-run", full.Makespan)
	}
	ctx, cancel := context.WithCancel(context.Background())
	defer cancel()
	goroutines := runtime.NumGoroutine()
	var stoppedAt float64
	res, err := RunScenarioWith(plat, sc, RunOptions{Ctx: ctx},
		func(sys *lustre.System) {
			sys.Engine().Schedule(1, func() {
				cancel()
				stoppedAt = sys.Engine().Now()
			})
		})
	if !errors.Is(err, context.Canceled) {
		t.Fatalf("err = %v, want context.Canceled", err)
	}
	if res != nil {
		t.Error("cancelled run returned a partial result")
	}
	if stoppedAt == 0 {
		t.Error("cancel event never fired: engine did not reach t=1")
	}
	// Tasks park no goroutines, but the solver pool and runtime still reap
	// asynchronously — poll briefly like the sharded cancellation test does.
	deadline := time.Now().Add(10 * time.Second)
	for runtime.NumGoroutine() > goroutines {
		if time.Now().After(deadline) {
			t.Fatalf("cancelled run leaked goroutines: %d before, %d after",
				goroutines, runtime.NumGoroutine())
		}
		runtime.Gosched()
		time.Sleep(time.Millisecond)
	}
}
