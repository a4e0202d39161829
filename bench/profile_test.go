package main

import (
	"math"
	"os"
	"strings"
	"testing"
)

// TestLayerShares buckets a canned `go tool pprof -traces` listing:
// container/heap and runtime.memmove count toward their pfsim caller,
// allocation, GC and scheduler frames toward runtime, pfsim packages
// without a layer of their own and pfsim-free stacks toward other.
func TestLayerShares(t *testing.T) {
	f, err := os.Open("testdata/traces.txt")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	shares, err := layerShares(f)
	if err != nil {
		t.Fatal(err)
	}
	const total = 2.45 // seconds sampled in the fixture
	want := map[string]float64{
		"sim":     0.35, // container/heap under Engine.RunUntil; a map write under an inlined Signal.Await
		"runtime": 0.45, // mallocgc, a GC mark worker, a write barrier, the scheduler
		"flow":    0.2,  // memmove under solveComponent
		"runner":  0.25, // pool workers and the root Runner
		"mpi":     1.0,
		"other":   0.2, // the benchmark's own hashing, and pfsim/internal/stats
	}
	sum := 0.0
	for _, l := range cpuLayers {
		got, ok := shares[l]
		if !ok {
			t.Errorf("layer %s missing", l)
		}
		if w := want[l] / total; math.Abs(got-w) > 1e-9 {
			t.Errorf("%s share %.4f, want %.4f", l, got, w)
		}
		sum += got
	}
	if math.Abs(sum-1) > 1e-9 {
		t.Errorf("shares sum to %v, want 1", sum)
	}
	if len(shares) != len(cpuLayers) {
		t.Errorf("%d shares for %d layers: %v", len(shares), len(cpuLayers), shares)
	}
}

func TestLayerSharesRejectsGarbage(t *testing.T) {
	for _, in := range []string{
		"",
		"Type: cpu\n-----------+----\n   lots   main.main\n",
	} {
		if _, err := layerShares(strings.NewReader(in)); err == nil {
			t.Errorf("%q: no error", in)
		}
	}
}

func TestLayerOf(t *testing.T) {
	for fn, want := range map[string]string{
		"pfsim/internal/flow.(*Net).flushWork.func1":                      "flow",
		"pfsim/internal/pool.Run[go.shape.struct { pfsim/internal/x.y }]": "runner",
		"pfsim/internal/sweep.Exhaustive":                                 "runner",
		"pfsim.(*Runner).Run":                                             "runner",
		"pfsim/internal/core.LoadTable":                                   "other",
		"container/heap.Pop":                                              "",
		"main.main":                                                       "",
	} {
		if got := layerOf(fn); got != want {
			t.Errorf("layerOf(%q) = %q, want %q", fn, got, want)
		}
	}
}
