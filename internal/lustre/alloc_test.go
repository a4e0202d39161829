package lustre

import (
	"math"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// TestNewSystemAllocs: building Cab's file system — 1,200 NICs, 32 OSS
// links and 480 OSTs with their capacity models — is a few dozen
// allocations, not several per link: each kind of link is one slab named
// on read, the NICs and OSS links share one boxed capacity per kind, and
// the OSTs and their models are a slab each. One allocation per link
// would add more than 1,700.
func TestNewSystemAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	plat := cluster.Cab()
	rng := stats.NewRNG(plat.Seed)
	allocs := testing.AllocsPerRun(10, func() {
		MustNewSystem(sim.NewEngine(), plat, rng)
	})
	t.Logf("a Cab build allocates %v times", allocs)
	if allocs > 40 {
		t.Errorf("a Cab build allocates %v times, want at most 40", allocs)
	}
}

// TestThrashTableMatchesPenalty: the per-system penalty table returns
// cluster.ClassParams.Penalty's bits for every class and every job count
// from 0 to 8,192, whether a row is grown by one large read or read back
// after growing.
func TestThrashTableMatchesPenalty(t *testing.T) {
	plat := cluster.Cab()
	tab := thrashTable{plat: plat}
	const maxJobs = 8192
	for class := range plat.Class {
		want := func(jobs int) uint64 { return math.Float64bits(plat.Class[class].Penalty(float64(jobs))) }
		if got := math.Float64bits(tab.penalty(class, maxJobs)); got != want(maxJobs) {
			t.Errorf("class %d, %d jobs: penalty bits %x, want %x", class, maxJobs, got, want(maxJobs))
		}
		for jobs := maxJobs; jobs >= 0; jobs-- {
			if got := math.Float64bits(tab.penalty(class, jobs)); got != want(jobs) {
				t.Fatalf("class %d, %d jobs: penalty bits %x, want %x", class, jobs, got, want(jobs))
			}
		}
	}
	// A fresh table grown one job at a time agrees too.
	tab = thrashTable{plat: plat}
	for class := range plat.Class {
		for jobs := 0; jobs <= maxJobs; jobs++ {
			if got, want := tab.penalty(class, jobs), plat.Class[class].Penalty(float64(jobs)); math.Float64bits(got) != math.Float64bits(want) {
				t.Fatalf("class %d, %d jobs grown in order: penalty %v, want %v", class, jobs, got, want)
			}
		}
	}
}
