package lustre

import (
	"math"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
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

// mdsClient is a task that creates a file and stats it, once per round,
// through continuations bound once.
type mdsClient struct {
	m         *MDS
	t         *sim.Task
	files     int
	onCreated func(*File, error)
	onStat    func()
}

func (c *mdsClient) round() {
	c.m.CreateK(c.t, DefaultSpec(), c.onCreated)
	c.m.StatK(c.t, c.onStat)
	if err := c.t.Engine().Run(); err != nil {
		panic(err)
	}
}

// TestMDSCreateStatAllocs: a create and a stat at the metadata server
// allocate only the new file's record and its OST list, once the
// server's queues have grown: the create's spec and continuation wait in
// the server's own queue, its hold in the resource's, and the server
// resumes them through methods bound once.
func TestMDSCreateStatAllocs(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eng := sim.NewEngine()
	sys := MustNewSystem(eng, cluster.Cab(), stats.NewRNG(3))
	c := &mdsClient{m: sys.MDS()}
	c.onCreated = func(f *File, err error) {
		if err != nil {
			panic(err)
		}
		c.files++
	}
	c.onStat = func() {}
	eng.StartTask(0, "client", -1, func(tk *sim.Task) { c.t = tk })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	c.round()
	allocs := testing.AllocsPerRun(100, c.round)
	if c.files != 102 {
		t.Fatalf("%d files created over 102 rounds", c.files)
	}
	if allocs != 2 {
		t.Errorf("a create and a stat allocate %v times, want 2 (the file and its OST list)", allocs)
	}
	c.t.Finish()
}

// TestStartWritesAllocsPerStream: each stream StartWrites adds costs one
// allocation, its flow's record. The streams, the flow specs and the
// paths are a slab each per batch, and each stream is its own flow's
// completion hook, so a batch's other allocations do not grow with it.
// The one other growth is the solver component's flow list, which
// doubles three more times for 64 streams than for 8: 3/56 of an
// allocation per added stream, inside the bound of 1.1.
func TestStartWritesAllocsPerStream(t *testing.T) {
	if raceEnabled {
		t.Skip("race detector instrumentation allocates")
	}
	eng := sim.NewEngine()
	sys := MustNewSystem(eng, cluster.Cab(), stats.NewRNG(3))
	via := sys.Net().NewLink("agg", flow.Const(1000))
	batch := func(n int) float64 {
		reqs := make([]WriteReq, n)
		for i := range reqs {
			reqs[i] = WriteReq{Name: "w", SizeMB: 1, OST: sys.OST(3 * i), Node: i % 4,
				Class: cluster.ClassCollective, FileID: 1, RPCMB: 1, Via: via}
		}
		return testing.AllocsPerRun(10, func() {
			sys.StartWrites(reqs)
			if err := eng.Run(); err != nil {
				panic(err)
			}
		})
	}
	batch(64) // grows the solver's scratch and the OSTs' job lists
	small, large := batch(8), batch(64)
	perStream := (large - small) / (64 - 8)
	t.Logf("a batch allocates %v times with 8 streams, %v with 64: %v per added stream", small, large, perStream)
	if perStream > 1.1 {
		t.Errorf("%v allocations per added stream, want 1 (its flow's record)", perStream)
	}
}
