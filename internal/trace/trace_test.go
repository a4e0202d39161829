package trace

import (
	"math"
	"strings"
	"testing"

	"pfsim/internal/flow"
	"pfsim/internal/sim"
)

func build(t *testing.T) (*sim.Engine, *flow.Net, *Recorder) {
	t.Helper()
	e := sim.NewEngine()
	n := flow.NewNet(e)
	r := &Recorder{}
	r.Attach(n)
	return e, n, r
}

func TestRecorderCapturesFlows(t *testing.T) {
	e, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	n.Start("a", 1000, 0, l)
	n.Start("b", 500, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 2 {
		t.Fatalf("records = %d", r.Len())
	}
	if r.TotalMB() != 1500 {
		t.Errorf("total = %v", r.TotalMB())
	}
	if r.MaxConcurrent() != 2 {
		t.Errorf("max concurrent = %d", r.MaxConcurrent())
	}
	start, end := r.Makespan()
	if start != 0 || math.Abs(end-15) > 1e-9 {
		t.Errorf("makespan = (%v,%v), want (0,15)", start, end)
	}
	// b finishes first (t=10, mean 50); a second (t=15, mean 66.7).
	recs := r.Records()
	if recs[0].Name != "b" || math.Abs(recs[0].MeanMBs-50) > 1e-9 {
		t.Errorf("first record = %+v", recs[0])
	}
	if recs[1].Name != "a" || math.Abs(recs[1].MeanMBs-1000.0/15) > 1e-9 {
		t.Errorf("second record = %+v", recs[1])
	}
}

func TestSlowest(t *testing.T) {
	e, n, r := build(t)
	fast := n.NewLink("fast", flow.Const(1000))
	slow := n.NewLink("slow", flow.Const(10))
	n.Start("quick", 100, 0, fast)
	n.Start("laggard", 100, 0, slow)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	worst := r.Slowest(1)
	if len(worst) != 1 || worst[0].Name != "laggard" {
		t.Errorf("slowest = %+v", worst)
	}
	all := r.Slowest(99)
	if len(all) != 2 {
		t.Errorf("Slowest(99) = %d records", len(all))
	}
}

func TestTimeline(t *testing.T) {
	e, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	n.Start("x", 1000, 0, l) // runs [0,10] at 100 MB/s
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first, tl := r.Timeline(1)
	if first != 0 || len(tl) < 10 {
		t.Fatalf("timeline = first %d, %d buckets", first, len(tl))
	}
	for b := 0; b < 10; b++ {
		if math.Abs(tl[b]-100) > 1e-6 {
			t.Errorf("bucket %d = %v, want 100", b, tl[b])
		}
	}
	if _, tl := r.Timeline(0); tl != nil {
		t.Error("zero-dt timeline should be nil")
	}
	empty := &Recorder{}
	if _, tl := empty.Timeline(1); tl != nil {
		t.Error("empty timeline should be nil")
	}
}

// TestTimelineStartsAtFirstTransfer: a run whose first transfer starts
// late reports from the bucket holding that start, on the grid anchored
// at t=0, not a row per idle bucket before it.
func TestTimelineStartsAtFirstTransfer(t *testing.T) {
	e, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	e.ScheduleAt(600.5, func() { n.Start("x", 1000, 0, l) }) // runs [600.5,610.5]
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	first, tl := r.Timeline(1)
	if first != 600 || len(tl) != 11 {
		t.Fatalf("timeline = first %d, %d buckets; want first 600, 11 buckets", first, len(tl))
	}
	for b, want := range []float64{50, 100, 100, 100, 100, 100, 100, 100, 100, 100, 50} {
		if math.Abs(tl[b]-want) > 1e-6 {
			t.Errorf("bucket %d = %v, want %v", first+b, tl[b], want)
		}
	}
}

func TestZeroSizeFlowRecorded(t *testing.T) {
	e, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	n.Start("empty", 0, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if r.Len() != 1 {
		t.Fatalf("records = %d", r.Len())
	}
	if r.Records()[0].MeanMBs != 0 {
		t.Errorf("instantaneous flow should have zero mean rate")
	}
	if r.MaxConcurrent() != 1 {
		t.Errorf("max concurrent = %d", r.MaxConcurrent())
	}
}

func TestWriteCSV(t *testing.T) {
	e, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	n.Start("x", 200, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	var b strings.Builder
	if err := r.WriteCSV(&b); err != nil {
		t.Fatal(err)
	}
	out := b.String()
	if !strings.HasPrefix(out, "name,start_s,end_s,size_mb,mean_mbs\n") {
		t.Errorf("missing header:\n%s", out)
	}
	if !strings.Contains(out, "x,0.000000,2.000000,200.000,100.000") {
		t.Errorf("missing record:\n%s", out)
	}
}

func TestMakespanEmpty(t *testing.T) {
	r := &Recorder{}
	if s, e := r.Makespan(); s != 0 || e != 0 {
		t.Errorf("empty makespan = (%v,%v)", s, e)
	}
}

// TestMaxConcurrentSolverModeIdentical: at an instant where completions
// and arrivals coincide, the incremental solver delivers finish callbacks
// in a different order than the eager reference solver. Instant-boundary
// sampling must report the same peak either way: flows open at the
// instant's entry plus flows started during it.
func TestMaxConcurrentSolverModeIdentical(t *testing.T) {
	run := func(reference bool) (*Recorder, int) {
		e, n, r := build(t)
		n.UseReferenceSolver(reference)
		l := n.NewLink("pipe", flow.Const(100))
		short := n.StartBatch([]flow.FlowSpec{{Name: "short", SizeMB: 100, Path: []*flow.Link{l}}}) // drains at t=2 under fair share
		n.Start("long", 900, 0, l)
		// Two arrivals (one instantaneous) at the exact completion instant.
		e.StartTask(0, "chain", -1, func(tk *sim.Task) {
			short.Await(tk, func() {
				n.Start("late", 50, 0, l)
				n.Start("blip", 0, 0, l)
				tk.Finish()
			})
		})
		if err := e.Run(); err != nil {
			t.Fatal(err)
		}
		return r, r.MaxConcurrent()
	}
	_, inc := run(false)
	_, ref := run(true)
	if inc != ref {
		t.Fatalf("MaxConcurrent diverges between solver modes: incremental %d vs reference %d", inc, ref)
	}
	// At the completion instant: short and long are open at entry, late
	// and blip start during it -> 4 alive.
	if inc != 4 {
		t.Errorf("MaxConcurrent = %d, want 4", inc)
	}
}

// TestMaxConcurrentMidRun: the still-open current instant counts without
// waiting for the next boundary.
func TestMaxConcurrentMidRun(t *testing.T) {
	_, n, r := build(t)
	l := n.NewLink("pipe", flow.Const(100))
	n.Start("a", 1000, 0, l)
	n.Start("b", 1000, 0, l)
	if r.MaxConcurrent() != 2 {
		t.Errorf("mid-run MaxConcurrent = %d, want 2", r.MaxConcurrent())
	}
}
