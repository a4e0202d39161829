package flow

import (
	"fmt"
	"math"
	"reflect"
	"strconv"
	"strings"
	"testing"
	"testing/quick"

	"pfsim/internal/sim"
)

func almost(a, b, tol float64) bool { return math.Abs(a-b) <= tol }

func TestSingleFlow(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	f := n.Start("xfer", 1000, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !f.Finished() {
		t.Fatal("flow did not finish")
	}
	if !almost(f.FinishedAt(), 10, 1e-9) {
		t.Errorf("finished at %v, want 10", f.FinishedAt())
	}
	if !almost(l.Carried(), 1000, 1e-6) {
		t.Errorf("carried %v, want 1000", l.Carried())
	}
	if l.Active() != 0 {
		t.Errorf("link still has %d active flows", l.Active())
	}
}

func TestFairSharing(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	f1 := n.Start("a", 1000, 0, l)
	f2 := n.Start("b", 500, 0, l)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// Both share 50 MB/s; b finishes at t=10 having moved 500; a then gets
	// 100 MB/s for its remaining 500: t = 10 + 5 = 15.
	if !almost(f2.FinishedAt(), 10, 1e-9) {
		t.Errorf("b finished at %v, want 10", f2.FinishedAt())
	}
	if !almost(f1.FinishedAt(), 15, 1e-9) {
		t.Errorf("a finished at %v, want 15", f1.FinishedAt())
	}
}

func TestMaxRateCap(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	slow := n.Start("slow", 100, 10, l) // capped at 10
	fast := n.Start("fast", 900, 0, l)  // gets the residual 90
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(slow.FinishedAt(), 10, 1e-9) {
		t.Errorf("slow finished at %v, want 10", slow.FinishedAt())
	}
	if !almost(fast.FinishedAt(), 10, 1e-9) {
		t.Errorf("fast finished at %v, want 10", fast.FinishedAt())
	}
}

func TestMultiLinkBottleneck(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	wide := n.NewLink("wide", Const(1000))
	narrow := n.NewLink("narrow", Const(10))
	f := n.Start("x", 100, 0, wide, narrow)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(f.FinishedAt(), 10, 1e-9) {
		t.Errorf("finished at %v, want 10 (narrow-bound)", f.FinishedAt())
	}
}

func TestMaxMinAcrossLinks(t *testing.T) {
	// Classic max-min: flows A (l1), B (l1,l2), C (l2).
	// l1 cap 100, l2 cap 40. B is bottlenecked on l2: B=C=20.
	// A then gets l1's residual: 80.
	e := sim.NewEngine()
	n := NewNet(e)
	l1 := n.NewLink("l1", Const(100))
	l2 := n.NewLink("l2", Const(40))
	a := n.Start("A", 1e6, 0, l1)
	b := n.Start("B", 1e6, 0, l1, l2)
	c := n.Start("C", 1e6, 0, l2)
	n.Recompute()
	if !almost(b.Rate(), 20, 1e-9) || !almost(c.Rate(), 20, 1e-9) {
		t.Errorf("B,C rates = %v,%v, want 20,20", b.Rate(), c.Rate())
	}
	if !almost(a.Rate(), 80, 1e-9) {
		t.Errorf("A rate = %v, want 80", a.Rate())
	}
	e.Stop()
}

func TestZeroSizeFlowCompletesImmediately(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	f := n.Start("empty", 0, 0, l)
	if !f.Finished() {
		t.Error("zero-size flow should finish immediately")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestPathlessCappedFlow(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	f := n.Start("direct", 100, 25)
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(f.FinishedAt(), 4, 1e-9) {
		t.Errorf("finished at %v, want 4", f.FinishedAt())
	}
}

func TestPathlessUncappedPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for pathless uncapped flow")
		}
	}()
	e := sim.NewEngine()
	NewNet(e).Start("bad", 100, 0)
}

func TestNegativeSizePanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Error("want panic for negative size")
		}
	}()
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(1))
	n.Start("bad", -5, 0, l)
}

// TestAdmitRejectsNonFiniteSpecs: an infinite size, or a NaN or infinite
// rate cap, is a caller bug that would poison every share on the flow's
// links; admission panics naming the flow instead.
func TestAdmitRejectsNonFiniteSpecs(t *testing.T) {
	for _, tc := range []struct {
		name          string
		size, maxRate float64
	}{
		{"infinite-size", math.Inf(1), 0},
		{"nan-cap", 100, math.NaN()},
		{"infinite-cap", 100, math.Inf(1)},
		{"negative-infinite-cap", 100, math.Inf(-1)},
	} {
		t.Run(tc.name, func(t *testing.T) {
			defer func() {
				msg, _ := recover().(string)
				if !strings.Contains(msg, strconv.Quote(tc.name)) {
					t.Errorf("panic %q does not name flow %q", msg, tc.name)
				}
			}()
			n := NewNet(sim.NewEngine())
			n.Start(tc.name, tc.size, tc.maxRate, n.NewLink("pipe", Const(1)))
		})
	}
}

func TestThrashModel(t *testing.T) {
	th := Thrash{Base: 288, Gamma: 0.01}
	if got := th.Capacity(1); got != 288 {
		t.Errorf("k=1: %v", got)
	}
	if got := th.Capacity(16); !almost(got, 288/1.15, 1e-9) {
		t.Errorf("k=16: %v, want %v", got, 288/1.15)
	}
	if got := th.Capacity(0); got != 288 {
		t.Errorf("k=0: %v", got)
	}
}

func TestThrashLinkDegradation(t *testing.T) {
	// Two streams on a thrashing link: each gets Base/(1+g) / 2.
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("ost", Thrash{Base: 100, Gamma: 0.5})
	a := n.Start("a", 1e6, 0, l)
	b := n.Start("b", 1e6, 0, l)
	n.Recompute()
	want := 100 / 1.5 / 2
	if !almost(a.Rate(), want, 1e-9) || !almost(b.Rate(), want, 1e-9) {
		t.Errorf("rates %v,%v want %v", a.Rate(), b.Rate(), want)
	}
	e.Stop()
}

func TestDynamicCapacityChange(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	f := n.Start("x", 1000, 0, l)
	e.Schedule(5, func() {
		// After 500 MB at 100 MB/s, throttle to 25 MB/s.
		l.SetModel(Const(25))
		n.Recompute()
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// The flow moved 500 MB by t=5, then drains 500 MB at 25 MB/s: t=25.
	if !almost(f.FinishedAt(), 25, 1e-6) {
		t.Errorf("finished at %v, want 25", f.FinishedAt())
	}
}

func TestSimultaneousCompletionsBatch(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	var flows []*Flow
	for i := 0; i < 10; i++ {
		flows = append(flows, n.Start(fmt.Sprintf("f%d", i), 100, 0, l))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !almost(f.FinishedAt(), 10, 1e-9) {
			t.Errorf("%s finished at %v, want 10", f.Name(), f.FinishedAt())
		}
	}
	if n.ActiveFlows() != 0 {
		t.Errorf("%d flows still active", n.ActiveFlows())
	}
}

func TestTransferAndWait(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(50))
	var took float64
	e.StartTask(0, "client", -1, func(tk *sim.Task) {
		start := tk.Now()
		xfer := n.StartBatch([]FlowSpec{{Name: "xfer", SizeMB: 500, Path: []*Link{l}}})
		xfer.Await(tk, func() {
			took = tk.Now() - start
			tk.Finish()
		})
	})
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	if !almost(took, 10, 1e-9) {
		t.Errorf("transfer took %v, want 10", took)
	}
}

// TestConservation: total bytes carried equals sum of flow sizes, and no
// link ever exceeds its capacity (checked via completion times).
func TestConservationProperty(t *testing.T) {
	f := func(sizes []uint16, capRaw uint16) bool {
		if len(sizes) == 0 || len(sizes) > 24 {
			return true
		}
		capacity := float64(capRaw%1000) + 1
		e := sim.NewEngine()
		n := NewNet(e)
		l := n.NewLink("pipe", Const(capacity))
		total := 0.0
		var flows []*Flow
		for i, s := range sizes {
			size := float64(s%5000) + 1
			total += size
			flows = append(flows, n.Start(fmt.Sprintf("f%d", i), size, 0, l))
		}
		if err := e.Run(); err != nil {
			return false
		}
		// Link can't move data faster than capacity: last completion must be
		// at or after total/capacity (within tolerance).
		last := 0.0
		for _, fl := range flows {
			if !fl.Finished() {
				return false
			}
			if fl.FinishedAt() > last {
				last = fl.FinishedAt()
			}
		}
		if last < total/capacity-1e-6 {
			return false
		}
		return almost(l.Carried(), total, 1e-3*total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 60}); err != nil {
		t.Error(err)
	}
}

// TestWorkConservingProperty: a single uncapped flow on one link always
// finishes in exactly size/capacity.
func TestWorkConservingProperty(t *testing.T) {
	f := func(sizeRaw, capRaw uint16) bool {
		size := float64(sizeRaw%10000) + 1
		capacity := float64(capRaw%2000) + 1
		e := sim.NewEngine()
		n := NewNet(e)
		l := n.NewLink("pipe", Const(capacity))
		fl := n.Start("x", size, 0, l)
		if err := e.Run(); err != nil {
			return false
		}
		return almost(fl.FinishedAt(), size/capacity, 1e-6*(size/capacity))
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}

func TestStaggeredArrivals(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(100))
	var f1, f2 *Flow
	f1 = n.Start("first", 1000, 0, l)
	e.Schedule(5, func() { f2 = n.Start("second", 250, 0, l) })
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	// f1 runs alone [0,5] moving 500. Then shares 50/50: f2 needs 5s
	// (finishes t=10, moving 250), f1 has 250 left at t=10, finishes t=12.5.
	if !almost(f2.FinishedAt(), 10, 1e-6) {
		t.Errorf("second finished at %v, want 10", f2.FinishedAt())
	}
	if !almost(f1.FinishedAt(), 12.5, 1e-6) {
		t.Errorf("first finished at %v, want 12.5", f1.FinishedAt())
	}
}

func TestManyFlowsAcrossTopology(t *testing.T) {
	// Star topology: per-client NIC 100, shared backbone 250, 4 clients.
	// Backbone is the bottleneck: each client gets 62.5.
	e := sim.NewEngine()
	n := NewNet(e)
	backbone := n.NewLink("backbone", Const(250))
	var flows []*Flow
	for i := 0; i < 4; i++ {
		nic := n.NewLink(fmt.Sprintf("nic%d", i), Const(100))
		flows = append(flows, n.Start(fmt.Sprintf("c%d", i), 625, 0, nic, backbone))
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
	for _, f := range flows {
		if !almost(f.FinishedAt(), 10, 1e-6) {
			t.Errorf("%s finished at %v, want 10", f.Name(), f.FinishedAt())
		}
	}
}

func TestHeterogeneousFairness(t *testing.T) {
	// 2 clients with NIC 30 (capped below fair share) + 2 with NIC 200 on a
	// backbone of 260: capped pair gets 30 each, the rest split 200/2=100.
	e := sim.NewEngine()
	n := NewNet(e)
	backbone := n.NewLink("bb", Const(260))
	rates := map[string]float64{}
	var flows []*Flow
	for i := 0; i < 4; i++ {
		capc := 200.0
		if i < 2 {
			capc = 30
		}
		nic := n.NewLink(fmt.Sprintf("nic%d", i), Const(capc))
		flows = append(flows, n.Start(fmt.Sprintf("c%d", i), 1e6, 0, nic, backbone))
	}
	n.Recompute()
	for _, f := range flows {
		rates[f.Name()] = f.Rate()
	}
	if !almost(rates["c0"], 30, 1e-9) || !almost(rates["c1"], 30, 1e-9) {
		t.Errorf("capped rates = %v,%v want 30", rates["c0"], rates["c1"])
	}
	if !almost(rates["c2"], 100, 1e-9) || !almost(rates["c3"], 100, 1e-9) {
		t.Errorf("uncapped rates = %v,%v want 100", rates["c2"], rates["c3"])
	}
	e.Stop()
}

func TestFlowAccessors(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l := n.NewLink("pipe", Const(10))
	f := n.Start("x", 100, 0, l)
	if f.Name() != "x" || f.Size() != 100 || f.Remaining() != 100 {
		t.Errorf("accessors wrong: %s %v %v", f.Name(), f.Size(), f.Remaining())
	}
	if f.Started() != 0 {
		t.Errorf("started = %v", f.Started())
	}
	if l.Name() != "pipe" {
		t.Errorf("link name = %s", l.Name())
	}
	if _, ok := l.Model().(Const); !ok {
		t.Errorf("model type unexpected")
	}
	if err := e.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestCheckInvariants(t *testing.T) {
	e := sim.NewEngine()
	n := NewNet(e)
	l1 := n.NewLink("l1", Const(100))
	l2 := n.NewLink("l2", Const(40))
	n.Start("A", 1e6, 0, l1)
	n.Start("B", 1e6, 0, l1, l2)
	n.Start("C", 1e6, 25, l2)
	n.Recompute()
	if err := n.CheckInvariants(); err != nil {
		t.Errorf("consistent allocation flagged: %v", err)
	}
	e.Stop()
}

// TestLinkSets: a NewLinks member is named its set's prefix and index,
// hasLink finds members by name, and every name clash panics as a
// NewLink duplicate does: a NewLink name inside a set, a set over a
// NewLink name, and two sets that share a member.
func TestLinkSets(t *testing.T) {
	n := NewNet(sim.NewEngine())
	nics := n.NewLinks("nic", 12, Const(10))
	if len(nics) != 12 {
		t.Fatalf("NewLinks made %d links, want 12", len(nics))
	}
	for i, l := range nics {
		if got, want := l.Name(), "nic"+strconv.Itoa(i); got != want {
			t.Errorf("member %d is named %q, want %q", i, got, want)
		}
	}
	n.NewLink("backbone", Const(100))
	n.NewLink("oss3", Const(100))
	for _, name := range []string{"nic0", "nic7", "nic11", "backbone", "oss3"} {
		if !n.hasLink(name) {
			t.Errorf("hasLink(%q) = false", name)
		}
	}
	for _, name := range []string{"nic", "nic12", "nic01", "nic-1", "nic+1", "nic1x", "ni", "backbone0", "oss"} {
		if n.hasLink(name) {
			t.Errorf("hasLink(%q) = true", name)
		}
	}
	for _, ok := range []struct {
		prefix string
		count  int
	}{{"nic2", 1}, {"ni", 5}, {"x1", 5}, {"x", 10}, {"x0", 3}, {"y1", 5}} {
		n.NewLinks(ok.prefix, ok.count, Const(1))
	}
	for _, clash := range []struct {
		what string
		add  func()
	}{
		{"a NewLink name inside a set", func() { n.NewLink("nic7", Const(1)) }},
		{"a set over a NewLink name", func() { n.NewLinks("oss", 4, Const(1)) }},
		{"a set with a taken prefix", func() { n.NewLinks("nic", 1, Const(1)) }},
		{"a set extending a set's prefix into its range", func() { n.NewLinks("nic1", 1, Const(1)) }},
		{"a set whose range covers a longer prefix's set", func() { n.NewLinks("y", 11, Const(1)) }},
	} {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s did not panic", clash.what)
				}
			}()
			clash.add()
		}()
	}
	// The clashing sets were refused whole: "oss" stops short of oss3.
	n.NewLinks("oss", 3, Const(1))
	if got := n.NewLinks("empty", 0, Const(1)); got != nil || n.hasLink("empty0") {
		t.Errorf("an empty set made links %v", got)
	}
}

// TestCheckMaxMinRejectsZeroedRate: zeroing one flow's rate after a solve
// leaves a feasible allocation, which the max-min certificate must reject
// whichever solver produced the rates.
func TestCheckMaxMinRejectsZeroedRate(t *testing.T) {
	for _, reference := range []bool{false, true} {
		e := sim.NewEngine()
		n := NewNet(e)
		n.UseReferenceSolver(reference)
		l1 := n.NewLink("l1", Const(100))
		l2 := n.NewLink("l2", Thrash{Base: 40, Gamma: 0.1})
		n.Start("A", 1e6, 0, l1)
		b := n.Start("B", 1e6, 0, l1, l2)
		n.Start("C", 1e6, 25, l2)
		n.Start("D", 1e6, 5, l2)
		n.Recompute()
		if err := n.CheckMaxMin(); err != nil {
			t.Fatalf("reference=%v: max-min allocation flagged: %v", reference, err)
		}
		b.rate = 0
		if err := n.CheckMaxMin(); err == nil {
			t.Errorf("reference=%v: allocation with B zeroed passed the certificate", reference)
		}
		e.Stop()
	}
}

func TestCheckInvariantsRandomised(t *testing.T) {
	// Random star topologies must always satisfy the allocation
	// invariants after progressive filling.
	for seed := 0; seed < 25; seed++ {
		e := sim.NewEngine()
		n := NewNet(e)
		backbone := n.NewLink("bb", Const(float64(50+seed*37%400)))
		nFlows := 3 + seed%9
		for i := 0; i < nFlows; i++ {
			nic := n.NewLink(fmt.Sprintf("nic%d", i), Const(float64(20+(seed*i)%150)))
			cap := 0.0
			if i%3 == 0 {
				cap = float64(5 + i*7)
			}
			n.Start(fmt.Sprintf("f%d", i), 1e5, cap, nic, backbone)
		}
		n.Recompute()
		if err := n.CheckInvariants(); err != nil {
			t.Fatalf("seed %d: %v", seed, err)
		}
		e.Stop()
	}
}

// TestStatsAddCoversEveryField: Stats.Add sums every counter, so a field
// added to Stats without a line in Add fails here.
func TestStatsAddCoversEveryField(t *testing.T) {
	var one, sum Stats
	v := reflect.ValueOf(&one).Elem()
	for i := 0; i < v.NumField(); i++ {
		v.Field(i).SetInt(int64(i + 1))
	}
	sum.Add(one)
	sum.Add(one)
	got := reflect.ValueOf(sum)
	for i := 0; i < got.NumField(); i++ {
		if got.Field(i).Int() != 2*int64(i+1) {
			t.Errorf("Add sums %s to %d, want %d", got.Type().Field(i).Name, got.Field(i).Int(), 2*(i+1))
		}
	}
}
