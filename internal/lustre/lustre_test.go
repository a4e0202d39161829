package lustre

import (
	"fmt"
	"math"
	"strings"
	"testing"
	"testing/quick"

	"pfsim/internal/cluster"
	"pfsim/internal/flow"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

func testPlat() *cluster.Platform {
	p := cluster.Cab()
	p.JitterCV = 0 // deterministic capacities for exact assertions
	return p
}

func newSys(t *testing.T, plat *cluster.Platform) (*sim.Engine, *System) {
	t.Helper()
	eng := sim.NewEngine()
	sys, err := NewSystem(eng, plat, stats.NewRNG(42))
	if err != nil {
		t.Fatal(err)
	}
	return eng, sys
}

// newStream registers a stream of its own on o.
func newStream(o *OST, class cluster.StreamClass, fileID int, rpcMB float64) *Stream {
	st := &Stream{}
	o.addStream(st, class, fileID, rpcMB)
	return st
}

// startedFlows collects the flows a net admits, in admission order.
type startedFlows []*flow.Flow

func (s *startedFlows) FlowStarted(f *flow.Flow) { *s = append(*s, f) }
func (s *startedFlows) FlowFinished(*flow.Flow)  {}

// observeStarts installs a startedFlows observer on sys's net.
func observeStarts(sys *System) *startedFlows {
	s := &startedFlows{}
	sys.Net().Observe(s)
	return s
}

func TestTopology(t *testing.T) {
	_, sys := newSys(t, testPlat())
	if sys.NumOSTs() != 480 {
		t.Fatalf("OSTs = %d", sys.NumOSTs())
	}
	// OST→OSS mapping matches the platform.
	for i := 0; i < 480; i += 37 {
		if got, want := sys.OST(i).OSS(), sys.Platform().OSSOf(i); got != want {
			t.Errorf("OST %d on OSS %d, want %d", i, got, want)
		}
	}
	// A write crosses its Via links, then node NIC → backbone → hosting
	// OSS → OST, and nothing else.
	via := sys.Net().NewLink("via", flow.Const(100))
	ost := sys.OST(100)
	sys.StartWrites([]WriteReq{{Name: "w", SizeMB: 1, OST: ost, Node: 3, RPCMB: 1, Via: via}})
	for _, l := range []*flow.Link{via, sys.NIC(3), sys.Backbone(), sys.OSSLink(ost.OSS()), ost.Link()} {
		if l.Active() != 1 {
			t.Errorf("link %s carries %d flows, want 1", l.Name(), l.Active())
		}
	}
	if got := sys.Net().ActiveLinks(); got != 5 {
		t.Errorf("the write crosses %d links, want 5", got)
	}
}

func TestInvalidPlatformRejected(t *testing.T) {
	p := cluster.Cab()
	p.OSTs = 0
	if _, err := NewSystem(sim.NewEngine(), p, stats.NewRNG(1)); err == nil {
		t.Error("invalid platform accepted")
	}
	defer func() {
		if recover() == nil {
			t.Error("MustNewSystem should panic")
		}
	}()
	MustNewSystem(sim.NewEngine(), p, stats.NewRNG(1))
}

// mustCreate runs CreateK with a spec the test knows to be valid and
// hands the file to k, failing the test on a create error.
func mustCreate(t *testing.T, m *MDS, tk *sim.Task, spec StripeSpec, k func(*File)) {
	t.Helper()
	m.CreateK(tk, spec, func(f *File, err error) {
		if err != nil {
			t.Fatal(err)
		}
		k(f)
	})
}

func TestMDSCreateDefaults(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	var f *File
	eng.StartTask(0, "creator", -1, func(tk *sim.Task) {
		mustCreate(t, sys.MDS(), tk, DefaultSpec(), func(got *File) {
			f = got
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if f.Layout.StripeCount() != 2 || f.Layout.SizeMB != 1 {
		t.Errorf("default layout = %d × %v MB, want 2 × 1", f.Layout.StripeCount(), f.Layout.SizeMB)
	}
	if f.ID == 0 {
		t.Error("file ID not assigned")
	}
	if eng.Now() != sys.Platform().MDSOpTime {
		t.Errorf("create took %v, want %v", eng.Now(), sys.Platform().MDSOpTime)
	}
	if sys.MDS().Creates() != 1 {
		t.Errorf("creates = %d", sys.MDS().Creates())
	}
}

func TestMDSCreatePinnedOffset(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	eng.StartTask(0, "creator", -1, func(tk *sim.Task) {
		mustCreate(t, sys.MDS(), tk, StripeSpec{Count: 4, SizeMB: 1, OffsetOST: 478}, func(f *File) {
			want := []int{478, 479, 0, 1} // wraps around
			for i, o := range f.Layout.OSTs {
				if o != want[i] {
					t.Errorf("pinned OST[%d] = %d, want %d", i, o, want[i])
				}
			}
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMDSCreateRandomDistinct(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	eng.StartTask(0, "creator", -1, func(tk *sim.Task) {
		mustCreate(t, sys.MDS(), tk, StripeSpec{Count: 160, SizeMB: 128, OffsetOST: -1}, func(f *File) {
			seen := map[int]bool{}
			for _, o := range f.Layout.OSTs {
				if o < 0 || o >= 480 || seen[o] {
					t.Fatalf("bad OST allocation: %v", f.Layout.OSTs)
				}
				seen[o] = true
			}
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
}

func TestMDSCreateErrors(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	for _, tc := range []struct {
		what string
		spec StripeSpec
	}{
		{"stripe count beyond limit", StripeSpec{Count: 161, OffsetOST: -1}},
		{"negative stripe size", StripeSpec{Count: 2, SizeMB: -1, OffsetOST: -1}},
		{"offset beyond population", StripeSpec{Count: 2, OffsetOST: 480}},
	} {
		tc := tc
		eng.StartTask(0, "creator", -1, func(tk *sim.Task) {
			sys.MDS().CreateK(tk, tc.spec, func(_ *File, err error) {
				if err == nil {
					t.Errorf("%s accepted", tc.what)
				}
				tk.Finish()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// A rejected spec is reported before any metadata service time.
	if eng.Now() != 0 || sys.MDS().Creates() != 0 {
		t.Errorf("rejected creates charged the MDS: t=%v creates=%d", eng.Now(), sys.MDS().Creates())
	}
}

func TestMDSSerializes(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	var finish []float64
	for i := 0; i < 3; i++ {
		eng.StartTask(0, "c", i, func(tk *sim.Task) {
			mustCreate(t, sys.MDS(), tk, DefaultSpec(), func(*File) {
				finish = append(finish, tk.Now())
				tk.Finish()
			})
		})
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	op := sys.Platform().MDSOpTime
	want := []float64{op, 2 * op, 3 * op}
	for i, w := range want {
		if math.Abs(finish[i]-w) > 1e-12 {
			t.Errorf("create %d finished at %v, want %v", i, finish[i], w)
		}
	}
}

// TestMDSCreatesKeepCallOrder: the server completes creates and stats in
// call order, so each create's caller receives its own layout, here told
// apart by pinned offsets. A create whose spec fails validation, issued
// while other creates wait, reaches its own caller at once, before any
// of them completes, and takes no other caller's place: the creates queued
// before and after it still get their own layouts.
func TestMDSCreatesKeepCallOrder(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	m := sys.MDS()
	var got []string
	eng.StartTask(0, "client", -1, func(tk *sim.Task) {
		left := 0
		end := func() {
			if left--; left == 0 {
				tk.Finish()
			}
		}
		for i := 0; i < 4; i++ {
			name := fmt.Sprintf("create%d", i)
			left += 2
			m.CreateK(tk, StripeSpec{Count: 2, SizeMB: 1, OffsetOST: 10 * i}, func(f *File, err error) {
				if err != nil {
					t.Errorf("%s: %v", name, err)
				} else {
					got = append(got, fmt.Sprintf("%s%v", name, f.Layout.OSTs))
				}
				end()
			})
			m.StatK(tk, func() {
				got = append(got, "stat")
				end()
			})
			if i == 1 {
				m.CreateK(tk, StripeSpec{Count: 161, OffsetOST: -1}, func(f *File, err error) {
					got = append(got, fmt.Sprintf("rejected@%v", tk.Now()))
					if err == nil || f != nil {
						t.Errorf("an invalid spec was accepted: %v", f)
					}
				})
			}
		}
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := "rejected@0 create0[0 1] stat create1[10 11] stat create2[20 21] stat create3[30 31] stat"
	if g := strings.Join(got, " "); g != want {
		t.Errorf("completions:\n got %s\nwant %s", g, want)
	}
	if m.Creates() != 4 {
		t.Errorf("creates = %d, want 4", m.Creates())
	}
}

func TestBytesPerOST(t *testing.T) {
	l := Layout{OSTs: []int{5, 6, 7}, SizeMB: 10}
	got := l.BytesPerOST(100) // 10 stripes: 4,3,3
	want := []float64{40, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("BytesPerOST[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	// Partial final stripe: 95 MB = 9 full stripes + 5 MB on stripe 9 (ost 0).
	got = l.BytesPerOST(95)
	want = []float64{35, 30, 30}
	for i := range want {
		if got[i] != want[i] {
			t.Errorf("partial BytesPerOST[%d] = %v, want %v", i, got[i], want[i])
		}
	}
	sum := 0.0
	for _, v := range got {
		sum += v
	}
	if sum != 95 {
		t.Errorf("sum = %v, want 95", sum)
	}
	// Degenerate cases.
	if v := l.BytesPerOST(0); v[0] != 0 || v[1] != 0 || v[2] != 0 {
		t.Errorf("zero-size file should spread nothing: %v", v)
	}
	if l.OSTForStripe(4) != 6 {
		t.Errorf("OSTForStripe(4) = %d, want 6", l.OSTForStripe(4))
	}
}

func TestOSTModelSingleStream(t *testing.T) {
	_, sys := newSys(t, testPlat())
	ost := sys.OST(0)
	plat := sys.Platform()

	// Sequential stream at full efficiency.
	st := newStream(ost, cluster.ClassSequential, 1, 1)
	if got := ost.model.Capacity(1); math.Abs(got-plat.Class[cluster.ClassSequential].BaseMBs) > 1e-9 {
		t.Errorf("sequential capacity = %v, want %v", got, plat.Class[cluster.ClassSequential].BaseMBs)
	}
	st.Remove()
	st.Remove() // idempotent
	if ost.ActiveStreams() != 0 || ost.ActiveJobs() != 0 {
		t.Errorf("OST not drained: %d streams, %d jobs", ost.ActiveStreams(), ost.ActiveJobs())
	}

	// Collective stream with 1 MB RPCs pays the RPC-efficiency cost.
	st = newStream(ost, cluster.ClassCollective, 2, 1)
	coll := plat.Class[cluster.ClassCollective]
	want := coll.BaseMBs * coll.Efficiency(1)
	if got := ost.model.Capacity(1); math.Abs(got-want) > 1e-9 {
		t.Errorf("collective capacity = %v, want %v", got, want)
	}
	st.Remove()
}

func TestOSTModelIntraJobNoThrash(t *testing.T) {
	// Many streams of ONE collective job must not degrade capacity: the
	// driver coordinates them (stripe-aligned file domains).
	_, sys := newSys(t, testPlat())
	ost := sys.OST(1)
	plat := sys.Platform()
	coll := plat.Class[cluster.ClassCollective]
	var streams []*Stream
	for i := 0; i < 32; i++ {
		streams = append(streams, newStream(ost, cluster.ClassCollective, 7, 16))
	}
	want := coll.BaseMBs * coll.Efficiency(16)
	if got := ost.model.Capacity(32); math.Abs(got-want) > 1e-9 {
		t.Errorf("32 same-job streams: capacity = %v, want %v (no thrash)", got, want)
	}
	if ost.ActiveJobs() != 1 {
		t.Errorf("ActiveJobs = %d, want 1", ost.ActiveJobs())
	}
	for _, st := range streams {
		st.Remove()
	}
}

func TestOSTModelCrossJobThrash(t *testing.T) {
	_, sys := newSys(t, testPlat())
	ost := sys.OST(2)
	plat := sys.Platform()
	coll := plat.Class[cluster.ClassCollective]

	// k independent collective jobs: capacity = base*eff/(1+γ(k-1)).
	var streams []*Stream
	for k := 1; k <= 4; k++ {
		streams = append(streams, newStream(ost, cluster.ClassCollective, 100+k, 16))
		want := coll.BaseMBs * coll.Efficiency(16) / (1 + coll.ThrashGamma*float64(k-1))
		if got := ost.model.Capacity(k); math.Abs(got-want) > 1e-9 {
			t.Errorf("k=%d jobs: capacity = %v, want %v", k, got, want)
		}
	}
	if ost.ActiveJobs() != 4 {
		t.Errorf("ActiveJobs = %d, want 4", ost.ActiveJobs())
	}
	for _, st := range streams {
		st.Remove()
	}
}

func TestOSTModelLogAppendCollapse(t *testing.T) {
	// Log-append capacity must be flat up to the thrash onset and then
	// collapse superlinearly: ~8× down at 17 logs (the mean load of a
	// 4,096-rank PLFS run), ~23× at 30 logs (its hottest OST).
	_, sys := newSys(t, testPlat())
	ost := sys.OST(3)
	base := sys.Platform().Class[cluster.ClassLogAppend].BaseMBs
	var at6, at17, at30 float64
	for k := 1; k <= 30; k++ {
		newStream(ost, cluster.ClassLogAppend, 200+k, 1)
		switch k {
		case 6:
			at6 = ost.model.Capacity(k)
		case 17:
			at17 = ost.model.Capacity(k)
		case 30:
			at30 = ost.model.Capacity(k)
		}
	}
	if math.Abs(at6-base) > 1e-9 {
		t.Errorf("6 logs: capacity = %v, want full base %v (below onset)", at6, base)
	}
	if at17 < base/6 || at17 > base/3 {
		t.Errorf("17 logs: capacity = %v, want ~%v (4× collapse)", at17, base/4.2)
	}
	if at30 < base/35 || at30 > base/15 {
		t.Errorf("30 logs: capacity = %v, want ~%v (23× collapse)", at30, base/23)
	}
}

// seqWrite is a sequential stream of sizeMB from node 0 onto ost, in
// 1 MB RPCs, owned by file fileID.
func seqWrite(name string, sizeMB float64, ost *OST, fileID int) WriteReq {
	return WriteReq{Name: name, SizeMB: sizeMB, OST: ost, Class: cluster.ClassSequential, FileID: fileID, RPCMB: 1}
}

func TestStartWriteLifecycle(t *testing.T) {
	eng, sys := newSys(t, testPlat())
	ost := sys.OST(4)
	var bw float64
	eng.StartTask(0, "writer", -1, func(tk *sim.Task) {
		start := tk.Now()
		w := sys.StartWrites([]WriteReq{seqWrite("w", 288, ost, 9)})
		if ost.ActiveStreams() != 1 {
			t.Errorf("stream not registered during flow")
		}
		w.Await(tk, func() {
			bw = 288 / (tk.Now() - start)
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 288 MB at 288 MB/s = 1 second.
	if math.Abs(bw-288) > 1e-6 {
		t.Errorf("bandwidth = %v, want 288", bw)
	}
	if ost.ActiveStreams() != 0 || ost.ActiveJobs() != 0 {
		t.Errorf("stream not deregistered after completion")
	}
}

func TestFigure2Shape(t *testing.T) {
	// k sequential writers pinned to ONE OST: per-writer bandwidth ≈
	// 288/k with mild thrash — the Figure 2 curve.
	for _, k := range []int{1, 2, 4, 8, 16} {
		eng, sys := newSys(t, testPlat())
		ost := sys.OST(0)
		var last float64
		for w := 0; w < k; w++ {
			w := w
			eng.StartTask(0, "w", w, func(tk *sim.Task) {
				sys.StartWrites([]WriteReq{seqWrite(tk.Name(), 100, ost, 1000+w)}).Await(tk, func() {
					if tk.Now() > last {
						last = tk.Now()
					}
					tk.Finish()
				})
			})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		perProc := 100.0 / last
		ideal := 288.0 / float64(k)
		if perProc > ideal+1e-9 {
			t.Errorf("k=%d: per-proc %v exceeds ideal %v", k, perProc, ideal)
		}
		thrashed := 288.0 / (1 + 0.01*float64(k-1)) / float64(k)
		if math.Abs(perProc-thrashed) > 0.02*thrashed {
			t.Errorf("k=%d: per-proc %v, want ~%v", k, perProc, thrashed)
		}
	}
}

func TestJitterVariesAcrossSystems(t *testing.T) {
	plat := cluster.Cab() // JitterCV > 0
	capFor := func(seed uint64) float64 {
		sys := MustNewSystem(sim.NewEngine(), plat, stats.NewRNG(seed))
		ost := sys.OST(0)
		newStream(ost, cluster.ClassSequential, 1, 1)
		return ost.model.Capacity(1)
	}
	a, b := capFor(1), capFor(2)
	if a == b {
		t.Errorf("different seeds gave identical jittered capacity %v", a)
	}
	if capFor(1) != capFor(1) {
		t.Error("same seed must reproduce identical capacity")
	}
}

func TestStreamSnapshot(t *testing.T) {
	_, sys := newSys(t, testPlat())
	newStream(sys.OST(10), cluster.ClassLogAppend, 1, 1)
	newStream(sys.OST(10), cluster.ClassLogAppend, 2, 1)
	newStream(sys.OST(20), cluster.ClassCollective, 3, 16)
	snap := sys.StreamSnapshot()
	if snap[10] != 2 || snap[20] != 1 || snap[0] != 0 {
		t.Errorf("snapshot wrong: [10]=%d [20]=%d [0]=%d", snap[10], snap[20], snap[0])
	}
}

func TestOSTHealthDegradation(t *testing.T) {
	// Failure injection: a degraded OST serves its streams proportionally
	// slower, and the change applies to in-flight transfers.
	eng, sys := newSys(t, testPlat())
	ost := sys.OST(9)
	if ost.Health() != 1 {
		t.Fatalf("initial health = %v", ost.Health())
	}
	var finished float64
	eng.StartTask(0, "writer", -1, func(tk *sim.Task) {
		sys.StartWrites([]WriteReq{seqWrite("w", 288, ost, 5)}).Await(tk, func() {
			finished = tk.Now()
			tk.Finish()
		})
	})
	// Halfway through (144 MB written at 288 MB/s), halve the capacity:
	// the remaining 144 MB takes 1 s instead of 0.5 s.
	eng.Schedule(0.5, func() { sys.OST(9).SetHealth(0.5) })
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	if math.Abs(finished-1.5) > 1e-6 {
		t.Errorf("degraded write finished at %v, want 1.5", finished)
	}
	// Negative health clamps to zero (failed OST).
	ost.SetHealth(-3)
	if ost.Health() != 0 {
		t.Errorf("health after SetHealth(-3) = %v, want 0", ost.Health())
	}
}

func TestDegradedStragglerSlowsStripedJob(t *testing.T) {
	// A striped write across 4 OSTs is held back by one sick OST — the
	// tail effect that makes wide stripings fragile to ailing targets.
	eng, sys := newSys(t, testPlat())
	sys.OST(2).SetHealth(0.25)
	var finished float64
	eng.StartTask(0, "writer", -1, func(tk *sim.Task) {
		var reqs []WriteReq
		for i := 0; i < 4; i++ {
			reqs = append(reqs, seqWrite(fmt.Sprintf("w%d", i), 288, sys.OST(i), 6))
		}
		sys.StartWrites(reqs).Await(tk, func() {
			finished = tk.Now()
			tk.Finish()
		})
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// Healthy OSTs finish at 1 s; the degraded one needs 4 s.
	if math.Abs(finished-4.0) > 1e-6 {
		t.Errorf("straggler-bound job finished at %v, want 4", finished)
	}
}

func TestBytesPerOSTProperties(t *testing.T) {
	// Property: the distribution always sums to the total, never goes
	// negative, and whole-stripe counts differ by at most one across OSTs.
	f := func(nRaw, sRaw uint8, totRaw uint16) bool {
		n := int(nRaw)%16 + 1
		stripe := float64(sRaw%64) + 1
		total := float64(totRaw) / 4
		osts := make([]int, n)
		for i := range osts {
			osts[i] = i
		}
		l := Layout{OSTs: osts, SizeMB: stripe}
		shares := l.BytesPerOST(total)
		sum := 0.0
		minStripes, maxStripes := 1<<30, -1
		for _, mb := range shares {
			if mb < 0 {
				return false
			}
			sum += mb
			s := int(mb / stripe)
			if s < minStripes {
				minStripes = s
			}
			if s > maxStripes {
				maxStripes = s
			}
		}
		if maxStripes-minStripes > 1 {
			return false
		}
		return math.Abs(sum-total) < 1e-6*math.Max(1, total)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestMDSAllocationUniform(t *testing.T) {
	// Across many creates, every OST should be allocated roughly equally
	// — the approximate balance the MDS maintains on lscratchc.
	eng, sys := newSys(t, testPlat())
	counts := make([]int, sys.NumOSTs())
	eng.StartTask(0, "creator", -1, func(tk *sim.Task) {
		var create func(i int)
		create = func(i int) {
			if i == 600 {
				tk.Finish()
				return
			}
			mustCreate(t, sys.MDS(), tk, StripeSpec{Count: 160, SizeMB: 1, OffsetOST: -1}, func(f *File) {
				for _, o := range f.Layout.OSTs {
					counts[o]++
				}
				create(i + 1)
			})
		}
		create(0)
	})
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	want := 600.0 * 160 / 480 // 200 allocations per OST
	for o, c := range counts {
		if math.Abs(float64(c)-want) > 0.25*want {
			t.Errorf("OST %d allocated %d times, want ~%.0f", o, c, want)
		}
	}
}

func TestNICRejectsOutOfRangeNodes(t *testing.T) {
	_, sys := newSys(t, testPlat())
	for _, node := range []int{-1, sys.Platform().Nodes, sys.Platform().Nodes + 7} {
		node := node
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("NIC(%d) did not panic; an earlier revision aliased it via modulo", node)
				}
			}()
			sys.NIC(node)
		}()
	}
	// In-range nodes still resolve.
	if sys.NIC(0) == nil || sys.NIC(sys.Platform().Nodes-1) == nil {
		t.Error("in-range NIC lookup failed")
	}
}

func TestStartWritesBatchMatchesSequential(t *testing.T) {
	// One batch of streams must reproduce a sequence of one-stream
	// batches exactly: same completion times, same stream bookkeeping.
	run := func(batch bool) []float64 {
		eng, sys := newSys(t, testPlat())
		var reqs []WriteReq
		for i := 0; i < 8; i++ {
			rq := seqWrite(fmt.Sprintf("w%d", i), float64(50+13*i), sys.OST(i%4), i+1)
			rq.Node = i
			reqs = append(reqs, rq)
		}
		started := observeStarts(sys)
		if batch {
			sys.StartWrites(reqs)
		} else {
			for _, rq := range reqs {
				sys.StartWrites([]WriteReq{rq})
			}
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		var times []float64
		for _, f := range *started {
			times = append(times, f.FinishedAt())
		}
		for i := 0; i < 4; i++ {
			if sys.OST(i).ActiveStreams() != 0 {
				t.Errorf("OST %d still has %d streams after drain", i, sys.OST(i).ActiveStreams())
			}
		}
		return times
	}
	seq := run(false)
	bat := run(true)
	for i := range seq {
		if math.Float64bits(seq[i]) != math.Float64bits(bat[i]) {
			t.Errorf("flow %d: sequential %v vs batch %v", i, seq[i], bat[i])
		}
	}
}

func TestNewSystemIsPrivateNet(t *testing.T) {
	plat := testPlat()
	e1 := sim.NewEngine()
	s1, err := NewSystem(e1, plat, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	e2 := sim.NewEngine()
	s2, err := NewSystem(e2, plat, stats.NewRNG(1))
	if err != nil {
		t.Fatal(err)
	}
	if s1.Net() == s2.Net() {
		t.Fatal("independent systems share a net")
	}
	if got := s1.Backbone().Name(); got != "backbone" {
		t.Errorf("backbone name %q, want backbone", got)
	}
}
