package lustre

import (
	"strings"
	"testing"

	"pfsim/internal/sim"
)

func TestLinkByName(t *testing.T) {
	_, sys := newSys(t, testPlat())
	cases := []struct {
		name string
		want func() any
	}{
		{"backbone", func() any { return sys.Backbone() }},
		{"nic0", func() any { return sys.NIC(0) }},
		{"nic1199", func() any { return sys.NIC(1199) }},
		{"oss31", func() any { return sys.OSSLink(31) }},
	}
	for _, tc := range cases {
		l, err := sys.LinkByName(tc.name)
		if err != nil {
			t.Errorf("LinkByName(%q): %v", tc.name, err)
			continue
		}
		if any(l) != tc.want() {
			t.Errorf("LinkByName(%q) returned the wrong link", tc.name)
		}
	}
	bad := []struct{ name, want string }{
		{"nic1200", "out of range"},
		{"oss-1", "out of range"},
		{"nicx", "bad link name"},
		{"ost3", "use ost_health"},
		{"mds", "unknown link"},
		{"", "unknown link"},
	}
	for _, tc := range bad {
		if _, err := sys.LinkByName(tc.name); err == nil || !strings.Contains(err.Error(), tc.want) {
			t.Errorf("LinkByName(%q) err = %v, want containing %q", tc.name, err, tc.want)
		}
	}
}

func TestSetAllOSTHealth(t *testing.T) {
	_, sys := newSys(t, testPlat())
	sys.SetAllOSTHealth(0.3)
	for i := 0; i < sys.NumOSTs(); i += 53 {
		if h := sys.OST(i).Health(); h != 0.3 {
			t.Fatalf("OST %d health = %v", i, h)
		}
	}
	sys.SetAllOSTHealth(-2) // clamps like OST.SetHealth
	if h := sys.OST(0).Health(); h != 0 {
		t.Fatalf("clamped health = %v", h)
	}
}

func TestStartRebuild(t *testing.T) {
	plat := testPlat()
	eng, sys := newSys(t, plat)
	streams := observeStarts(sys)
	rebuild := sys.StartRebuild(7, RebuildOpts{SizeMB: 900, Streams: 3})
	if n := len(*streams); n != 3 {
		t.Fatalf("flows = %d", n)
	}
	doneAt := -1.0
	eng.StartTask(0, "watch", -1, func(tk *sim.Task) {
		rebuild.Await(tk, func() {
			doneAt = tk.Now()
			tk.Finish()
		})
	})
	// Streams register on both ends with distinct synthetic jobs.
	if got := sys.OST(7).ActiveStreams(); got != 3 {
		t.Errorf("target streams = %d, want 3", got)
	}
	if got := sys.OST(7).ActiveJobs(); got != 3 {
		t.Errorf("target jobs = %d, want 3 (distinct rebuild file IDs)", got)
	}
	srcStreams := 0
	for i := 0; i < sys.NumOSTs(); i++ {
		if i != 7 {
			srcStreams += sys.OST(i).ActiveStreams()
		}
	}
	if srcStreams != 3 {
		t.Errorf("source streams = %d, want 3", srcStreams)
	}
	// Default sources stay on the target's OSS (same-OSS neighbours).
	tgtOSS := sys.OST(7).OSS()
	for i := 0; i < sys.NumOSTs(); i++ {
		if i != 7 && sys.OST(i).ActiveStreams() > 0 && sys.OST(i).OSS() != tgtOSS {
			t.Errorf("default source OST %d is on OSS %d, want %d", i, sys.OST(i).OSS(), tgtOSS)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	last := 0.0
	for _, f := range *streams {
		last = max(last, f.FinishedAt())
	}
	if doneAt <= 0 || doneAt != last {
		t.Fatalf("rebuild's wait ended at %v, want %v, when its last stream finished", doneAt, last)
	}
	if got := sys.OST(7).ActiveStreams(); got != 0 {
		t.Errorf("streams leaked after completion: %d", got)
	}
}

func TestStartRebuildExplicitSourcesAndCap(t *testing.T) {
	plat := testPlat()
	eng, sys := newSys(t, plat)
	streams := observeStarts(sys)
	sys.StartRebuild(0, RebuildOpts{
		SizeMB:  100,
		Streams: 2,
		RateMBs: 50,
		Sources: []int{100, 200},
	})
	if sys.OST(100).ActiveStreams() != 1 || sys.OST(200).ActiveStreams() != 1 {
		t.Errorf("explicit sources not used: %d %d",
			sys.OST(100).ActiveStreams(), sys.OST(200).ActiveStreams())
	}
	for _, f := range *streams {
		if r := f.Rate(); r > 50+1e-9 {
			t.Errorf("rate %v exceeds cap 50", r)
		}
	}
	if err := eng.Run(); err != nil {
		t.Fatal(err)
	}
	// 100 MB over 2 streams capped at 50 MB/s each → exactly 1s.
	if now := eng.Now(); now < 1-1e-9 || now > 1+1e-9 {
		t.Errorf("capped rebuild finished at %v, want 1s", now)
	}
}

func TestStartRebuildPanics(t *testing.T) {
	_, sys := newSys(t, testPlat())
	cases := []struct {
		name string
		fn   func()
	}{
		{"target range", func() { sys.StartRebuild(480, RebuildOpts{SizeMB: 1}) }},
		{"volume", func() { sys.StartRebuild(0, RebuildOpts{SizeMB: 0}) }},
		{"self source", func() { sys.StartRebuild(0, RebuildOpts{SizeMB: 1, Sources: []int{0}}) }},
		{"source range", func() { sys.StartRebuild(0, RebuildOpts{SizeMB: 1, Sources: []int{-1}}) }},
	}
	for _, tc := range cases {
		func() {
			defer func() {
				if recover() == nil {
					t.Errorf("%s: no panic", tc.name)
				}
			}()
			tc.fn()
		}()
	}
}

// TestRebuildCompetes checks rebuild traffic actually contends: a
// foreground write sharing the target OST runs slower than alone.
func TestRebuildCompetes(t *testing.T) {
	plat := testPlat()
	run := func(rebuild bool) float64 {
		eng, sys := newSys(t, plat)
		started := observeStarts(sys)
		sys.StartWrites([]WriteReq{seqWrite("fg", 400, sys.OST(7), 1)})
		f := (*started)[0]
		if rebuild {
			sys.StartRebuild(7, RebuildOpts{SizeMB: 4000, Streams: 4})
		}
		if err := eng.Run(); err != nil {
			t.Fatal(err)
		}
		return f.FinishedAt()
	}
	alone, contended := run(false), run(true)
	if contended <= alone {
		t.Errorf("foreground write not slowed by rebuild: alone %v, contended %v", alone, contended)
	}
}
