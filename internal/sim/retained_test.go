package sim_test

import (
	"reflect"
	"testing"

	"pfsim/internal/cluster"
	"pfsim/internal/ior"
	"pfsim/internal/lustre"
	"pfsim/internal/mpiio"
	"pfsim/internal/sim"
	"pfsim/internal/stats"
)

// TestEngineRoomBoundedByRepetitions: what a job leaves in its engine
// does not grow with its repetitions. Run at 2 and at 4 repetitions, each
// access pattern ends with as much engine room (event slab, free list,
// lane, heap, position index, waiting list and pending-broadcast queue)
// and as much room in the waiter lists of the signals it re-arms for
// every rendezvous, as they grow to their peak population once. The
// platform is the two-OST one of lustre's
// TestRetainedStateBoundedByRepetitions, so every repetition loads it
// alike.
func TestEngineRoomBoundedByRepetitions(t *testing.T) {
	plat := cluster.Cab()
	plat.OSTs, plat.OSSs, plat.MaxStripeCount = 2, 2, 2
	for _, in := range []struct {
		name string
		cfg  func(*ior.Config)
	}{
		{"collective", func(*ior.Config) {}},
		{"collective with a read pass", func(c *ior.Config) { c.ReadFile = true }},
		{"independent", func(c *ior.Config) { c.Collective = false }},
		{"file per process", func(c *ior.Config) { c.FilePerProc = true }},
		{"plfs", func(c *ior.Config) { c.API = mpiio.DriverPLFS }},
	} {
		retained := func(reps int) (sim.Room, int, int) {
			cfg := ior.PaperConfig(48)
			cfg.SegmentCount = 2
			cfg.Reps = reps
			in.cfg(&cfg)
			eng := sim.NewEngine()
			sys := lustre.MustNewSystem(eng, plat, stats.NewRNG(5))
			job, err := ior.StartJob(sys, cfg)
			if err != nil {
				t.Fatal(err)
			}
			if err := eng.Run(); err != nil {
				t.Fatal(err)
			}
			if err := job.Err(); err != nil {
				t.Fatal(err)
			}
			signals, waiters := signalRoom(job)
			return sim.RoomOf(eng), signals, waiters
		}
		room2, signals2, waiters2 := retained(2)
		room4, signals4, waiters4 := retained(4)
		t.Logf("%s: after 2 repetitions %+v and %d signals with room for %d waiters; after 4 %+v, %d and %d",
			in.name, room2, signals2, waiters2, room4, signals4, waiters4)
		if room4 != room2 {
			t.Errorf("%s: the engine keeps room for %+v after 2 repetitions and %+v after 4", in.name, room2, room4)
		}
		if signals2 == 0 {
			t.Errorf("%s: the job holds no re-armed signal", in.name)
		}
		if signals4 != signals2 || waiters4 != waiters2 {
			t.Errorf("%s: the job holds %d signals with room for %d waiters after 2 repetitions, %d with room for %d after 4",
				in.name, signals2, waiters2, signals4, waiters4)
		}
	}
}

// signalRoom counts the distinct signals named label+id reachable from
// root through pointers, interfaces, structs, arrays, slices and maps
// (not through closures), and sums the room their waiter lists keep.
// Those are the signals re-armed under a new id for every rendezvous:
// the communicators' collective signals and the files' operation
// signals. One-shot signals are left out: which transfer signals stay
// reachable (through the tasks' latest waits and the flow solver's
// lingering finished flows) varies from run to run without growing.
func signalRoom(root any) (signals, waiters int) {
	type node struct {
		at  uintptr
		typ reflect.Type
	}
	seen := map[node]bool{}
	signalType := reflect.TypeOf(sim.Signal{})
	var walk func(v reflect.Value)
	walk = func(v reflect.Value) {
		if v.CanAddr() {
			n := node{v.UnsafeAddr(), v.Type()}
			if seen[n] {
				return
			}
			seen[n] = true
		}
		switch v.Kind() {
		case reflect.Pointer, reflect.Interface:
			if !v.IsNil() {
				walk(v.Elem())
			}
		case reflect.Struct:
			if v.Type() == signalType && v.FieldByName("id").Int() >= 0 {
				signals++
				waiters += v.FieldByName("waiters").Cap()
			}
			for i := 0; i < v.NumField(); i++ {
				walk(v.Field(i))
			}
		case reflect.Array, reflect.Slice:
			for i := 0; i < v.Len(); i++ {
				walk(v.Index(i))
			}
		case reflect.Map:
			for it := v.MapRange(); it.Next(); {
				walk(it.Key())
				walk(it.Value())
			}
		}
	}
	walk(reflect.ValueOf(root))
	return signals, waiters
}
