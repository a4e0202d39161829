package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// scriptQueue is the surface the event-order scripts drive: the engine,
// or the reference model below. Events are named by the script's own
// handle numbers.
type scriptQueue interface {
	now() float64
	schedule(h int, delay float64, fn func())
	scheduleAt(h int, at float64, fn func())
	cancel(h int)
	reschedule(h int, at float64) bool
	runUntil(tmax float64)
	stop()
	pending() int
}

// engineQueue adapts the real engine.
type engineQueue struct {
	e   *Engine
	evs map[int]*Event
}

func (q *engineQueue) now() float64 { return q.e.Now() }
func (q *engineQueue) schedule(h int, d float64, fn func()) {
	q.evs[h] = q.e.Schedule(d, fn)
}
func (q *engineQueue) scheduleAt(h int, at float64, fn func()) {
	q.evs[h] = q.e.ScheduleAt(at, fn)
}
func (q *engineQueue) cancel(h int)                      { q.e.Cancel(q.evs[h]) }
func (q *engineQueue) reschedule(h int, at float64) bool { return q.e.Reschedule(q.evs[h], at) }
func (q *engineQueue) stop()                             { q.e.Stop() }
func (q *engineQueue) pending() int                      { return q.e.Pending() }
func (q *engineQueue) runUntil(tmax float64) {
	if err := q.e.RunUntil(tmax); err != nil {
		panic(err)
	}
}

// refQueue is the reference model: one flat list, fired by a linear scan
// for the least (at, seq) — the ordering rule itself, with no lane and no
// heap to get wrong.
type refQueue struct {
	t       float64
	seq     int64
	q       []*refEvent
	byH     map[int]*refEvent
	stopped bool
}

type refEvent struct {
	at  float64
	seq int64
	fn  func()
}

func (m *refQueue) now() float64 { return m.t }
func (m *refQueue) schedule(h int, d float64, fn func()) {
	m.scheduleAt(h, m.t+math.Max(d, 0), fn)
}
func (m *refQueue) scheduleAt(h int, at float64, fn func()) {
	m.seq++
	ev := &refEvent{at: math.Max(at, m.t), seq: m.seq, fn: fn}
	m.q = append(m.q, ev)
	m.byH[h] = ev
}
func (m *refQueue) find(h int) int {
	for i, ev := range m.q {
		if ev == m.byH[h] {
			return i
		}
	}
	return -1
}
func (m *refQueue) cancel(h int) {
	if i := m.find(h); i >= 0 {
		m.q = append(m.q[:i], m.q[i+1:]...)
	}
}
func (m *refQueue) reschedule(h int, at float64) bool {
	if m.find(h) < 0 {
		return false
	}
	m.seq++
	ev := m.byH[h]
	ev.at, ev.seq = math.Max(at, m.t), m.seq
	return true
}
func (m *refQueue) stop()        { m.stopped = true }
func (m *refQueue) pending() int { return len(m.q) }
func (m *refQueue) runUntil(tmax float64) {
	if tmax < m.t {
		return
	}
	for !m.stopped && len(m.q) > 0 {
		i := 0
		for j, ev := range m.q {
			if ev.at < m.q[i].at || ev.at == m.q[i].at && ev.seq < m.q[i].seq {
				i = j
			}
		}
		ev := m.q[i]
		if ev.at > tmax {
			m.t = tmax
			return
		}
		m.q = append(m.q[:i], m.q[i+1:]...)
		m.t = ev.at
		ev.fn()
	}
	m.stopped = false
}

// chooser supplies an order script's choices: intn returns a value in
// [0, n), for n <= 256.
type chooser interface{ intn(n int) int }

// rngChooser draws choices from a seeded generator.
type rngChooser struct{ *rand.Rand }

func (c rngChooser) intn(n int) int { return c.IntN(n) }

// byteChooser reads choices from fuzz bytes, one byte each. A spent input
// yields n-1, the last choice at every point of the script: a step that
// does nothing, a callback that takes three such steps, and a run with no
// bound, so the script drains the queue and ends.
type byteChooser []byte

func (b *byteChooser) intn(n int) int {
	if len(*b) == 0 {
		return n - 1
	}
	v := int((*b)[0]) % n
	*b = (*b)[1:]
	return v
}

// runOrderScript drives q with a script whose choices come from rng and
// returns its log: every firing (handle, time, Pending) and Pending after
// every step. The script's choices are drawn in firing order, so two
// queues produce the same log only if they fire the same events in the
// same order at the same times.
func runOrderScript(rng chooser, q scriptQueue) []string {
	var log []string
	var live []int // handles the script believes pending
	next, budget := 0, 300
	drop := func(h int) {
		for i, x := range live {
			if x == h {
				live = append(live[:i], live[i+1:]...)
				return
			}
		}
	}
	// when draws a target time: now, the past, a delay that rounds to now,
	// or a coarse future grid point, so ties at one instant are common.
	when := func() (at float64, kind string) {
		now := q.now()
		switch rng.intn(5) {
		case 0:
			return now, "now"
		case 1:
			return now - 1 - float64(rng.intn(3)), "past"
		case 2:
			return now + now*1e-17, "rounds-to-now"
		case 3:
			return float64(rng.intn(24)) * 0.25, "grid"
		default:
			return now + 0.5*float64(1+rng.intn(4)), "future"
		}
	}
	var fire func(h int) func()
	step := func() {
		switch r := rng.intn(10); {
		case r < 4 && budget > 0:
			h := next
			next++
			budget--
			live = append(live, h)
			if at, kind := when(); rng.intn(2) == 0 {
				q.scheduleAt(h, at, fire(h))
				log = append(log, fmt.Sprintf("at %d %s", h, kind))
			} else {
				delay := at - q.now()
				if kind == "rounds-to-now" {
					delay = q.now() * 1e-17 // positive, yet now+delay == now
				}
				q.schedule(h, delay, fire(h))
				log = append(log, fmt.Sprintf("delay %d %s", h, kind))
			}
		case r < 6 && len(live) > 0:
			h := live[rng.intn(len(live))]
			drop(h)
			q.cancel(h)
			log = append(log, fmt.Sprintf("cancel %d", h))
		case r < 9 && len(live) > 0:
			h := live[rng.intn(len(live))]
			at, kind := when()
			log = append(log, fmt.Sprintf("move %d %s %v", h, kind, q.reschedule(h, at)))
		case r == 9 && rng.intn(4) == 0:
			q.stop()
			log = append(log, "stop")
		}
		log = append(log, fmt.Sprintf("pending %d", q.pending()))
	}
	fire = func(h int) func() {
		return func() {
			drop(h)
			log = append(log, fmt.Sprintf("fire %d @%v pending %d", h, q.now(), q.pending()))
			for n := rng.intn(4); n > 0; n-- {
				step()
			}
		}
	}
	for i := 0; i < 12; i++ {
		step()
	}
	for rounds := 0; q.pending() > 0 && rounds < 1000; rounds++ {
		tmax := q.now() + []float64{-1, 0, 0.25, 0.5, 1.5, 3, math.Inf(1)}[rng.intn(7)]
		q.runUntil(tmax)
		log = append(log, fmt.Sprintf("ran to %v: now %v pending %d", tmax, q.now(), q.pending()))
	}
	// A script that spent its runs without draining drains now. Its
	// callbacks take steps of their own, but their schedules are within
	// the budget, so this ends.
	for q.pending() > 0 {
		q.runUntil(math.Inf(1))
		log = append(log, fmt.Sprintf("drained: now %v pending %d", q.now(), q.pending()))
	}
	return log
}

// matchesModel runs one script on the engine and on the reference model,
// each with choices from a fresh source, and fails, naming the script,
// at the first log entry where the two differ. It also checks that the
// engine ends with no events left and with consistent work counters.
func matchesModel(t *testing.T, script string, source func() chooser) {
	t.Helper()
	e := NewEngine()
	got := runOrderScript(source(), &engineQueue{e: e, evs: map[int]*Event{}})
	want := runOrderScript(source(), &refQueue{byH: map[int]*refEvent{}})
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d: engine %q, model %q (context %q)", script, i, got[i], want[i], got[max(0, i-4):i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: engine log has %d entries, model %d", script, len(got), len(want))
	}
	if e.Pending() != 0 {
		t.Fatalf("%s: %d events left", script, e.Pending())
	}
	st := e.Stats()
	if st.LaneEvents+st.HeapPushes != st.Scheduled || st.Fired+st.Cancelled != st.Scheduled {
		t.Fatalf("%s: inconsistent stats %+v", script, st)
	}
}

// TestEventOrderMatchesReferenceModel: random scripts that schedule,
// cancel and reschedule across the lane/heap boundary from inside firing
// callbacks, in RunUntil slices with Stop and resume, fire exactly what a
// plain (at, seq)-sorted list fires, in the same order, with the same
// Pending after every step.
func TestEventOrderMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		matchesModel(t, fmt.Sprintf("seed %d", seed), func() chooser {
			return rngChooser{rand.New(rand.NewPCG(seed, 1))}
		})
	}
}

// FuzzEventOrder is TestEventOrderMatchesReferenceModel with the script's
// choices read from fuzz bytes: schedules, absolute schedules, cancels,
// reschedules and stops, from the top level and from inside callbacks,
// between bounded runs, within the script's budget of 300 events and
// 1,000 runs. Seeds live in testdata/fuzz/FuzzEventOrder: script-<n>
// records the choices of the test's script for seed n, and heap-move-up
// and heap-move-down are inputs the fuzzer found against an in-heap
// Reschedule that sifts only down, or only up.
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		matchesModel(t, "fuzz input", func() chooser {
			b := byteChooser(data)
			return &b
		})
	})
}
