package sim

import (
	"fmt"
	"math"
	"math/rand/v2"
	"testing"
)

// scriptQueue is the surface the event-order scripts drive: the engine,
// or the reference model below. Events, and the tasks that wait on
// signals, are named by the script's own handle numbers; signals are
// numbered from 0.
type scriptQueue interface {
	now() float64
	schedule(h int, delay float64, fn func())
	scheduleAt(h int, at float64, fn func())
	cancel(h int)
	reschedule(h int, at float64) bool
	// runUntil returns the number of tasks a deadlock leaves parked, 0
	// when the run ends without one.
	runUntil(tmax float64) (blocked int)
	stop()
	pending() int
	// await parks task h on signal s with continuation fn, or runs fn at
	// once when s has fired. fire returns the number of tasks it woke.
	await(s, h int, fn func())
	fire(s int) (woken int)
	rearm(s int)
	fired(s int) bool
}

// engineQueue adapts the real engine.
type engineQueue struct {
	e    *Engine
	evs  map[int]*Event
	sigs []*Signal
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
func (q *engineQueue) runUntil(tmax float64) int {
	if err := q.e.RunUntil(tmax); err != nil {
		return q.e.parked // a deadlock is RunUntil's only error
	}
	return 0
}

// signal returns the script's signal s, made on first use.
func (q *engineQueue) signal(s int) *Signal {
	for len(q.sigs) <= s {
		q.sigs = append(q.sigs, q.e.NewSignal("s"))
	}
	return q.sigs[s]
}

// await parks a task of its own: one that no start event began, so the
// script's events are the only ones queued.
func (q *engineQueue) await(s, h int, fn func()) {
	q.signal(s).Await(&Task{eng: q.e, label: "w", id: h}, fn)
}
func (q *engineQueue) fire(s int) int {
	before := q.e.stats.Woken
	q.signal(s).Fire()
	return int(q.e.stats.Woken - before)
}
func (q *engineQueue) rearm(s int)      { q.signal(s).Rearm("s", s) }
func (q *engineQueue) fired(s int) bool { return q.signal(s).Fired() }

// refQueue is the reference model: one flat list, fired by a linear scan
// for the least (at, seq) — the ordering rule itself, with no lane and no
// heap to get wrong.
//
// A signal's Fire schedules one event per waiter, in park order, as the
// engine did before a broadcast became one event. Where the engine counts
// a broadcast as one event, the model leaves out the waiters' events
// behind the first: Pending counts a broadcast once, until its first
// waiter runs, and a Stop from inside a broadcast takes effect after its
// last waiter.
type refQueue struct {
	t       float64
	seq     int64
	q       []*refEvent
	byH     map[int]*refEvent
	stopped bool
	sigs    []refSignal
}

type refEvent struct {
	at  float64
	seq int64
	fn  func()
	// cont marks a waiter's event behind the first of its Fire: it
	// continues that Fire's broadcast.
	cont bool
}

// refSignal is a signal of the model: whether it has fired, and the
// continuations of the tasks parked on it, in park order.
type refSignal struct {
	fired  bool
	parked []func()
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
func (m *refQueue) stop() { m.stopped = true }
func (m *refQueue) pending() int {
	n := 0
	for _, ev := range m.q {
		if !ev.cont {
			n++
		}
	}
	return n
}
func (m *refQueue) runUntil(tmax float64) int {
	if tmax < m.t {
		return 0
	}
	for len(m.q) > 0 {
		i := 0
		for j, ev := range m.q {
			if ev.at < m.q[i].at || ev.at == m.q[i].at && ev.seq < m.q[i].seq {
				i = j
			}
		}
		ev := m.q[i]
		if m.stopped && !ev.cont {
			break
		}
		if ev.at > tmax {
			m.t = tmax
			return 0
		}
		m.q = append(m.q[:i], m.q[i+1:]...)
		m.t = ev.at
		ev.fn()
	}
	if !m.stopped {
		blocked := 0
		for _, sg := range m.sigs {
			blocked += len(sg.parked)
		}
		return blocked
	}
	m.stopped = false
	return 0
}
func (m *refQueue) signal(s int) *refSignal {
	for len(m.sigs) <= s {
		m.sigs = append(m.sigs, refSignal{})
	}
	return &m.sigs[s]
}
func (m *refQueue) await(s, _ int, fn func()) {
	if sg := m.signal(s); !sg.fired {
		sg.parked = append(sg.parked, fn)
		return
	}
	fn()
}
func (m *refQueue) fire(s int) int {
	sg := m.signal(s)
	if sg.fired {
		return 0
	}
	sg.fired = true
	for i, fn := range sg.parked {
		m.seq++
		m.q = append(m.q, &refEvent{at: m.t, seq: m.seq, fn: fn, cont: i > 0})
	}
	n := len(sg.parked)
	sg.parked = nil
	return n
}
func (m *refQueue) rearm(s int) {
	sg := m.signal(s)
	if !sg.fired {
		panic("the script re-armed an unfired signal")
	}
	sg.fired = false
}
func (m *refQueue) fired(s int) bool { return m.signal(s).fired }

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

// orderSignals is the number of signals a script with signals uses.
const orderSignals = 3

// runOrderScript drives q with a script whose choices come from rng and
// returns its log: every firing and every waiter's wake (handle, time,
// Pending), Pending after every step, and the tasks a deadlock leaves
// parked. The script's choices are drawn in firing order, so two queues
// produce the same log only if they fire the same events and resume the
// same waiters in the same order at the same times.
//
// With signals, a step may also park a task on a signal, fire one, fire
// and re-arm it in the same step, or re-arm a fired one; a woken task
// takes steps as a firing event does, so it can fire, re-arm and stop
// from inside a broadcast. Without, the script is the one it was before
// signals joined it, choice for choice, so the recorded fuzz inputs keep
// their meaning.
func runOrderScript(rng chooser, q scriptQueue, signals bool) []string {
	kinds, steps := 10, 12
	if signals {
		// The last kind does nothing, as 9 mostly does without signals;
		// more top-level steps leave more tasks parked and more signals
		// to fire.
		kinds, steps = 16, 40
	}
	var log []string
	inWake := 0    // woken continuations running: the log marks their steps
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
	// where marks a step taken by a woken task.
	where := func() string {
		if inWake > 0 {
			return " in wake"
		}
		return ""
	}
	var fire, wake func(h int) func()
	step := func() {
		switch r := rng.intn(kinds); {
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
			log = append(log, "stop"+where())
		case r >= 10 && r <= 12 && budget > 0:
			h := next
			next++
			budget--
			sig := rng.intn(orderSignals)
			log = append(log, fmt.Sprintf("await %d on %d fired %v%s", h, sig, q.fired(sig), where()))
			q.await(sig, h, wake(h))
		case r == 13 || r == 14:
			sig := rng.intn(orderSignals)
			switch rng.intn(3) {
			case 0:
				log = append(log, fmt.Sprintf("signal %d woke %d%s", sig, q.fire(sig), where()))
			case 1:
				woke := q.fire(sig)
				q.rearm(sig)
				log = append(log, fmt.Sprintf("signal %d woke %d, re-armed%s", sig, woke, where()))
			default:
				if q.fired(sig) {
					q.rearm(sig)
					log = append(log, fmt.Sprintf("re-armed %d%s", sig, where()))
				}
			}
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
	wake = func(h int) func() {
		return func() {
			log = append(log, fmt.Sprintf("wake %d @%v pending %d", h, q.now(), q.pending()))
			inWake++
			for n := rng.intn(4); n > 0; n-- {
				step()
			}
			inWake--
		}
	}
	for i := 0; i < steps; i++ {
		step()
	}
	for rounds := 0; q.pending() > 0 && rounds < 1000; rounds++ {
		tmax := q.now() + []float64{-1, 0, 0.25, 0.5, 1.5, 3, math.Inf(1)}[rng.intn(7)]
		blocked := q.runUntil(tmax)
		log = append(log, fmt.Sprintf("ran to %v: now %v pending %d blocked %d", tmax, q.now(), q.pending(), blocked))
	}
	// A script that spent its runs without draining drains now. Its
	// callbacks take steps of their own, but their schedules are within
	// the budget, so this ends.
	for q.pending() > 0 {
		blocked := q.runUntil(math.Inf(1))
		log = append(log, fmt.Sprintf("drained: now %v pending %d blocked %d", q.now(), q.pending(), blocked))
	}
	// A run of the empty queue reports the tasks left parked.
	return append(log, fmt.Sprintf("end: blocked %d", q.runUntil(math.Inf(1))))
}

// matchesModel runs one script on the engine and on the reference model,
// each with choices from a fresh source, and fails, naming the script,
// at the first log entry where the two differ. It also checks that the
// engine ends with no events or broadcasts left and with consistent work
// counters.
func matchesModel(t *testing.T, script string, signals bool, source func() chooser) {
	t.Helper()
	if signals {
		script += " with signals"
	}
	e := NewEngine()
	got := runOrderScript(source(), &engineQueue{e: e, evs: map[int]*Event{}}, signals)
	want := runOrderScript(source(), &refQueue{byH: map[int]*refEvent{}}, signals)
	for i := range min(len(got), len(want)) {
		if got[i] != want[i] {
			t.Fatalf("%s: step %d: engine %q, model %q (context %q)", script, i, got[i], want[i], got[max(0, i-4):i])
		}
	}
	if len(got) != len(want) {
		t.Fatalf("%s: engine log has %d entries, model %d", script, len(got), len(want))
	}
	if e.Pending() != 0 || e.bcasts.Len() != 0 {
		t.Fatalf("%s: %d events and %d broadcasts left", script, e.Pending(), e.bcasts.Len())
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
// Pending after every step. With signals, the engine's one event per
// broadcast resumes every waiter where the model's event per waiter
// does, whatever the woken tasks fire, re-arm or stop.
func TestEventOrderMatchesReferenceModel(t *testing.T) {
	for seed := uint64(1); seed <= 300; seed++ {
		for _, signals := range []bool{false, true} {
			matchesModel(t, fmt.Sprintf("seed %d", seed), signals, func() chooser {
				return rngChooser{rand.New(rand.NewPCG(seed, 1))}
			})
		}
	}
}

// FuzzEventOrder is TestEventOrderMatchesReferenceModel with the script's
// choices read from fuzz bytes: schedules, absolute schedules, cancels,
// reschedules and stops, from the top level and from inside callbacks,
// between bounded runs, within the script's budget of 300 events and
// 1,000 runs. Each input runs once without signals and once with them.
// Seeds live in testdata/fuzz/FuzzEventOrder: script-<n> records the
// choices of the test's script for seed n without signals, and
// heap-move-up and heap-move-down are inputs the fuzzer found against an
// in-heap Reschedule that sifts only down, or only up. The signal-* seeds
// record the choices of the test's script with signals for the shortest
// of seeds 1 to 20,000 that, read with signals, fire a broadcast to
// several waiters (signal-broadcast, seed 7628), fire and re-arm a signal
// in one step and park a task on it before the broadcast runs
// (signal-rearm, 7940), fire a signal from inside a wake
// (signal-fire-in-wake, 17182), and stop from inside a wake with waiters
// of its broadcast still to run (signal-stop-in-wake, 8637).
func FuzzEventOrder(f *testing.F) {
	f.Fuzz(func(t *testing.T, data []byte) {
		for _, signals := range []bool{false, true} {
			matchesModel(t, "fuzz input", signals, func() chooser {
				b := byteChooser(data)
				return &b
			})
		}
	})
}
