package sim

import "math"

// Cycle is a point in simulated time. The whole machine shares one clock.
type Cycle int64

// Event is a callback scheduled to run at a given cycle.
type Event struct {
	At  Cycle
	Fn  func()
	seq uint64 // insertion order, breaks ties deterministically
}

// ringSize is the calendar-queue horizon in cycles. Nearly every delay in
// the simulated machine (cache hits, mesh hops, the 200-cycle memory
// round trip, spin backoffs) is far below it, so the heap spill path is
// cold. Must be a power of two.
const ringSize = 512

// eventHeap orders far-future events by (At, seq), so that simultaneous
// events run in insertion order. It holds events by value with concrete
// (non-interface) push/pop: the container/heap API would box every Event
// into an `any` on both Push and Pop, allocating on the spill path. The
// backing array is retained across drain/refill cycles.
type eventHeap struct {
	ev []Event
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if a.At != b.At {
		return a.At < b.At
	}
	return a.seq < b.seq
}

func (h *eventHeap) push(e Event) {
	h.ev = append(h.ev, e)
	i := len(h.ev) - 1
	for i > 0 {
		parent := (i - 1) / 2
		if !h.less(i, parent) {
			break
		}
		h.ev[i], h.ev[parent] = h.ev[parent], h.ev[i]
		i = parent
	}
}

// pop removes and returns the minimum event. The vacated slot keeps its
// backing storage but drops the closure so it can be collected.
func (h *eventHeap) pop() Event {
	n := len(h.ev) - 1
	h.ev[0], h.ev[n] = h.ev[n], h.ev[0]
	e := h.ev[n]
	h.ev[n].Fn = nil
	h.ev = h.ev[:n]
	// Sift the swapped-in root down.
	i := 0
	for {
		l := 2*i + 1
		if l >= n {
			break
		}
		m := l
		if r := l + 1; r < n && h.less(r, l) {
			m = r
		}
		if !h.less(m, i) {
			break
		}
		h.ev[i], h.ev[m] = h.ev[m], h.ev[i]
		i = m
	}
	return e
}

// Engine is a discrete-event scheduler with a monotone clock. Components
// clocked by the cycle (the cores) register as Steppers; sporadic work
// (message deliveries, timer expirations) is posted as events. A stepper
// steps every cycle unless it sleeps: Sleep(i, at) skips stepper i on
// every cycle before at, and Wake(i) ends the sleep. A component sleeps
// when stepping it could change nothing before at (or before some event
// wakes it), so skipping it is invisible to the simulation.
//
// Events within the scheduling horizon live in a calendar queue: a ring
// of per-cycle buckets whose backing arrays are reused cycle after cycle,
// so steady-state scheduling allocates nothing. Events beyond the horizon
// spill to a heap and migrate into their bucket as the clock approaches.
// The execution order contract is unchanged from the heap-only engine:
// events run in (At, seq) order, i.e. same-cycle events in insertion
// order.
type Engine struct {
	now     Cycle
	nextSeq uint64
	stepper []Stepper
	wake    []Cycle // per stepper: skipped while wake[i] > now

	// buckets[c & (ringSize-1)] holds the events for cycle c, for every c
	// in [now, now+ringSize). Bucket order is insertion order: far events
	// migrate in (in seq order) before any near event for the same cycle
	// can be appended, so append order equals seq order.
	buckets [ringSize][]Event
	far     eventHeap // events at/beyond now+ringSize
	pending int
}

// Stepper is a component clocked by the cycle, in registration order.
type Stepper interface {
	Step(now Cycle)
}

// Never is the wake cycle of a stepper that sleeps until it is woken.
const Never = Cycle(math.MaxInt64)

// NewEngine returns an engine at cycle 0 with no pending events. Every
// calendar bucket starts with a small capacity carved from one shared
// slab, so warming up the ring does not cost a growth allocation per
// bucket.
func NewEngine() *Engine {
	e := &Engine{}
	const per = 8
	backing := make([]Event, ringSize*per)
	for i := range e.buckets {
		e.buckets[i] = backing[i*per : i*per : (i+1)*per]
	}
	return e
}

// Now returns the current cycle.
func (e *Engine) Now() Cycle { return e.now }

// Register adds an awake stepper and returns its index, the handle for
// Sleep and Wake. Steppers run before same-cycle events, in
// registration order.
func (e *Engine) Register(s Stepper) int {
	e.stepper = append(e.stepper, s)
	e.wake = append(e.wake, 0)
	return len(e.stepper) - 1
}

// Sleep skips stepper i on every cycle before at (Never: until Wake).
func (e *Engine) Sleep(i int, at Cycle) { e.wake[i] = at }

// Wake ends stepper i's sleep at the current cycle. Called from a
// stepper during the stepper phase, it steps i later in the same cycle
// if i has not had its turn yet, and next cycle otherwise; called from
// an event, it steps i next cycle.
func (e *Engine) Wake(i int) {
	if e.wake[i] > e.now {
		e.wake[i] = e.now
	}
}

// After schedules fn to run delay cycles from now. A zero delay runs at
// the end of the current cycle (after all steppers).
func (e *Engine) After(delay Cycle, fn func()) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	e.nextSeq++
	e.pending++
	at := e.now + delay
	if delay < ringSize {
		// Any spilled event for a cycle within the horizon must land in
		// its bucket before this near append, or bucket order would stop
		// matching seq order. Tick migrates eagerly, so this loop only
		// runs when After is called outside a Tick (e.g. test setup).
		e.migrate()
		b := &e.buckets[at&(ringSize-1)]
		*b = append(*b, Event{At: at, Fn: fn, seq: e.nextSeq})
		return
	}
	e.far.push(Event{At: at, Fn: fn, seq: e.nextSeq})
}

// migrate moves every spilled event whose cycle is within the horizon
// into its calendar bucket. The heap pops in (At, seq) order and no near
// event for a newly-reachable cycle can precede its migrated events, so
// bucket append order stays seq order.
func (e *Engine) migrate() {
	horizon := e.now + ringSize - 1
	for len(e.far.ev) > 0 && e.far.ev[0].At <= horizon {
		ev := e.far.pop()
		b := &e.buckets[ev.At&(ringSize-1)]
		*b = append(*b, ev)
	}
}

// Pending reports the number of queued events.
func (e *Engine) Pending() int { return e.pending }

// Tick advances the clock one cycle: every awake stepper steps, then
// every event scheduled at (or before) the new current cycle runs in
// order.
func (e *Engine) Tick() {
	// The cycle now+ringSize-1 enters the horizon this tick: migrate any
	// spilled events for it before steppers can post near events.
	e.migrate()

	for i, s := range e.stepper {
		if e.wake[i] > e.now {
			continue
		}
		s.Step(e.now)
	}

	// Run this cycle's bucket. Events may append to it while it runs
	// (zero-delay scheduling), so re-check the length each iteration.
	b := &e.buckets[e.now&(ringSize-1)]
	for i := 0; i < len(*b); i++ {
		fn := (*b)[i].Fn
		(*b)[i].Fn = nil // release the closure; the slot is reused
		e.pending--
		fn()
	}
	*b = (*b)[:0]
	e.now++
}

// RunUntil ticks until pred returns true or limit cycles elapse. It
// returns true if pred was satisfied. The limit guards against deadlocked
// simulations in tests.
func (e *Engine) RunUntil(pred func() bool, limit Cycle) bool {
	for e.now < limit {
		if pred() {
			return true
		}
		e.Tick()
	}
	return pred()
}
