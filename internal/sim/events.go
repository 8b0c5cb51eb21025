package sim

import "math"

// Cycle is a point in simulated time. The whole machine shares one clock.
type Cycle int64

// Event is a callback scheduled to run at a given cycle.
type Event struct {
	At  Cycle
	Fn  func()
	seq uint64 // insertion order, breaks ties deterministically (serial)
	key *EvKey // post-site key, same order shard-independently (sharded)
}

// ringSize is the calendar-queue horizon in cycles. Nearly every delay in
// the simulated machine (cache hits, mesh hops, the 200-cycle memory
// round trip, spin backoffs) is far below it, so the heap spill path is
// cold. Must be a power of two.
const ringSize = 512

// eventHeap orders far-future events by (At, seq) in serial mode and
// (At, key) in sharded mode, so that simultaneous events run in serial
// insertion order. It holds events by value with concrete (non-interface)
// push/pop: the container/heap API would box every Event into an `any`
// on both Push and Pop, allocating on the spill path. The backing array
// is retained across drain/refill cycles.
type eventHeap struct {
	ev      []Event
	sharded bool
}

func (h *eventHeap) less(i, j int) bool {
	a, b := &h.ev[i], &h.ev[j]
	if h.sharded {
		return evLess(a, b)
	}
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
	h.ev[n].key = nil
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
//
// An engine either runs serially (sh == nil, the default) or as one
// shard of a ShardGroup (see shard.go). The serial paths are untouched
// by sharding: every sharded branch hides behind one nil check.
type Engine struct {
	now     Cycle
	nextSeq uint64
	stepper []Stepper
	wake    []Cycle // per stepper: skipped while wake[i] > now

	// buckets[c & (ringSize-1)] holds the events for cycle c, for every c
	// in [now, now+ringSize). Bucket order is insertion order: far events
	// migrate in (in seq order) before any near event for the same cycle
	// can be appended, so append order equals seq order. In sharded mode
	// the invariant is bucket order == key order; appends preserve it
	// (see tickShard) and cross-shard injections merge-insert.
	buckets [ringSize][]Event
	far     eventHeap // events at/beyond now+ringSize
	pending int

	sh *shardCtx // nil in serial mode
}

// shardCtx is the per-shard execution context: which executor is
// currently running (for post-site keys and capture positions) and the
// shard's window/truncation state.
type shardCtx struct {
	group *ShardGroup
	id    int

	phase  uint8 // phaseStepper / phaseEvent / phaseOutside
	curPID int32 // executing stepper's global pid
	curKey *EvKey
	opIdx  int32 // per-executor post/capture counter
	outIdx int32 // counter for outside-executor posts

	stepperPID []int32 // global pid per registered stepper

	truncated bool // stop after the current cycle (barrier arrival)
	catchUp   bool // posts must merge-insert (out-of-band Step replay)

	// keySlab carves post-site keys in batches: one allocation per 128
	// posts instead of one each. Keys are written once here and only
	// read afterwards, so slabs may outlive the shard's window (cross-
	// shard events and capture positions keep referencing them).
	keySlab []EvKey
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
// registration order. In sharded mode the stepper's global pid defaults
// to its registration index; use RegisterPID when shard registration
// order differs from global pid order.
func (e *Engine) Register(s Stepper) int {
	return e.RegisterPID(s, len(e.stepper))
}

// RegisterPID is Register for a stepper carrying its global pid, which
// post-site keys and capture positions use so that the global stepper
// order is the serial machine's pid order regardless of sharding.
// Steppers must be registered in ascending pid order within a shard.
func (e *Engine) RegisterPID(s Stepper, pid int) int {
	e.stepper = append(e.stepper, s)
	e.wake = append(e.wake, 0)
	if e.sh != nil {
		e.sh.stepperPID = append(e.sh.stepperPID, int32(pid))
	}
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

// newPostKey allocates the post-site key for an event posted now. Keys
// are carved from the shard-local slab: identity comparisons (KeyCmp's
// a == b) still hold because every key is a distinct slab slot.
func (e *Engine) newPostKey() *EvKey {
	sh := e.sh
	if len(sh.keySlab) == 0 {
		sh.keySlab = make([]EvKey, 128)
	}
	k := &sh.keySlab[0]
	sh.keySlab = sh.keySlab[1:]
	k.cycle = e.now
	switch sh.phase {
	case phaseStepper:
		sh.opIdx++
		k.pid, k.idx = sh.curPID, sh.opIdx
	case phaseEvent:
		sh.opIdx++
		k.parent, k.idx = sh.curKey, sh.opIdx
	default:
		sh.outIdx++
		k.pid, k.idx = -1, sh.outIdx
	}
	return k
}

// CapturePos returns the current execution position for tagging a
// deferred observer/tracer call. It shares the per-executor counter with
// event posts, so interleaved posts and captures stay totally ordered.
func (e *Engine) CapturePos() CapPos {
	sh := e.sh
	sh.opIdx++
	switch sh.phase {
	case phaseStepper:
		return CapPos{Cycle: e.now, phase: phaseStepper, pid: sh.curPID, idx: sh.opIdx}
	case phaseEvent:
		return CapPos{Cycle: e.now, phase: phaseEvent, key: sh.curKey, idx: sh.opIdx}
	default:
		return CapPos{Cycle: e.now, phase: phaseOutside, pid: -1, idx: sh.opIdx}
	}
}

// After schedules fn to run delay cycles from now. A zero delay runs at
// the end of the current cycle (after all steppers).
func (e *Engine) After(delay Cycle, fn func()) {
	if delay < 0 {
		panic("sim: negative event delay")
	}
	if e.sh != nil {
		e.insertKeyed(Event{At: e.now + delay, Fn: fn, key: e.newPostKey()})
		return
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

// insertKeyed places a keyed event (sharded mode). Ordinary posts append
// to their bucket: a post made at cycle `now` carries the largest key of
// any event currently in a near bucket, so appends keep buckets sorted.
// Out-of-band posts (cross-shard injection at a barrier, barrier-release
// catch-up) may carry keys older than bucket residents and merge-insert.
func (e *Engine) insertKeyed(ev Event) {
	if ev.At < e.now {
		panic("sim: keyed event scheduled in the past")
	}
	if ev.At == e.now && e.sh.catchUp {
		panic("sim: zero-delay post during barrier catch-up")
	}
	e.pending++
	if ev.At-e.now >= ringSize {
		e.far.push(ev)
		return
	}
	e.migrate()
	b := &e.buckets[ev.At&(ringSize-1)]
	if n := len(*b); n == 0 || !e.sh.catchUp && !evLess(&ev, &(*b)[n-1]) {
		*b = append(*b, ev)
		return
	}
	// Merge-insert (rare): binary search for the insertion point.
	lo, hi := 0, len(*b)
	for lo < hi {
		mid := (lo + hi) / 2
		if evLess(&(*b)[mid], &ev) {
			lo = mid + 1
		} else {
			hi = mid
		}
	}
	*b = append(*b, Event{})
	copy((*b)[lo+1:], (*b)[lo:])
	(*b)[lo] = ev
}

// migrate moves every spilled event whose cycle is within the horizon
// into its calendar bucket. The heap pops in (At, seq) order and no near
// event for a newly-reachable cycle can precede its migrated events, so
// bucket append order stays seq order. In sharded mode a bucket may
// already hold injected cross-shard events, so migration merge-inserts.
func (e *Engine) migrate() {
	horizon := e.now + ringSize - 1
	for len(e.far.ev) > 0 && e.far.ev[0].At <= horizon {
		ev := e.far.pop()
		b := &e.buckets[ev.At&(ringSize-1)]
		if e.sh != nil && len(*b) > 0 && evLess(&ev, &(*b)[len(*b)-1]) {
			lo, hi := 0, len(*b)
			for lo < hi {
				mid := (lo + hi) / 2
				if evLess(&(*b)[mid], &ev) {
					lo = mid + 1
				} else {
					hi = mid
				}
			}
			*b = append(*b, Event{})
			copy((*b)[lo+1:], (*b)[lo:])
			(*b)[lo] = ev
			continue
		}
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

// tickShard is Tick for one shard: identical structure, but it maintains
// the executor context that post-site keys and capture positions read.
func (e *Engine) tickShard() {
	e.migrate()
	sh := e.sh

	sh.phase = phaseStepper
	for i, s := range e.stepper {
		if e.wake[i] > e.now {
			continue
		}
		sh.curPID = sh.stepperPID[i]
		sh.opIdx = 0
		s.Step(e.now)
	}

	sh.phase = phaseEvent
	b := &e.buckets[e.now&(ringSize-1)]
	for i := 0; i < len(*b); i++ {
		ev := &(*b)[i]
		fn := ev.Fn
		sh.curKey = ev.key
		sh.opIdx = 0
		e.pending--
		fn()
		// Release after running: a zero-delay post from fn compares its
		// key against this slot's (the bucket tail) to stay sorted.
		ev = &(*b)[i] // fn may have grown the bucket and moved it
		ev.Fn = nil
		ev.key = nil
	}
	*b = (*b)[:0]
	sh.curKey = nil
	sh.phase = phaseOutside
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

// Clock is the read-only view of simulated time. A serial run hands
// components the *Engine itself; the sharded machine hands observers a
// replay clock that tracks the cycle each deferred call originally
// happened at.
type Clock interface {
	Now() Cycle
}
