package core

import (
	"fmt"
	"runtime"
	"runtime/debug"

	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/cpu"
	"pacifier/internal/machine"
	"pacifier/internal/record"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// ---------------------------------------------------------------------
// fanout: one machine, many recorders, two goroutines
// ---------------------------------------------------------------------
//
// The machine reports to a fanout, the producer end of an ordered event
// stream: each observer call becomes one event, stamped with the cycle
// it happened at, appended to a fixed-size batch. A sink goroutine takes
// the filled batches in order and delivers every event to every
// recorder, in attachment order, with the recorders' clock set to the
// event's cycle — exactly the calls, order and times the recorders
// would see attached to the machine directly. See DESIGN.md, "Record
// pipeline".
//
// Two observer calls return a value to the machine, and neither waits
// for the recorders:
//   - SnapshotSource returns a ticket. The sink fills the ticket's
//     per-recorder snapshots when it delivers the call, and re-splits
//     them when a dependence carrying the ticket is delivered.
//   - QueryPWForLine is answered by pending windows the fanout keeps
//     itself (non-atomic runs only, the only ones that query), fed the
//     same events that move a recorder's windows.

// evKind names the observer call an event stands for.
type evKind uint8

const (
	evDispatch evKind = iota
	evRetire
	evPerformed
	evLoadValue
	evLoadForwarded
	evIdle
	evSnapshot
	evLocalSource
	evDependence
	evHold
	evLogOld
	evRelease
	evPerformedWrt
)

// event is one observer call: its core and SN (for OnStorePerformedWrt
// the sharer and the writer's SN), the cycle it happened at, and the
// rest of its arguments in a and b:
//
//	evDispatch       a = address, b = op kind
//	evLoadValue      a = address, b = value
//	evLoadForwarded  a = store SN, b = value
//	evIdle           a = cycles
//	evSnapshot       a = ticket
//	evLocalSource    a = 1 for a write
//	evDependence     a = index of the dependence in its batch's deps
//	evLogOld         a = line, b = value
//	evPerformedWrt   a = line, b = writer core << 1 | 1 for a write
type event struct {
	cycle sim.Cycle
	sn    coherence.SN
	a, b  uint64
	pid   int32
	kind  evKind
}

const (
	// batchLen is the number of events one batch holds.
	batchLen = 1024
	// inFlight is the number of batches one recording circulates; the
	// machine blocks when the sink holds all of them.
	inFlight = 8
)

// batch is a run of events and the dependences they refer to.
type batch struct {
	n    int
	deps []coherence.Dependence
	evs  [batchLen]event
}

// batches keeps batches between recordings, so that the next one reuses
// them instead of allocating. It is a buffered channel, not a sync.Pool,
// because the garbage collector empties a pool: a job whose replays
// collect between two recordings would allocate its batches again. It
// holds inFlight batches for each recording that can run at once, one
// per GOMAXPROCS; a batch that does not fit is dropped.
var batches = make(chan *batch, inFlight*runtime.GOMAXPROCS(0))

// newBatch allocates a batch when batches is empty.
var newBatch = func() *batch { return new(batch) }

// getBatch takes a kept batch, or allocates one if none is kept.
func getBatch() *batch {
	select {
	case b := <-batches:
		return b
	default:
		return newBatch()
	}
}

// putBatch keeps an emptied batch for a later recording, unless batches
// is full.
func putBatch(b *batch) {
	select {
	case batches <- b:
	default:
	}
}

// fanout is the producer end. Every field belongs to the machine's
// goroutine.
type fanout struct {
	eng  *sim.Engine
	cur  *batch      // the batch being filled
	full chan *batch // filled batches, in order, to the sink
	free chan *batch // delivered batches, back from the sink
	sink *sink
	// nextID is the last snapshot ticket issued.
	nextID int64
	// pw holds one pending window per core in non-atomic runs, nil in
	// atomic ones.
	pw      []*record.PendingWindow
	stopped bool
}

var _ machine.Observer = (*fanout)(nil)

// newFanout returns the fanout of an n-core machine. Non-atomic runs
// query pending windows, so there it keeps one of pwSize entries per
// core.
func newFanout(n int, atomic bool, pwSize int) *fanout {
	f := &fanout{}
	if !atomic {
		f.pw = make([]*record.PendingWindow, n)
		for pid := range f.pw {
			f.pw[pid] = record.NewPendingWindow(pwSize)
		}
	}
	return f
}

// start begins streaming to s: from now on the machine's observer calls
// reach s's recorders on a goroutine of s's own.
func (f *fanout) start(eng *sim.Engine, s *sink) {
	f.eng, f.sink = eng, s
	// Both channels have room for every batch, so only a receive can
	// block: the sink's when the machine is behind, the machine's when
	// the sink holds every batch.
	f.full = make(chan *batch, inFlight)
	f.free = make(chan *batch, inFlight)
	for i := 0; i < inFlight-1; i++ {
		f.free <- getBatch()
	}
	f.cur = getBatch()
	s.done = make(chan struct{})
	go s.run(f.full, f.free)
}

// put appends one event to the current batch, handing the batch over
// once it is full.
func (f *fanout) put(kind evKind, pid int, sn coherence.SN, a, b uint64) {
	bt := f.cur
	bt.evs[bt.n] = event{cycle: f.eng.Now(), sn: sn, a: a, b: b, pid: int32(pid), kind: kind}
	bt.n++
	if bt.n == batchLen {
		f.flush()
	}
}

// flush hands the current batch to the sink and takes an empty one
// back, blocking while the sink holds every other batch. A sink that
// died of a recorder panic ends the recording here, on the machine's
// goroutine.
func (f *fanout) flush() {
	f.full <- f.cur
	f.cur = nil
	select {
	case f.cur = <-f.free:
	case <-f.sink.done:
		f.sink.rethrow()
	}
}

// stop hands over the partial batch, ends the stream and waits until the
// sink has delivered every event and returned; after it the recorders
// belong to the caller again. It runs on every way out of Record, so a
// second call is a no-op.
func (f *fanout) stop() {
	if f.stopped {
		return
	}
	f.stopped = true
	if f.cur != nil {
		f.full <- f.cur
		f.cur = nil
	}
	close(f.full)
	<-f.sink.done
	for len(f.free) > 0 {
		putBatch(<-f.free)
	}
}

func (f *fanout) OnDispatch(pid int, sn cpu.SN, kind trace.OpKind, addr coherence.Addr) {
	if f.pw != nil {
		f.pw[pid].Dispatch(sn, kind, addr, record.LineOf(addr))
	}
	f.put(evDispatch, pid, sn, uint64(addr), uint64(kind))
}

func (f *fanout) OnRetire(pid int, sn cpu.SN) { f.put(evRetire, pid, sn, 0, 0) }

func (f *fanout) OnPerformed(pid int, sn cpu.SN) {
	if f.pw != nil && f.pw[pid].Perform(sn) != nil {
		f.pw[pid].Drain()
	}
	f.put(evPerformed, pid, sn, 0, 0)
}

func (f *fanout) OnLoadValue(pid int, sn cpu.SN, addr coherence.Addr, val uint64) {
	if f.pw != nil {
		f.pw[pid].SetLoadValue(sn, val)
	}
	f.put(evLoadValue, pid, sn, uint64(addr), val)
}

func (f *fanout) OnLoadForwarded(pid int, loadSN, storeSN cpu.SN, val uint64) {
	f.put(evLoadForwarded, pid, loadSN, uint64(storeSN), val)
}

func (f *fanout) OnIdle(pid int, cycles int64) { f.put(evIdle, pid, 0, uint64(cycles), 0) }

// SnapshotSource issues the next ticket. Every call takes one, even if
// every recorder's snapshot turns out invalid: each recorder then drops
// the dependences that carry it, as it drops any invalid snapshot.
func (f *fanout) SnapshotSource(pid int, sn coherence.SN) coherence.SrcSnap {
	f.nextID++
	f.put(evSnapshot, pid, sn, uint64(f.nextID), 0)
	return coherence.SrcSnap{Valid: true, PID: pid, CID: f.nextID}
}

// OnDependence streams a dependence whose snapshot is a ticket. A
// snapshot that is not one (the zero snapshot of a source the machine
// never snapshotted) is dropped.
func (f *fanout) OnDependence(d coherence.Dependence) {
	if d.Snap.CID < 1 || d.Snap.CID > f.nextID {
		return
	}
	bt := f.cur
	bt.deps = append(bt.deps, d)
	f.put(evDependence, d.Dst.PID, d.Dst.SN, uint64(len(bt.deps)-1), 0)
}

func (f *fanout) OnLocalSource(pid int, sn coherence.SN, isWrite bool) {
	f.put(evLocalSource, pid, sn, bit(isWrite), 0)
}

// QueryPWForLine answers from the fanout's own windows, which have seen
// exactly the events every recorder will have seen when this call
// reaches it.
func (f *fanout) QueryPWForLine(pid int, line cache.Line) coherence.PWQueryResult {
	if f.pw == nil {
		panic("core: pending-window query in an atomic run")
	}
	return f.pw[pid].Query(line)
}

func (f *fanout) OnHoldPWEntry(pid int, sn coherence.SN) {
	if f.pw != nil {
		f.pw[pid].SetHeld(sn, true)
	}
	f.put(evHold, pid, sn, 0, 0)
}

func (f *fanout) OnLogOldValue(pid int, sn coherence.SN, line cache.Line, val uint64) {
	f.put(evLogOld, pid, sn, uint64(line), val)
}

func (f *fanout) OnReleasePWEntry(pid int, sn coherence.SN) {
	if f.pw != nil {
		f.pw[pid].SetHeld(sn, false)
		f.pw[pid].Drain()
	}
	f.put(evRelease, pid, sn, 0, 0)
}

func (f *fanout) OnStorePerformedWrt(w coherence.AccessRef, pid int, line cache.Line) {
	f.put(evPerformedWrt, pid, w.SN, uint64(line), uint64(w.PID)<<1|bit(w.IsWrite))
}

func bit(b bool) uint64 {
	if b {
		return 1
	}
	return 0
}

// ---------------------------------------------------------------------
// sink: the recorders' goroutine
// ---------------------------------------------------------------------

// clock is the recorders' simulated time on the sink: the cycle of the
// event being delivered.
type clock struct{ now sim.Cycle }

func (c *clock) Now() sim.Cycle { return c.now }

// snapEntry is one recorder's snapshot for one ticket. A recorder
// snapshots the core it is asked about, so the core is the ticket's and
// only the chunk id and timestamp are kept; cid -1 is an invalid
// snapshot.
type snapEntry struct{ cid, ts int64 }

// snapBlock is the number of tickets one block of sink.snaps holds.
const snapBlock = 1024

// sink is the consumer end. Between fanout.start and the end of
// fanout.stop every field belongs to the sink's goroutine.
type sink struct {
	recs  []*record.Recorder
	clock clock
	// snaps holds the entries of tickets 1..n in blocks of snapBlock
	// tickets, len(recs) entries per ticket (see snapsOf). A ticket can
	// be delivered many times (every store of a miss epoch, every later
	// cache hit on the line), so every entry is kept for the run.
	snaps [][]snapEntry
	done  chan struct{} // closed when run returns
	// panicked and stack record a recorder panic (nil if none).
	panicked any
	stack    []byte
}

// run delivers batches until the stream ends, recovering a recorder
// panic so that the recording's own goroutine can raise it.
func (s *sink) run(full <-chan *batch, free chan<- *batch) {
	defer func() {
		if p := recover(); p != nil {
			s.panicked, s.stack = p, debug.Stack()
		}
		close(s.done)
	}()
	for b := range full {
		s.deliver(b)
		b.n, b.deps = 0, b.deps[:0]
		free <- b
	}
}

// rethrow re-raises a recorder panic on the calling goroutine. Call it
// only once the sink is done.
func (s *sink) rethrow() {
	if s.panicked != nil {
		panic(&recorderPanic{val: s.panicked, stack: s.stack})
	}
}

// recorderPanic is what Record panics with when a recorder panicked: the
// recorder's panic value and the stack of the goroutine it ran on.
type recorderPanic struct {
	val   any
	stack []byte
}

func (p *recorderPanic) Error() string {
	return fmt.Sprintf("%v\n\nrecorder goroutine:\n%s", p.val, p.stack)
}

// snapsOf returns the per-recorder entries of ticket id, allocating its
// block when id is the first of a new one. Tickets are 1-based.
func (s *sink) snapsOf(id int64) []snapEntry {
	n := len(s.recs)
	b, off := (id-1)/snapBlock, int((id-1)%snapBlock)*n
	if b == int64(len(s.snaps)) {
		s.snaps = append(s.snaps, make([]snapEntry, snapBlock*n))
	}
	return s.snaps[b][off : off+n]
}

// deliver makes every event's call on every recorder, in order.
func (s *sink) deliver(b *batch) {
	recs := s.recs
	for i := range b.evs[:b.n] {
		e := &b.evs[i]
		s.clock.now = e.cycle
		pid, sn := int(e.pid), e.sn
		switch e.kind {
		case evDispatch:
			kind, addr := trace.OpKind(e.b), coherence.Addr(e.a)
			for _, r := range recs {
				r.OnDispatch(pid, sn, kind, addr)
			}
		case evRetire:
			for _, r := range recs {
				r.OnRetire(pid, sn)
			}
		case evPerformed:
			for _, r := range recs {
				r.OnPerformed(pid, sn)
			}
		case evLoadValue:
			for _, r := range recs {
				r.OnLoadValue(pid, sn, coherence.Addr(e.a), e.b)
			}
		case evLoadForwarded:
			for _, r := range recs {
				r.OnLoadForwarded(pid, sn, coherence.SN(e.a), e.b)
			}
		case evIdle:
			for _, r := range recs {
				r.OnIdle(pid, int64(e.a))
			}
		case evSnapshot:
			all := s.snapsOf(int64(e.a))
			for j, r := range recs {
				snap := r.SnapshotSource(pid, sn)
				if !snap.Valid {
					all[j] = snapEntry{cid: -1}
					continue
				}
				if snap.PID != pid {
					panic(fmt.Sprintf("core: %v snapshot of core %d names core %d", r.Mode(), pid, snap.PID))
				}
				all[j] = snapEntry{cid: snap.CID, ts: snap.TS}
			}
		case evLocalSource:
			for _, r := range recs {
				r.OnLocalSource(pid, sn, e.a != 0)
			}
		case evDependence:
			d := b.deps[e.a]
			src := d.Snap.PID
			all := s.snapsOf(d.Snap.CID)
			for j, r := range recs {
				if se := all[j]; se.cid < 0 {
					d.Snap = coherence.SrcSnap{}
				} else {
					d.Snap = coherence.SrcSnap{Valid: true, PID: src, CID: se.cid, TS: se.ts}
				}
				r.OnDependence(d)
			}
		case evHold:
			for _, r := range recs {
				r.OnHoldPWEntry(pid, sn)
			}
		case evLogOld:
			for _, r := range recs {
				r.OnLogOldValue(pid, sn, cache.Line(e.a), e.b)
			}
		case evRelease:
			for _, r := range recs {
				r.OnReleasePWEntry(pid, sn)
			}
		case evPerformedWrt:
			w := coherence.AccessRef{PID: int(e.b >> 1), SN: sn, IsWrite: e.b&1 != 0}
			for _, r := range recs {
				r.OnStorePerformedWrt(w, pid, cache.Line(e.a))
			}
		}
	}
}
