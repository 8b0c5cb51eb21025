package coherence

import (
	"fmt"

	"pacifier/internal/cache"
	"pacifier/internal/noc"
	"pacifier/internal/prof"
	"pacifier/internal/sim"
)

// Completion callback types. Every callback carries the operation's SN,
// so a core can hand the same pre-bound function value to every request
// instead of allocating a per-operation closure.
type (
	// LoadDone fires when a load performs, with its value.
	LoadDone func(sn SN, v uint64)
	// StoreLocal fires when a store is performed w.r.t. the issuing core.
	StoreLocal func(sn SN)
	// StoreDone fires when a store is globally performed.
	StoreDone func(sn SN)
	// RMWDone fires at an RMW's global perform with the old value and
	// whether the update was applied.
	RMWDone func(sn SN, old uint64, applied bool)
)

// loadWaiter is a load parked in an MSHR until data arrives.
type loadWaiter struct {
	a    Addr
	sn   SN
	done LoadDone
}

// storeWaiter is a store parked in an MSHR until ownership arrives.
type storeWaiter struct {
	a     Addr
	val   uint64
	sn    SN
	local StoreLocal // performed w.r.t. the issuing core (data+ownership here)
	done  StoreDone  // globally performed (all invalidation acks in)
}

// rmwWaiter is an atomic read-modify-write parked until ownership.
type rmwWaiter struct {
	a      Addr
	sn     SN
	update func(old uint64) (uint64, bool)
	done   RMWDone
	// captured at apply time, reported at global perform:
	old     uint64
	applied bool
}

// mshr tracks one outstanding miss per line, from request to data
// arrival. Ack counting after data arrival lives in ackTracker so a
// second miss epoch can begin while old invalidation acks are in flight
// (possible in non-atomic mode).
type mshr struct {
	line   cache.Line
	wantM  bool
	start  sim.Cycle // allocation time, for miss-service attribution
	loads  []loadWaiter
	stores []storeWaiter
	rmws   []rmwWaiter
	// staleInv: an invalidation for this line arrived while the read
	// miss was in flight (the invalidation came from the home, the data
	// from the old owner — different ordered channels). The data is
	// coherent as of its serve time but already superseded: waiting
	// loads use it once, their values are logged, and the line is not
	// installed.
	staleInv bool
}

// ackTracker counts invalidation acks for one store epoch.
type ackTracker struct {
	line    cache.Line
	storeSN SN // primary (oldest) store of the epoch, tags Inv/InvAck matching
	needed  int
	got     int
	start   sim.Cycle // epoch open time, for the invalidation-latency histogram
	// newValObserved: in non-atomic mode, a remote reader was forwarded
	// the new value before all acks arrived (Section 3.2 trigger).
	newValObserved bool
	stores         []storeWaiter
	rmws           []rmwWaiter
	unblockAtDone  bool // atomic mode: home unblocks at global perform
	finished       bool // completion callbacks already fired
}

func (t *ackTracker) complete() bool { return t.needed >= 0 && t.got >= t.needed }

// stashedAck is an invalidation ack waiting for its tracker to exist.
type stashedAck struct {
	from     noc.NodeID
	writer   AccessRef
	warValid bool
	warSrc   AccessRef
	snap     SrcSnap
	pwq      PWQueryResult
}

// Deferred-request kinds (requests parked behind an in-flight eviction
// writeback, reissued on PutAck).
const (
	defLoad uint8 = iota
	defStore
	defRMW
)

// deferredOp is one parked request. A typed struct instead of a closure:
// the deferral path must not allocate beyond the queue slot itself.
type deferredOp struct {
	kind   uint8
	a      Addr
	val    uint64
	sn     SN
	ldone  LoadDone
	local  StoreLocal
	sdone  StoreDone
	update func(old uint64) (uint64, bool)
	rdone  RMWDone
}

// Reply kinds (see reply).
const (
	rLoad uint8 = iota
	rStoreLocal
	rStoreBoth
	rRMW
)

// reply is a pooled one-shot completion event for the hit paths. Its fn
// field is bound once at allocation, so scheduling a reply through the
// engine costs no closure allocation.
type reply struct {
	c       *L1
	kind    uint8
	sn      SN
	v       uint64
	applied bool
	ldone   LoadDone
	local   StoreLocal
	sdone   StoreDone
	rdone   RMWDone
	fn      func()
}

func (rp *reply) fire() {
	c := rp.c
	kind, sn, v, applied := rp.kind, rp.sn, rp.v, rp.applied
	ldone, local, sdone, rdone := rp.ldone, rp.local, rp.sdone, rp.rdone
	rp.ldone, rp.local, rp.sdone, rp.rdone = nil, nil, nil, nil
	// Recycle before invoking: the callback may issue a new request that
	// immediately reuses this slot (fields were copied out above).
	c.replyFree = append(c.replyFree, rp)
	switch kind {
	case rLoad:
		ldone(sn, v)
	case rStoreLocal:
		local(sn)
	case rStoreBoth:
		local(sn)
		sdone(sn)
	case rRMW:
		rdone(sn, v, applied)
	}
}

// l1Line is the controller's entire per-line state, one struct per line
// interned once at first touch. It consolidates what used to be eleven
// separate map[cache.Line] tables, so every handler pays one line-ID
// lookup instead of one hash per table.
type l1Line struct {
	l cache.Line

	data []uint64 // line image; allocated at first fill, reused in place
	wb   []uint64 // eviction writeback copy (valid while wbValid)
	// wbValid marks an in-flight eviction writeback (wb holds the data
	// until the home's PutAck).
	wbValid bool

	// Recording metadata: the last local access SNs on the line, the
	// information a recorder keeps alongside the cache to source WAR/RAW
	// edges. Retained past eviction (conservative, like a directory-side
	// sticky entry) and cleared on invalidation. The has* flags replace
	// map-presence; when false the SN field is zero.
	hasRead   bool
	hasWrite  bool
	lastRead  SN
	lastWrite SN

	mshr     *mshr
	trackers []*ackTracker
	// ackCountStash holds AckCount messages that arrived before the
	// owner-forwarded data created the tracker.
	ackCountStash []int
	// ackStash holds invalidation acks that raced ahead of the DataM
	// that creates their tracker (the home delays DataM by the L2 access
	// latency but sends invalidations immediately).
	ackStash []stashedAck
	// deferred holds requests parked behind an in-flight eviction
	// writeback; they reissue when the PutAck arrives.
	deferred []deferredOp
	// epochStores lists every store/RMW SN performed on the line since
	// its current fill. A WAR arriving with a (late) invalidation ack
	// constrains all of them, not just the stores of the original miss.
	epochStores []SN
	// lineDeps remembers the dependences of the transaction that filled
	// a line. Cache hits are invisible to the protocol, but they inherit
	// the fill's ordering: if the recorder extracted the fill's
	// destination from its chunk, a hit left behind in a closed chunk
	// would otherwise replay unordered. Cleared when the line is lost.
	lineDeps []Dependence
}

// L1 is one core's private cache controller.
type L1 struct {
	sys *System
	id  noc.NodeID

	arr *cache.Cache

	// ids interns a per-L1 line ID at first touch; lines is the dense
	// table those IDs index. Pointers keep slots stable across growth.
	ids      sim.Index
	lines    []*l1Line
	lineSlab []l1Line // backing store new slots are carved from
	// One-entry slot cache: consecutive accesses usually hit the same
	// line, and slots are never deleted, so the cache needs no
	// invalidation. lastSlot==nil means empty.
	lastLine cache.Line
	lastSlot *l1Line

	nMSHR int // lines with an outstanding miss (for Quiesced)
	nWB   int // lines with an in-flight eviction writeback

	mshrFree  []*mshr       // retired MSHRs for reuse
	trFree    []*ackTracker // retired ack trackers for reuse
	replyFree []*reply      // retired hit-path reply events for reuse

	dstScratch []AccessRef // per-fill dependence-destination scratch

	// Lazily resolved stat counters (nil until first use, and forever if
	// the system has no stats registry).
	cLoadHits, cLoadMisses   *sim.Counter
	cStoreHits, cStoreMisses *sim.Counter
	cRMWHits, cRMWMisses     *sim.Counter
	cStaleFills, cWritebacks *sim.Counter
	cValueLogs, cReleases    *sim.Counter

	// Cycle accounting (nil when disabled): attributes L1 hit service,
	// MSHR residency and pending-write epochs to this tile.
	lat *prof.Lat
}

func newL1(sys *System, id noc.NodeID) *L1 {
	return &L1{
		sys: sys,
		id:  id,
		arr: cache.New(sys.cfg.L1),
	}
}

func (c *L1) pid() int { return int(c.id) }

// slot interns (at most once per line) and returns the line's state.
// Slots are carved from a slab: pointer-stable, one allocation per 256
// lines instead of one each.
func (c *L1) slot(l cache.Line) *l1Line {
	if c.lastSlot != nil && c.lastLine == l {
		return c.lastSlot
	}
	var s *l1Line
	if id, added := c.ids.Intern(uint64(l)); !added {
		s = c.lines[id]
	} else {
		if len(c.lineSlab) == 0 {
			c.lineSlab = make([]l1Line, 256)
		}
		s = &c.lineSlab[0]
		c.lineSlab = c.lineSlab[1:]
		s.l = l
		c.lines = append(c.lines, s)
	}
	c.lastLine, c.lastSlot = l, s
	return s
}

// peek returns the line's state without interning, or nil.
func (c *L1) peek(l cache.Line) *l1Line {
	if c.lastSlot != nil && c.lastLine == l {
		return c.lastSlot
	}
	if id, ok := c.ids.Get(uint64(l)); ok {
		return c.lines[id]
	}
	return nil
}

func (c *L1) inc(cp **sim.Counter, name string) {
	if c.sys.stats == nil {
		return
	}
	if *cp == nil {
		*cp = c.sys.stats.Counter(name)
	}
	(*cp).Value++
}

func (c *L1) newMSHR(l cache.Line) *mshr {
	c.nMSHR++
	if n := len(c.mshrFree); n > 0 {
		ms := c.mshrFree[n-1]
		c.mshrFree = c.mshrFree[:n-1]
		ms.line = l
		ms.wantM = false
		ms.staleInv = false
		ms.start = c.sys.eng.Now()
		ms.loads = ms.loads[:0]
		ms.stores = ms.stores[:0]
		ms.rmws = ms.rmws[:0]
		return ms
	}
	return &mshr{line: l, start: c.sys.eng.Now()}
}

// retireMSHR detaches the slot's MSHR and recycles it. The MSHR's whole
// residency (request to fill, including any upgrade leg) is the miss
// service time.
func (c *L1) retireMSHR(s *l1Line) {
	ms := s.mshr
	s.mshr = nil
	c.nMSHR--
	c.lat.Add(c.sys.stats, prof.L1Miss, int64(c.sys.eng.Now()-ms.start))
	c.mshrFree = append(c.mshrFree, ms)
}

func (c *L1) getReply() *reply {
	if n := len(c.replyFree); n > 0 {
		rp := c.replyFree[n-1]
		c.replyFree = c.replyFree[:n-1]
		return rp
	}
	rp := &reply{c: c}
	rp.fn = rp.fire
	return rp
}

func (c *L1) newTracker() *ackTracker {
	if n := len(c.trFree); n > 0 {
		tr := c.trFree[n-1]
		c.trFree = c.trFree[:n-1]
		tr.storeSN = 0
		tr.needed = 0
		tr.got = 0
		tr.newValObserved = false
		tr.unblockAtDone = false
		tr.finished = false
		tr.stores = tr.stores[:0]
		tr.rmws = tr.rmws[:0]
		return tr
	}
	return &ackTracker{}
}

// deliverLineDeps reports the line's fill dependences with the hitting
// access as destination (see the lineDeps field comment).
func (c *L1) deliverLineDeps(s *l1Line, sn SN, isWrite bool) {
	if len(s.lineDeps) == 0 {
		return
	}
	dst := AccessRef{PID: c.pid(), SN: sn, IsWrite: isWrite}
	for _, d := range s.lineDeps {
		d.Dst = dst
		c.sys.obs.OnDependence(d)
	}
}

func (c *L1) noteRead(s *l1Line, sn SN) {
	if sn > s.lastRead {
		s.lastRead = sn
		s.hasRead = true
	}
}

func (c *L1) noteWrite(s *l1Line, sn SN) {
	if sn > s.lastWrite {
		s.lastWrite = sn
		s.hasWrite = true
	}
}

// ---------------------------------------------------------------------
// Core-facing API
// ---------------------------------------------------------------------

// Load issues a load. done fires (after the appropriate latency) with the
// value when the load performs.
func (c *L1) Load(a Addr, sn SN, done LoadDone) {
	l := c.arr.LineOf(a)
	if c.arr.LookupTouch(l) != cache.Invalid {
		// Hit: the value binds now; the reply pays the L1 round trip.
		s := c.slot(l)
		v := s.data[c.sys.wordIdx(a)]
		c.noteRead(s, sn)
		c.deliverLineDeps(s, sn, false)
		c.inc(&c.cLoadHits, "l1.load_hits")
		c.lat.Add(c.sys.stats, prof.L1Hit, int64(c.sys.cfg.L1HitLat))
		rp := c.getReply()
		rp.kind, rp.sn, rp.v, rp.ldone = rLoad, sn, v, done
		c.sys.eng.After(c.sys.cfg.L1HitLat, rp.fn)
		return
	}
	c.inc(&c.cLoadMisses, "l1.load_misses")
	s := c.slot(l)
	if ms := s.mshr; ms != nil {
		ms.loads = append(ms.loads, loadWaiter{a, sn, done})
		return
	}
	if s.wbValid {
		s.deferred = append(s.deferred, deferredOp{kind: defLoad, a: a, sn: sn, ldone: done})
		return
	}
	ms := c.newMSHR(l)
	ms.loads = append(ms.loads, loadWaiter{a, sn, done})
	s.mshr = ms
	ev := c.sys.getEvt()
	ev.kind, ev.l, ev.from, ev.sn = kGetS, l, c.id, sn
	c.sys.mesh.Send(c.id, c.sys.HomeNode(l), ctrlFlits, ev.fn)
}

// Store issues a store. local fires when the store is performed with
// respect to the issuing core (data and ownership present); done fires
// when it is globally performed.
func (c *L1) Store(a Addr, val uint64, sn SN, local StoreLocal, done StoreDone) {
	l := c.arr.LineOf(a)
	if c.arr.LookupTouchModified(l) == cache.Modified {
		// Hit on an owned line: performs locally at once, but it is only
		// *globally* performed when the line's pending invalidation
		// epoch (if any) completes — stale copies may still be readable
		// elsewhere, and the epoch's WAR acks constrain this store too.
		s := c.slot(l)
		s.data[c.sys.wordIdx(a)] = val
		c.noteWrite(s, sn)
		c.deliverLineDeps(s, sn, true)
		s.epochStores = append(s.epochStores, sn)
		c.inc(&c.cStoreHits, "l1.store_hits")
		c.lat.Add(c.sys.stats, prof.L1Hit, int64(c.sys.cfg.L1HitLat))
		rp := c.getReply()
		rp.sn, rp.local = sn, local
		if tr := incompleteTracker(s); tr != nil {
			rp.kind = rStoreLocal
			c.sys.eng.After(c.sys.cfg.L1HitLat, rp.fn)
			tr.stores = append(tr.stores, storeWaiter{a: a, val: val, sn: sn, local: local, done: done})
			return
		}
		rp.kind, rp.sdone = rStoreBoth, done
		c.sys.eng.After(c.sys.cfg.L1HitLat, rp.fn)
		return
	}
	c.inc(&c.cStoreMisses, "l1.store_misses")
	s := c.slot(l)
	if ms := s.mshr; ms != nil {
		ms.stores = append(ms.stores, storeWaiter{a, val, sn, local, done})
		if !ms.wantM {
			ms.wantM = true // upgrade will be launched when data arrives
		}
		return
	}
	if s.wbValid {
		s.deferred = append(s.deferred, deferredOp{kind: defStore, a: a, val: val, sn: sn, local: local, sdone: done})
		return
	}
	ms := c.newMSHR(l)
	ms.wantM = true
	ms.stores = append(ms.stores, storeWaiter{a, val, sn, local, done})
	s.mshr = ms
	c.sendGetM(l, sn)
}

// RMW issues an atomic read-modify-write (the machine's lock primitive).
// update receives the old word and returns (new, apply). done fires at
// global perform with the old value and whether the update was applied.
func (c *L1) RMW(a Addr, sn SN, update func(old uint64) (uint64, bool), done RMWDone) {
	l := c.arr.LineOf(a)
	if c.arr.LookupTouchModified(l) == cache.Modified {
		s := c.slot(l)
		w := c.sys.wordIdx(a)
		old := s.data[w]
		nv, apply := update(old)
		if apply {
			s.data[w] = nv
			c.noteWrite(s, sn)
		}
		c.deliverLineDeps(s, sn, true)
		s.epochStores = append(s.epochStores, sn)
		c.inc(&c.cRMWHits, "l1.rmw_hits")
		c.lat.Add(c.sys.stats, prof.L1Hit, int64(c.sys.cfg.L1HitLat))
		if tr := incompleteTracker(s); tr != nil {
			tr.rmws = append(tr.rmws, rmwWaiter{a: a, sn: sn, done: done, old: old, applied: apply})
			return
		}
		rp := c.getReply()
		rp.kind, rp.sn, rp.v, rp.applied, rp.rdone = rRMW, sn, old, apply, done
		c.sys.eng.After(c.sys.cfg.L1HitLat, rp.fn)
		return
	}
	c.inc(&c.cRMWMisses, "l1.rmw_misses")
	s := c.slot(l)
	if ms := s.mshr; ms != nil {
		ms.rmws = append(ms.rmws, rmwWaiter{a: a, sn: sn, update: update, done: done})
		ms.wantM = true
		return
	}
	if s.wbValid {
		s.deferred = append(s.deferred, deferredOp{kind: defRMW, a: a, sn: sn, update: update, rdone: done})
		return
	}
	ms := c.newMSHR(l)
	ms.wantM = true
	ms.rmws = append(ms.rmws, rmwWaiter{a: a, sn: sn, update: update, done: done})
	s.mshr = ms
	c.sendGetM(l, sn)
}

func (c *L1) sendGetM(l cache.Line, sn SN) {
	ev := c.sys.getEvt()
	ev.kind, ev.l, ev.from, ev.sn = kGetM, l, c.id, sn
	c.sys.mesh.Send(c.id, c.sys.HomeNode(l), ctrlFlits, ev.fn)
}

// ---------------------------------------------------------------------
// Message handlers (arrival side)
// ---------------------------------------------------------------------

// onData: home-sourced fill for a GetS.
func (c *L1) onData(l cache.Line, val []uint64, hasDep bool, src AccessRef, snap SrcSnap, reqSN SN) {
	c.fillShared(l, val, hasDep, src, snap)
}

// onDataFromOwner: owner-sourced fill for a GetS (three-hop); the
// requester must unblock the home.
func (c *L1) onDataFromOwner(l cache.Line, val []uint64, hasDep bool, src AccessRef, snap SrcSnap) {
	c.fillShared(l, val, hasDep, src, snap)
	c.unblockHome(l)
}

func (c *L1) fillShared(l cache.Line, val []uint64, hasDep bool, src AccessRef, snap SrcSnap) {
	s := c.slot(l)
	ms := s.mshr
	if ms == nil {
		panic(fmt.Sprintf("coherence: data for line %#x with no MSHR at %d", uint64(l), c.id))
	}
	if ms.staleInv {
		// Fill-and-discard: serve the waiting loads from the (already
		// superseded) data, log their values so replay needs no order
		// with the superseding writer, and leave the line invalid.
		for _, w := range ms.loads {
			v := val[c.sys.wordIdx(w.a)]
			if hasDep {
				c.sys.obs.OnDependence(Dependence{Kind: RAW, Src: src, Snap: snap,
					Dst: AccessRef{PID: c.pid(), SN: w.sn}, Line: l})
			}
			c.sys.obs.OnLogOldValue(c.pid(), w.sn, l, v)
			w.done(w.sn, v)
		}
		ms.loads = ms.loads[:0]
		c.inc(&c.cStaleFills, "l1.stale_fills")
		if ms.wantM {
			sn := SN(0)
			if len(ms.stores) > 0 {
				sn = ms.stores[0].sn
			} else if len(ms.rmws) > 0 {
				sn = ms.rmws[0].sn
			}
			ms.staleInv = false
			c.sendGetM(l, sn)
			return
		}
		c.retireMSHR(s)
		c.drainDeferred(s)
		return
	}
	c.install(s, cache.Shared, val)
	s.epochStores = s.epochStores[:0]
	if hasDep {
		s.lineDeps = append(s.lineDeps[:0], Dependence{Kind: RAW, Src: src, Snap: snap, Line: l})
	} else {
		s.lineDeps = s.lineDeps[:0]
	}
	// Every waiting load is a dependence destination: program-order
	// transitivity from the oldest is not enough, because the recorder
	// may extract the oldest into a D_set (leaving the siblings in the
	// chunk with no ordering).
	if len(ms.loads) > 0 {
		if hasDep {
			for _, w := range ms.loads {
				c.sys.obs.OnDependence(Dependence{
					Kind: RAW,
					Src:  src,
					Snap: snap,
					Dst:  AccessRef{PID: c.pid(), SN: w.sn},
					Line: l,
				})
			}
		}
		for _, w := range ms.loads {
			c.noteRead(s, w.sn)
			w.done(w.sn, s.data[c.sys.wordIdx(w.a)])
		}
		ms.loads = ms.loads[:0]
	}
	if ms.wantM {
		// Stores arrived while the read miss was outstanding: upgrade.
		sn := SN(0)
		if len(ms.stores) > 0 {
			sn = ms.stores[0].sn
		} else if len(ms.rmws) > 0 {
			sn = ms.rmws[0].sn
		}
		c.sendGetM(l, sn)
		return
	}
	c.retireMSHR(s)
	c.drainDeferred(s)
}

// onDataM: home-sourced exclusive fill, ackCount known.
func (c *L1) onDataM(l cache.Line, val []uint64, ackCount int, deps []Dependence) {
	c.fillModifiedWithDeps(l, val, ackCount, deps)
	if !c.sys.cfg.Atomic {
		c.unblockHome(l)
	}
}

// onDataMFromOwner: ownership transferred from the old owner. The ack
// count arrives separately from the home (onAckCount).
func (c *L1) onDataMFromOwner(l cache.Line, val []uint64, deps []Dependence) {
	c.fillModifiedWithDeps(l, val, -1, deps)
	// Non-atomic mode unblocks at data arrival; atomic at global perform.
	if !c.sys.cfg.Atomic {
		c.unblockHome(l)
	}
}

// fillModifiedWithDeps installs the line in M, applies every queued store
// and RMW, delivers the dependences (with the primary store as the
// destination), and opens the ack-tracking epoch.
func (c *L1) fillModifiedWithDeps(l cache.Line, val []uint64, ackCount int, deps []Dependence) {
	s := c.slot(l)
	ms := s.mshr
	if ms == nil {
		panic(fmt.Sprintf("coherence: DataM for line %#x with no MSHR at %d", uint64(l), c.id))
	}
	c.install(s, cache.Modified, val)
	s.lineDeps = append(s.lineDeps[:0], deps...)
	es := s.epochStores[:0]
	for _, sw := range ms.stores {
		es = append(es, sw.sn)
	}
	for _, rw := range ms.rmws {
		es = append(es, rw.sn)
	}
	s.epochStores = es

	primary := SN(0)
	if len(ms.stores) > 0 {
		primary = ms.stores[0].sn
	}
	if len(ms.rmws) > 0 && (primary == 0 || ms.rmws[0].sn < primary) {
		primary = ms.rmws[0].sn
	}
	// Every store and RMW of this miss epoch performs through this
	// transaction, so each is a destination of the epoch's dependences;
	// queued loads read the incoming image and are destinations too
	// (the oldest covers the rest through program order). Reporting only
	// the primary would let the recorder delay one store of the epoch
	// while siblings replay at their original position.
	if len(deps) > 0 {
		dsts := c.dstScratch[:0]
		for _, sw := range ms.stores {
			dsts = append(dsts, AccessRef{PID: c.pid(), SN: sw.sn, IsWrite: true})
		}
		for _, rw := range ms.rmws {
			dsts = append(dsts, AccessRef{PID: c.pid(), SN: rw.sn, IsWrite: true})
		}
		for _, lw := range ms.loads {
			dsts = append(dsts, AccessRef{PID: c.pid(), SN: lw.sn})
		}
		c.dstScratch = dsts
		for _, d := range deps {
			for _, dst := range dsts {
				d.Dst = dst
				c.sys.obs.OnDependence(d)
			}
		}
	}

	for i := range ms.stores {
		sw := &ms.stores[i]
		s.data[c.sys.wordIdx(sw.a)] = sw.val
		c.noteWrite(s, sw.sn)
		sw.local(sw.sn)
	}
	for i := range ms.rmws {
		rw := &ms.rmws[i]
		w := c.sys.wordIdx(rw.a)
		rw.old = s.data[w]
		nv, apply := rw.update(rw.old)
		rw.applied = apply
		if apply {
			s.data[w] = nv
			c.noteWrite(s, rw.sn)
		}
	}

	// Serve loads that were queued behind the write miss.
	for _, lw := range ms.loads {
		c.noteRead(s, lw.sn)
		lw.done(lw.sn, s.data[c.sys.wordIdx(lw.a)])
	}

	tr := c.newTracker()
	tr.line = l
	tr.storeSN = primary
	tr.start = c.sys.eng.Now()
	tr.needed = ackCount
	tr.stores = append(tr.stores, ms.stores...)
	tr.rmws = append(tr.rmws, ms.rmws...)
	tr.unblockAtDone = c.sys.cfg.Atomic
	// Consume a stashed AckCount if it raced ahead of the data.
	if tr.needed < 0 && len(s.ackCountStash) > 0 {
		tr.needed = s.ackCountStash[0]
		s.ackCountStash = s.ackCountStash[:copy(s.ackCountStash, s.ackCountStash[1:])]
	}
	s.trackers = append(s.trackers, tr)
	c.retireMSHR(s)
	// Replay acks that outran the data.
	if len(s.ackStash) > 0 {
		rest := s.ackStash[:0]
		for _, a := range s.ackStash {
			if a.writer.SN == tr.storeSN && a.writer.PID == c.pid() {
				c.applyInvAck(s, tr, a.from, a.warValid, a.warSrc, a.snap, a.pwq)
			} else {
				rest = append(rest, a)
			}
		}
		s.ackStash = rest
	}
	c.maybeCompleteTracker(s, tr)
	c.drainDeferred(s)
}

// onAckCount: the home tells the requester how many invalidation acks to
// expect for an owner-transfer GetM.
func (c *L1) onAckCount(l cache.Line, n int) {
	s := c.slot(l)
	for _, tr := range s.trackers {
		if tr.needed < 0 {
			tr.needed = n
			c.maybeCompleteTracker(s, tr)
			return
		}
	}
	s.ackCountStash = append(s.ackCountStash, n)
}

// onInv: a remote store invalidates our copy. This is the moment that
// store becomes performed with respect to this core.
func (c *L1) onInv(l cache.Line, req noc.NodeID, writer AccessRef) {
	obs := c.sys.obs
	obs.OnStorePerformedWrt(writer, c.pid(), l)

	s := c.slot(l)
	var pwq PWQueryResult
	if !c.sys.cfg.Atomic {
		pwq = obs.QueryPWForLine(c.pid(), l)
		if pwq.HasPerformedLoad {
			obs.OnHoldPWEntry(c.pid(), pwq.LoadSN)
		}
	}

	warValid := false
	var warSrc AccessRef
	var snap SrcSnap
	if s.hasRead {
		warValid = true
		warSrc = AccessRef{PID: c.pid(), SN: s.lastRead}
		snap = obs.SnapshotSource(c.pid(), s.lastRead)
		obs.OnLocalSource(c.pid(), s.lastRead, false)
	}
	s.hasRead = false
	s.lastRead = 0
	s.lineDeps = s.lineDeps[:0]
	s.epochStores = s.epochStores[:0]
	if ms := s.mshr; ms != nil && !ms.wantM {
		ms.staleInv = true
	}
	if st := c.arr.Lookup(l); st != cache.Invalid {
		if c.sys.tr != nil {
			c.sys.traceMESI(c.pid(), l, st, cache.Invalid)
		}
		c.arr.Evict(l)
	}
	ev := c.sys.getEvt()
	ev.kind, ev.to, ev.l, ev.from = kInvAck, req, l, c.id
	ev.ref1, ev.f1, ev.ref2, ev.snap, ev.pwq = writer, warValid, warSrc, snap, pwq
	c.sys.mesh.Send(c.id, req, ctrlFlits, ev.fn)
}

// onInvAck: the writer collects an invalidation ack. Acks can outrun the
// DataM that creates their tracker; those wait in the stash.
func (c *L1) onInvAck(l cache.Line, from noc.NodeID, writer AccessRef,
	warValid bool, warSrc AccessRef, snap SrcSnap, pwq PWQueryResult) {

	s := c.slot(l)
	tr := trackerFor(s, writer.SN)
	if tr == nil {
		s.ackStash = append(s.ackStash, stashedAck{from, writer, warValid, warSrc, snap, pwq})
		return
	}
	c.applyInvAck(s, tr, from, warValid, warSrc, snap, pwq)
}

func (c *L1) applyInvAck(s *l1Line, tr *ackTracker, from noc.NodeID,
	warValid bool, warSrc AccessRef, snap SrcSnap, pwq PWQueryResult) {

	l := s.l
	tr.got++

	// Section 3.2: if the invalidated sharer still holds a performed load
	// to this line in its PW and the new value was already observed by a
	// third processor, the non-atomicity is visible. The writer asks the
	// sharer to log the old value it read, and this WAR does not create a
	// chunk order.
	logPath := false
	if pwq.HasPerformedLoad {
		if tr.newValObserved {
			logPath = true
			ev := c.sys.getEvt()
			ev.kind, ev.to, ev.sn, ev.l, ev.v = kLogOld, from, pwq.LoadSN, l, pwq.OldValue
			c.sys.mesh.Send(c.id, from, ctrlFlits, ev.fn)
			c.inc(&c.cValueLogs, "nonatomic.value_logs")
		} else {
			// The "unnecessary message exchange" of Section 3.2: release
			// the held PW entry without logging.
			ev := c.sys.getEvt()
			ev.kind, ev.to, ev.sn = kRelease, from, pwq.LoadSN
			c.sys.mesh.Send(c.id, from, ctrlFlits, ev.fn)
			c.inc(&c.cReleases, "nonatomic.releases")
		}
	}
	if warValid && !logPath {
		// The WAR constrains every store performed on the line this
		// epoch — the miss's own stores AND any hits that landed while
		// the invalidations were in flight — plus all future hits (via
		// lineDeps) until the line is lost.
		war := Dependence{Kind: WAR, Src: warSrc, Snap: snap, Line: l}
		delivered := false
		for _, sn := range s.epochStores {
			war.Dst = AccessRef{PID: c.pid(), SN: sn, IsWrite: true}
			c.sys.obs.OnDependence(war)
			delivered = true
		}
		if !delivered {
			// Line already lost: fall back to the tracker's stores.
			for _, sw := range tr.stores {
				war.Dst = AccessRef{PID: c.pid(), SN: sw.sn, IsWrite: true}
				c.sys.obs.OnDependence(war)
			}
			for _, rw := range tr.rmws {
				war.Dst = AccessRef{PID: c.pid(), SN: rw.sn, IsWrite: true}
				c.sys.obs.OnDependence(war)
			}
		}
		if len(s.lineDeps) > 0 || len(s.epochStores) > 0 {
			s.lineDeps = append(s.lineDeps, Dependence{Kind: WAR, Src: warSrc, Snap: snap, Line: l})
		}
	}
	c.maybeCompleteTracker(s, tr)
}

// incompleteTracker returns the line's pending ack epoch, if any.
func incompleteTracker(s *l1Line) *ackTracker {
	for _, tr := range s.trackers {
		if !tr.finished {
			return tr
		}
	}
	return nil
}

func trackerFor(s *l1Line, storeSN SN) *ackTracker {
	for _, tr := range s.trackers {
		if tr.storeSN == storeSN {
			return tr
		}
	}
	return nil
}

func (c *L1) maybeCompleteTracker(s *l1Line, tr *ackTracker) {
	if tr.finished || !tr.complete() {
		return
	}
	tr.finished = true
	if tr.needed > 0 {
		c.sys.observeInvLatency(c.sys.eng.Now() - tr.start)
		c.lat.Add(c.sys.stats, prof.PW, int64(c.sys.eng.Now()-tr.start))
	}
	for _, sw := range tr.stores {
		sw.done(sw.sn)
	}
	for _, rw := range tr.rmws {
		rw.done(rw.sn, rw.old, rw.applied)
	}
	if tr.unblockAtDone {
		c.unblockHome(s.l)
	}
	for i, t := range s.trackers {
		if t == tr {
			s.trackers = append(s.trackers[:i], s.trackers[i+1:]...)
			c.trFree = append(c.trFree, tr)
			break
		}
	}
}

func (c *L1) unblockHome(l cache.Line) {
	ev := c.sys.getEvt()
	ev.kind, ev.l = kUnblock, l
	c.sys.mesh.Send(c.id, c.sys.HomeNode(l), ctrlFlits, ev.fn)
}

// onFwdGetS: we own the line dirty; a remote read wants it. Send the data
// to the requester, a writeback copy to the home, and downgrade to S.
func (c *L1) onFwdGetS(l cache.Line, req noc.NodeID, reqSN SN, homeID noc.NodeID) {
	s := c.slot(l)
	val, fromWB := c.ownedData(s)
	if !fromWB {
		if c.sys.tr != nil {
			c.sys.traceMESI(c.pid(), l, c.arr.Lookup(l), cache.Shared)
		}
		c.arr.SetState(l, cache.Shared)
	}
	// A forwarded read during our own pending-ack window means the new
	// value escaped before the store globally performed (non-atomic).
	for _, tr := range s.trackers {
		if !tr.complete() {
			tr.newValObserved = true
		}
	}
	hasDep := false
	var src AccessRef
	var snap SrcSnap
	if s.hasWrite {
		hasDep = true
		src = AccessRef{PID: c.pid(), SN: s.lastWrite, IsWrite: true}
		snap = c.sys.obs.SnapshotSource(c.pid(), s.lastWrite)
		c.sys.obs.OnLocalSource(c.pid(), s.lastWrite, true)
	}
	out := c.sys.getBuf()
	copy(out, val)
	ev := c.sys.getEvt()
	ev.kind, ev.to, ev.l, ev.val = kDataFromOwner, req, l, out
	ev.f1, ev.ref1, ev.snap = hasDep, src, snap
	c.sys.mesh.Send(c.id, req, dataFlits, ev.fn)
	wb := c.sys.getBuf()
	copy(wb, val)
	wev := c.sys.getEvt()
	wev.kind, wev.l, wev.val, wev.from = kWB, l, wb, c.id
	wev.f1, wev.sn = s.hasWrite, s.lastWrite
	c.sys.mesh.Send(c.id, homeID, dataFlits, wev.fn)
}

// onFwdGetM: we own the line; a remote write takes it. Hand the data and
// ownership to the requester and invalidate ourselves.
func (c *L1) onFwdGetM(l cache.Line, req noc.NodeID, reqSN SN, writer AccessRef) {
	obs := c.sys.obs
	obs.OnStorePerformedWrt(writer, c.pid(), l)

	s := c.slot(l)
	val, fromWB := c.ownedData(s)
	ev := c.sys.getEvt()
	deps := ev.deps[:0]
	if s.hasWrite {
		deps = append(deps, Dependence{
			Kind: WAW,
			Src:  AccessRef{PID: c.pid(), SN: s.lastWrite, IsWrite: true},
			Snap: obs.SnapshotSource(c.pid(), s.lastWrite),
			Line: l,
		})
		obs.OnLocalSource(c.pid(), s.lastWrite, true)
	}
	if s.hasRead {
		deps = append(deps, Dependence{
			Kind: WAR,
			Src:  AccessRef{PID: c.pid(), SN: s.lastRead},
			Snap: obs.SnapshotSource(c.pid(), s.lastRead),
			Line: l,
		})
		obs.OnLocalSource(c.pid(), s.lastRead, false)
	}
	s.hasRead, s.lastRead = false, 0
	s.hasWrite, s.lastWrite = false, 0
	s.lineDeps = s.lineDeps[:0]
	s.epochStores = s.epochStores[:0]
	if st := c.arr.Lookup(l); !fromWB && st != cache.Invalid {
		if c.sys.tr != nil {
			c.sys.traceMESI(c.pid(), l, st, cache.Invalid)
		}
		c.arr.Evict(l)
	}
	out := c.sys.getBuf()
	copy(out, val)
	ev.kind, ev.to, ev.l, ev.val, ev.deps = kDataMFromOwner, req, l, out, deps
	c.sys.mesh.Send(c.id, req, dataFlits, ev.fn)
}

// ownedData returns the line image we are responsible for: the cached
// copy, or the writeback buffer if the line was just evicted.
func (c *L1) ownedData(s *l1Line) (val []uint64, fromWB bool) {
	if c.arr.Lookup(s.l) != cache.Invalid {
		return s.data, false
	}
	if s.wbValid {
		return s.wb, true
	}
	panic(fmt.Sprintf("coherence: forward for line %#x we do not hold at %d", uint64(s.l), c.id))
}

// onPutAck: the home consumed our eviction writeback.
func (c *L1) onPutAck(l cache.Line) {
	s := c.slot(l)
	s.wbValid = false
	c.nWB--
	c.drainDeferred(s)
}

// install fills a line, handling any dirty victim with a writeback. The
// slot's image buffer is allocated at the first fill and reused in place
// by every later one.
func (c *L1) install(s *l1Line, st cache.State, val []uint64) {
	var prev cache.State
	if c.sys.tr != nil {
		prev = c.arr.Lookup(s.l)
	}
	v, evicted := c.arr.Insert(s.l, st)
	if c.sys.tr != nil {
		if evicted {
			c.sys.traceMESI(c.pid(), v.Line, v.State, cache.Invalid)
		}
		if prev != st {
			c.sys.traceMESI(c.pid(), s.l, prev, st)
		}
	}
	if evicted {
		vs := c.slot(v.Line)
		if v.Dirty && v.State == cache.Modified && vs.data != nil {
			vs.wb = append(vs.wb[:0], vs.data...)
			vs.wbValid = true
			c.nWB++
			data := vs.wb // stable until the PutAck; consumed at PutM arrival
			vl := v.Line
			// Carry the last local read so the directory can source the
			// WAR to the next writer (the eviction silences this cache).
			// Keep the local entry too: a forward racing this writeback
			// is served from wb and still needs it.
			hasRead, rd := vs.hasRead, AccessRef{}
			var rdSnap SrcSnap
			if hasRead {
				rd = AccessRef{PID: c.pid(), SN: vs.lastRead}
				rdSnap = c.sys.obs.SnapshotSource(c.pid(), vs.lastRead)
				c.sys.obs.OnLocalSource(c.pid(), vs.lastRead, false)
			}
			ev := c.sys.getEvt()
			ev.kind, ev.l, ev.from, ev.val = kPutM, vl, c.id, data
			ev.f1, ev.f2, ev.ref1, ev.snap = true, hasRead, rd, rdSnap
			ev.f3, ev.sn = vs.hasWrite, vs.lastWrite
			c.sys.mesh.Send(c.id, c.sys.HomeNode(vl), dataFlits, ev.fn)
			c.inc(&c.cWritebacks, "l1.writebacks")
		}
		vs.lineDeps = vs.lineDeps[:0]
		vs.epochStores = vs.epochStores[:0]
	}
	if s.data == nil {
		s.data = c.sys.newLineWords()
	}
	copy(s.data, val)
}

func (c *L1) drainDeferred(s *l1Line) {
	// Requests deferred behind a writeback or an MSHR reissue once the
	// line is quiet again. They re-enter through the public API so the
	// normal hit/miss logic applies.
	if s.mshr != nil || s.wbValid {
		return
	}
	q := s.deferred
	if len(q) == 0 {
		return
	}
	s.deferred = nil
	for i := range q {
		op := &q[i]
		switch op.kind {
		case defLoad:
			c.Load(op.a, op.sn, op.ldone)
		case defStore:
			c.Store(op.a, op.val, op.sn, op.local, op.sdone)
		default:
			c.RMW(op.a, op.sn, op.update, op.rdone)
		}
	}
	if s.deferred == nil {
		// Nothing re-deferred during the drain: keep the queue's capacity.
		s.deferred = q[:0]
	}
}
