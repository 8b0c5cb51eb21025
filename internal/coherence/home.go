package coherence

import (
	"fmt"

	"pacifier/internal/cache"
	"pacifier/internal/noc"
	"pacifier/internal/prof"
	"pacifier/internal/sim"
)

// dirState is the directory's view of one line. Directory metadata is
// held per interned line slot, never evicted: the L2 arrays model only
// data-access timing, never losing sharer information. (A real design
// would back directory entries with the inclusive L2; keeping them
// precise here removes an orthogonal source of protocol noise without
// affecting the recorder.)
type dirState struct {
	owner   int    // tile holding the line in E/M, or -1
	sharers uint64 // bitset of tiles holding the line in S
	lw      AccessRef
	lwValid bool // lw names the access that produced the home image
	// Last-reader hint: when an owner writes back and evicts, its local
	// reads of the line would otherwise be forgotten — no invalidation
	// will ever reach it — and the WAR ordering to the next writer would
	// be lost. The writeback carries the owner's last read (with its
	// chunk snapshot) and the directory keeps it until the next write.
	lr      AccessRef
	lrSnap  SrcSnap
	lrValid bool
}

// txn is one in-flight transaction blocking a line at its home.
type txn struct {
	line        cache.Line
	requester   noc.NodeID
	needWB      bool // waiting for the old owner's writeback copy
	wbDone      bool
	needUnblock bool // waiting for the requester's unblock
	unblockDone bool
}

func (t *txn) complete() bool {
	return (!t.needWB || t.wbDone) && (!t.needUnblock || t.unblockDone)
}

// Queued-request kinds for a busy line.
const (
	qGetS uint8 = iota
	qGetM
	qPutM
)

// queuedReq is one request waiting behind the line's current transaction.
// A typed struct instead of a deferred closure: the old []func() queue
// allocated a closure per request even when the line was idle.
type queuedReq struct {
	kind    uint8
	from    noc.NodeID
	sn      SN
	at      sim.Cycle // enqueue time, for queue-wait attribution
	data    []uint64  // PutM payload
	dirty   bool
	hasRead bool
	rd      AccessRef
	rdSnap  SrcSnap
	lwValid bool
	lwSN    SN
}

// homeLine is one line's full directory-side state, interned once at
// first touch (replacing four map[cache.Line] tables).
type homeLine struct {
	l   cache.Line
	st  dirState
	img []uint64 // backing data image ("memory"); allocated at first use
	txn *txn     // current transaction, nil if idle
	q   []queuedReq
}

// home is one directory/L2 bank.
type home struct {
	sys *System
	id  noc.NodeID

	ids      sim.Index // line -> index into lines (see L1.ids)
	lines    []*homeLine
	lineSlab []homeLine // backing store new slots are carved from
	// One-entry slot cache (see L1.lastSlot).
	lastLine cache.Line
	lastSlot *homeLine

	l2 *cache.Cache // timing-only data array

	txnFree []*txn

	busyCount int

	cL2Hits, cL2Misses *sim.Counter

	// Cycle accounting (nil when disabled): attributes L2/memory
	// occupancy and busy-line queue waits to this bank's tile.
	lat *prof.Lat
}

func newHome(sys *System, id noc.NodeID) *home {
	return &home{
		sys: sys,
		id:  id,
		l2:  cache.New(sys.cfg.L2),
	}
}

// slot interns (at most once per line) and returns the line's state.
// Slots are carved from a slab: pointer-stable, one allocation per 256
// lines instead of one each.
func (h *home) slot(l cache.Line) *homeLine {
	if h.lastSlot != nil && h.lastLine == l {
		return h.lastSlot
	}
	var s *homeLine
	if id, added := h.ids.Intern(uint64(l)); !added {
		s = h.lines[id]
	} else {
		if len(h.lineSlab) == 0 {
			h.lineSlab = make([]homeLine, 256)
		}
		s = &h.lineSlab[0]
		h.lineSlab = h.lineSlab[1:]
		s.l = l
		s.st.owner = -1
		h.lines = append(h.lines, s)
	}
	h.lastLine, h.lastSlot = l, s
	return s
}

// peek returns the line's state without interning, or nil.
func (h *home) peek(l cache.Line) *homeLine {
	if h.lastSlot != nil && h.lastLine == l {
		return h.lastSlot
	}
	if id, ok := h.ids.Get(uint64(l)); ok {
		return h.lines[id]
	}
	return nil
}

// image returns the line's backing data, allocating it on first use.
func (h *home) image(s *homeLine) []uint64 {
	if s.img == nil {
		s.img = h.sys.newLineWords()
	}
	return s.img
}

func (h *home) inc(cp **sim.Counter, name string) {
	if h.sys.stats == nil {
		return
	}
	if *cp == nil {
		*cp = h.sys.stats.Counter(name)
	}
	(*cp).Value++
}

// accessLat charges the L2 data-array access: hit pays L2Lat, miss pays
// the memory round trip and fills the array.
func (h *home) accessLat(l cache.Line) sim.Cycle {
	var lat sim.Cycle
	if h.l2.LookupTouch(l) != cache.Invalid {
		h.inc(&h.cL2Hits, "l2.hits")
		lat = h.sys.cfg.L2Lat
	} else {
		h.l2.Insert(l, cache.Shared)
		h.inc(&h.cL2Misses, "l2.misses")
		lat = h.sys.cfg.L2Lat + h.sys.cfg.MemLat
	}
	h.lat.Add(h.sys.stats, prof.Home, int64(lat))
	return lat
}

// begin blocks the line for a new transaction.
func (h *home) begin(s *homeLine, requester noc.NodeID, needWB, needUnblock bool) *txn {
	if s.txn != nil {
		panic("coherence: overlapping transactions on one line")
	}
	var t *txn
	if n := len(h.txnFree); n > 0 {
		t = h.txnFree[n-1]
		h.txnFree = h.txnFree[:n-1]
		*t = txn{}
	} else {
		t = &txn{}
	}
	t.line = s.l
	t.requester = requester
	t.needWB = needWB
	t.needUnblock = needUnblock
	s.txn = t
	h.busyCount++
	return t
}

// maybeFinish releases the line if the transaction is complete, then
// drains the next queued request.
func (h *home) maybeFinish(s *homeLine, t *txn) {
	if !t.complete() {
		return
	}
	s.txn = nil
	h.busyCount--
	h.txnFree = append(h.txnFree, t)
	if len(s.q) > 0 {
		next := s.q[0]
		n := copy(s.q, s.q[1:])
		s.q[n] = queuedReq{} // release the payload reference
		s.q = s.q[:n]
		h.lat.Add(h.sys.stats, prof.Home, int64(h.sys.eng.Now()-next.at))
		h.serve(s, &next)
	}
}

// serve runs one (possibly dequeued) request on an idle line.
func (h *home) serve(s *homeLine, r *queuedReq) {
	switch r.kind {
	case qGetS:
		h.serveGetS(s, r.from, r.sn)
	case qGetM:
		h.serveGetM(s, r.from, r.sn)
	default:
		h.servePutM(s, r.from, r.data, r.dirty, r.hasRead, r.rd, r.rdSnap, r.lwValid, r.lwSN)
	}
}

// ---------------------------------------------------------------------
// Request handlers. Each runs at the home tile at message-arrival time.
// ---------------------------------------------------------------------

// onGetS handles a read miss request from tile req for the line holding
// access (reqPID, reqSN).
func (h *home) onGetS(l cache.Line, req noc.NodeID, reqSN SN) {
	s := h.slot(l)
	if s.txn != nil {
		s.q = append(s.q, queuedReq{kind: qGetS, from: req, sn: reqSN, at: h.sys.eng.Now()})
		return
	}
	h.serveGetS(s, req, reqSN)
}

func (h *home) serveGetS(s *homeLine, req noc.NodeID, reqSN SN) {
	sys := h.sys
	l := s.l
	st := &s.st
	if st.owner == int(req) {
		// The requester itself is the registered owner: its writeback
		// raced ahead of this request. Treat as clean.
		st.owner = -1
	}
	if st.owner >= 0 {
		// Dirty remote: three-hop forward. The home stays blocked until
		// it has the writeback copy and the requester's unblock.
		h.begin(s, req, true, true)
		owner := noc.NodeID(st.owner)
		st.sharers |= 1<<uint(st.owner) | 1<<uint(req)
		st.owner = -1
		ev := sys.getEvt()
		ev.kind, ev.to, ev.l, ev.from, ev.sn = kFwdGetS, owner, l, req, reqSN
		sys.mesh.Send(h.id, owner, ctrlFlits, ev.fn)
		return
	}
	// Clean at home: serve from the image after the array access. The
	// home stays blocked for the access duration so a later write's
	// invalidations cannot overtake the data reply (same src/dst pair
	// FIFO then orders them).
	t := h.begin(s, req, false, true)
	lat := h.accessLat(l)
	var snap SrcSnap
	var src AccessRef
	hasDep := st.lwValid && st.lw.PID != int(req)
	if hasDep {
		src = st.lw
		snap = sys.obs.SnapshotSource(src.PID, src.SN)
		sys.obs.OnLocalSource(src.PID, src.SN, true)
	}
	val := sys.getBuf()
	copy(val, h.image(s))
	st.sharers |= 1 << uint(req)
	ev := sys.getEvt()
	ev.kind, ev.to, ev.l, ev.val, ev.sn = kDataLat, req, l, val, reqSN
	ev.f1, ev.ref1, ev.snap = hasDep, src, snap
	ev.t, ev.hs = t, s
	sys.eng.After(lat, ev.fn)
}

// onGetM handles a write (or RMW) request.
func (h *home) onGetM(l cache.Line, req noc.NodeID, reqSN SN) {
	s := h.slot(l)
	if s.txn != nil {
		s.q = append(s.q, queuedReq{kind: qGetM, from: req, sn: reqSN, at: h.sys.eng.Now()})
		return
	}
	h.serveGetM(s, req, reqSN)
}

func (h *home) serveGetM(s *homeLine, req noc.NodeID, reqSN SN) {
	sys := h.sys
	l := s.l
	st := &s.st
	writer := AccessRef{PID: int(req), SN: reqSN, IsWrite: true}
	if st.owner == int(req) {
		st.owner = -1 // stale: racing writeback from the requester itself
	}
	if st.owner >= 0 {
		// Transfer ownership from the old owner. Sharer invalidations are
		// not needed: with an owner the sharer set is empty by invariant
		// (the line was exclusive).
		h.begin(s, req, false, true)
		owner := noc.NodeID(st.owner)
		st.owner = int(req)
		st.sharers = 0
		st.lw, st.lwValid = writer, true
		st.lrValid = false
		ev := sys.getEvt()
		ev.kind, ev.to, ev.l, ev.from, ev.sn = kFwdGetM, owner, l, req, reqSN
		sys.mesh.Send(h.id, owner, ctrlFlits, ev.fn)
		// Tell the requester how many invalidation acks to expect (zero
		// beyond the owner's data message).
		av := sys.getEvt()
		av.kind, av.to, av.l, av.n = kAckCount, req, l, 0
		sys.mesh.Send(h.id, req, ctrlFlits, av.fn)
		return
	}
	// Clean at home: data from the image, invalidations to every sharer
	// except the requester.
	h.begin(s, req, false, true)
	lat := h.accessLat(l)
	ev := sys.getEvt()
	deps := ev.deps[:0]
	if st.lwValid && st.lw.PID != int(req) {
		src := st.lw
		snap := sys.obs.SnapshotSource(src.PID, src.SN)
		sys.obs.OnLocalSource(src.PID, src.SN, true)
		deps = append(deps, Dependence{Kind: WAW, Src: src, Snap: snap, Line: l})
	}
	if st.lrValid && st.lr.PID != int(req) {
		deps = append(deps, Dependence{Kind: WAR, Src: st.lr, Snap: st.lrSnap, Line: l})
	}
	st.lrValid = false // consumed by this write epoch
	val := sys.getBuf()
	copy(val, h.image(s))
	targets := st.sharers &^ (1 << uint(req))
	ackCount := popcount(targets)
	st.owner = int(req)
	st.sharers = 0
	st.lw, st.lwValid = writer, true
	for pid := 0; pid < sys.cfg.Nodes; pid++ {
		if targets&(1<<uint(pid)) == 0 {
			continue
		}
		iv := sys.getEvt()
		iv.kind, iv.to, iv.l, iv.from, iv.sn = kInv, noc.NodeID(pid), l, req, reqSN
		sys.mesh.Send(h.id, noc.NodeID(pid), ctrlFlits, iv.fn)
	}
	ev.kind, ev.to, ev.l, ev.val, ev.n, ev.deps = kDataMLat, req, l, val, ackCount, deps
	sys.eng.After(lat, ev.fn)
}

// onWB receives the owner's writeback copy during a Fwd_GetS
// transaction. lwValid/lwSN carry the owner's true last write to the
// line: the directory's lastWriter was set at the GetM grant (the miss's
// primary store) and hit stores may have advanced it since.
func (h *home) onWB(l cache.Line, data []uint64, from noc.NodeID, lwValid bool, lwSN SN) {
	s := h.slot(l)
	st := &s.st
	if lwValid && st.lwValid && st.lw.PID == int(from) && lwSN > st.lw.SN {
		st.lw.SN = lwSN
	}
	t := s.txn
	if t == nil || !t.needWB {
		// Unsolicited data copy (e.g. late downgrade): accept it.
		copy(h.image(s), data)
		return
	}
	copy(h.image(s), data)
	t.wbDone = true
	h.maybeFinish(s, t)
}

// onUnblock releases the line when the requester has what it needs.
func (h *home) onUnblock(l cache.Line) {
	s := h.slot(l)
	t := s.txn
	if t == nil {
		panic(fmt.Sprintf("coherence: unblock for idle line %#x", uint64(l)))
	}
	t.unblockDone = true
	h.maybeFinish(s, t)
}

// onPutM handles an eviction writeback (dirty=true carries data) or an
// ownership relinquish (clean E eviction). hasRead/rd/rdSnap carry the
// evicting owner's last read of the line (see dirState.lr).
func (h *home) onPutM(l cache.Line, from noc.NodeID, data []uint64, dirty bool,
	hasRead bool, rd AccessRef, rdSnap SrcSnap, lwValid bool, lwSN SN) {
	s := h.slot(l)
	if s.txn != nil {
		s.q = append(s.q, queuedReq{kind: qPutM, from: from, data: data, dirty: dirty,
			hasRead: hasRead, rd: rd, rdSnap: rdSnap, lwValid: lwValid, lwSN: lwSN,
			at: h.sys.eng.Now()})
		return
	}
	h.servePutM(s, from, data, dirty, hasRead, rd, rdSnap, lwValid, lwSN)
}

func (h *home) servePutM(s *homeLine, from noc.NodeID, data []uint64, dirty bool,
	hasRead bool, rd AccessRef, rdSnap SrcSnap, lwValid bool, lwSN SN) {
	l := s.l
	st := &s.st
	if st.owner == int(from) {
		st.owner = -1
		if dirty {
			copy(h.image(s), data)
		}
		if hasRead {
			st.lr, st.lrSnap, st.lrValid = rd, rdSnap, true
		}
		if lwValid && st.lwValid && st.lw.PID == int(from) && lwSN > st.lw.SN {
			st.lw.SN = lwSN
		}
	}
	// Stale PutM (ownership already moved): just ack; the data
	// already traveled with the forward response.
	ev := h.sys.getEvt()
	ev.kind, ev.to, ev.l = kPutAck, from, l
	h.sys.mesh.Send(h.id, from, ctrlFlits, ev.fn)
}

func popcount(v uint64) int {
	n := 0
	for v != 0 {
		v &= v - 1
		n++
	}
	return n
}
