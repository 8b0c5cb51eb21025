package coherence

import (
	"pacifier/internal/cache"
	"pacifier/internal/noc"
)

// Message-event kinds (see msgEvt).
const (
	kGetS uint8 = iota
	kGetM
	kUnblock
	kInvAck
	kLogOld
	kRelease
	kDataFromOwner
	kWB
	kDataMFromOwner
	kPutM
	kFwdGetS
	kDataLat // home data reply: L2-access stage, becomes kData
	kData
	kFwdGetM
	kAckCount
	kInv
	kDataMLat // home exclusive reply: L2-access stage, becomes kDataM
	kDataM
	kPutAck
)

// msgEvt is a pooled, typed coherence message in flight. Every protocol
// message used to be a fresh closure handed to mesh.Send (or eng.After);
// this struct carries the superset of their captured state and a fn bound
// once at allocation, so steady-state messaging allocates nothing.
//
// Each kind reads exactly the fields its send site sets; send sites must
// assign every field their kind's fire case reads (including zero-valued
// locals), since slots are reused without clearing scalar fields.
type msgEvt struct {
	sys  *System
	kind uint8

	l        cache.Line
	from, to noc.NodeID
	sn       SN
	n        int
	v        uint64

	f1, f2, f3 bool

	ref1, ref2 AccessRef
	snap       SrcSnap
	pwq        PWQueryResult

	// val is a payload buffer. For every kind except kPutM it comes from
	// System.getBuf and is released after delivery; kPutM aliases the
	// sender's writeback buffer (stable until PutAck) and is never pooled.
	val []uint64
	// deps is owned by the event and reused across incarnations; receivers
	// copy what they keep.
	deps []Dependence

	t  *txn
	hs *homeLine

	fn func()
}

func (s *System) getEvt() *msgEvt {
	if n := len(s.evtFree); n > 0 {
		e := s.evtFree[n-1]
		s.evtFree = s.evtFree[:n-1]
		return e
	}
	e := &msgEvt{sys: s}
	e.fn = e.fire
	return e
}

// recycle drops payload references and returns the slot to the pool.
// Called after the delivery handler returns; the handler received the
// event's fields directly, which is safe because the slot cannot be
// reused until it is back on the free list.
func (e *msgEvt) recycle() {
	e.val = nil
	e.deps = e.deps[:0]
	e.t = nil
	e.hs = nil
	e.sys.evtFree = append(e.sys.evtFree, e)
}

func (e *msgEvt) fire() {
	sys := e.sys
	switch e.kind {
	case kGetS:
		sys.homeOf(e.l).onGetS(e.l, e.from, e.sn)
	case kGetM:
		sys.homeOf(e.l).onGetM(e.l, e.from, e.sn)
	case kUnblock:
		sys.homeOf(e.l).onUnblock(e.l)
	case kInvAck:
		sys.l1s[e.to].onInvAck(e.l, e.from, e.ref1, e.f1, e.ref2, e.snap, e.pwq)
	case kLogOld:
		sys.obs.OnLogOldValue(int(e.to), e.sn, e.l, e.v)
		sys.obs.OnReleasePWEntry(int(e.to), e.sn)
	case kRelease:
		sys.obs.OnReleasePWEntry(int(e.to), e.sn)
	case kDataFromOwner:
		sys.l1s[e.to].onDataFromOwner(e.l, e.val, e.f1, e.ref1, e.snap)
		sys.putBuf(e.val)
	case kWB:
		sys.homeOf(e.l).onWB(e.l, e.val, e.from, e.f1, e.sn)
		sys.putBuf(e.val)
	case kDataMFromOwner:
		sys.l1s[e.to].onDataMFromOwner(e.l, e.val, e.deps)
		sys.putBuf(e.val)
	case kPutM:
		// e.val aliases the evicting cache's wb buffer: not pooled.
		sys.homeOf(e.l).onPutM(e.l, e.from, e.val, e.f1, e.f2, e.ref1, e.snap, e.f3, e.sn)
	case kFwdGetS:
		sys.l1s[e.to].onFwdGetS(e.l, e.from, e.sn, sys.HomeNode(e.l))
	case kDataLat:
		// L2 access done: launch the data reply, then release the home
		// (clean-path data needs no explicit unblock). The same event
		// becomes the delivery; it is recycled at the kData stage.
		e.kind = kData
		sys.mesh.Send(sys.HomeNode(e.l), e.to, dataFlits, e.fn)
		t, hs := e.t, e.hs
		e.t, e.hs = nil, nil
		t.unblockDone = true
		sys.homeOf(e.l).maybeFinish(hs, t)
		return
	case kData:
		sys.l1s[e.to].onData(e.l, e.val, e.f1, e.ref1, e.snap, e.sn)
		sys.putBuf(e.val)
	case kFwdGetM:
		writer := AccessRef{PID: int(e.from), SN: e.sn, IsWrite: true}
		sys.l1s[e.to].onFwdGetM(e.l, e.from, e.sn, writer)
	case kAckCount:
		sys.l1s[e.to].onAckCount(e.l, e.n)
	case kInv:
		writer := AccessRef{PID: int(e.from), SN: e.sn, IsWrite: true}
		sys.l1s[e.to].onInv(e.l, e.from, writer)
	case kDataMLat:
		e.kind = kDataM
		sys.mesh.Send(sys.HomeNode(e.l), e.to, dataFlits, e.fn)
		return
	case kDataM:
		sys.l1s[e.to].onDataM(e.l, e.val, e.n, e.deps)
		sys.putBuf(e.val)
	default: // kPutAck
		sys.l1s[e.to].onPutAck(e.l)
	}
	e.recycle()
}
