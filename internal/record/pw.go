package record

import (
	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/trace"
)

// SN aliases the global sequence number.
type SN = coherence.SN

// pwEntry is one pending-window slot (Section 2.3.1: instructions that
// are not performed, or that have an older instruction not performed).
type pwEntry struct {
	sn        SN
	line      cache.Line
	addr      coherence.Addr
	kind      trace.OpKind
	performed bool
	// held: Section 3.2 — the entry must stay in the PW until the
	// writer's log/no-log response arrives.
	held bool
	// isSource: this access has been the source of a dependence (MRPS).
	isSource bool
	// mustLog: marked by R-All/R-Bound for unconditional Relog logging.
	mustLog bool
	// value: the bound load value (for D_set and Section 3.2 logs).
	value uint64
}

// PendingWindow is a per-core FIFO of in-flight memory operations.
// Entries enter at dispatch in program order and leave from the tail
// once performed (and not held) — "completion" in the paper's terms.
//
// The entries live in a power-of-two ring that doubles when full, so a
// drain only advances the tail index and never moves live entries.
type PendingWindow struct {
	ring   []pwEntry // live entries are ring[(head+i)&mask], i < n
	mask   int
	head   int
	n      int
	tailSN SN // SN of the oldest live entry; next SN to dispatch is tailSN+n
	cbf    *CBF
	maxOcc int
}

// NewPendingWindow builds a window with a CBF sized for the given
// occupancy target (Table 4: PW size 256).
func NewPendingWindow(cbfSize int) *PendingWindow {
	size := 1
	for size < cbfSize {
		size <<= 1
	}
	return &PendingWindow{
		ring:   make([]pwEntry, size),
		mask:   size - 1,
		tailSN: 1,
		cbf:    NewCBF(cbfSize * 4),
	}
}

// at returns the i-th live entry, counting from the tail.
func (p *PendingWindow) at(i int) *pwEntry { return &p.ring[(p.head+i)&p.mask] }

// Dispatch appends the next instruction. SNs must be contiguous.
func (p *PendingWindow) Dispatch(sn SN, kind trace.OpKind, addr coherence.Addr, line cache.Line) {
	if sn != p.tailSN+SN(p.n) {
		panic("record: PW dispatch out of order")
	}
	if p.n == len(p.ring) {
		p.grow()
	}
	*p.at(p.n) = pwEntry{sn: sn, line: line, addr: addr, kind: kind}
	p.n++
	p.cbf.Insert(line)
	if p.n > p.maxOcc {
		p.maxOcc = p.n
	}
}

// grow doubles the ring, moving the live entries to its front in order.
// Entry pointers taken before a Dispatch do not survive it.
func (p *PendingWindow) grow() {
	ring := make([]pwEntry, 2*len(p.ring))
	k := copy(ring, p.ring[p.head:])
	copy(ring[k:], p.ring[:p.head])
	p.ring, p.mask, p.head = ring, len(ring)-1, 0
}

// Get returns the entry for sn, or nil if it already completed (or was
// never dispatched).
func (p *PendingWindow) Get(sn SN) *pwEntry {
	i := sn - p.tailSN
	if i < 0 || i >= SN(p.n) {
		return nil
	}
	return p.at(int(i))
}

// Perform marks entry sn performed and returns it, or returns nil if sn
// is no longer (or not yet) in the window.
func (p *PendingWindow) Perform(sn SN) *pwEntry {
	e := p.Get(sn)
	if e != nil {
		e.performed = true
	}
	return e
}

// SetLoadValue records the value load sn bound, if it is still in the
// window.
func (p *PendingWindow) SetLoadValue(sn SN, val uint64) {
	if e := p.Get(sn); e != nil {
		e.value = val
	}
}

// SetHeld pins entry sn in the window until a writer's response
// arrives (Section 3.2), or unpins it; a no-op once sn has left.
func (p *PendingWindow) SetHeld(sn SN, held bool) {
	if e := p.Get(sn); e != nil {
		e.held = held
	}
}

// Len returns the occupancy; MaxOcc its high watermark.
func (p *PendingWindow) Len() int    { return p.n }
func (p *PendingWindow) MaxOcc() int { return p.maxOcc }

// TailSN returns the SN of the oldest live entry; if the window is
// empty it returns the next SN that would enter.
func (p *PendingWindow) TailSN() SN { return p.tailSN }

// OldestSN returns the oldest live SN and true, or (0, false) if empty.
func (p *PendingWindow) OldestSN() (SN, bool) {
	if p.n == 0 {
		return 0, false
	}
	return p.tailSN, true
}

// Drain removes completed entries from the tail: performed and not held.
// It returns the new tail SN (first still-live SN).
func (p *PendingWindow) Drain() SN {
	for p.n > 0 {
		e := &p.ring[p.head]
		if !e.performed || e.held {
			break
		}
		p.cbf.Remove(e.line)
		p.head = (p.head + 1) & p.mask
		p.n--
		p.tailSN++
	}
	return p.tailSN
}

// HasOlderUnperformed reports whether any entry older than sn is not yet
// performed (the R-All reordering test).
func (p *PendingWindow) HasOlderUnperformed(sn SN) bool {
	for i := 0; i < p.n; i++ {
		e := p.at(i)
		if e.sn >= sn {
			return false
		}
		if !e.performed {
			return true
		}
	}
	return false
}

// YoungestPerformedSource returns the largest SN of a performed entry
// marked as a dependence source — the MRPS register's value — or 0.
func (p *PendingWindow) YoungestPerformedSource() SN {
	for i := p.n - 1; i >= 0; i-- {
		e := p.at(i)
		if e.performed && e.isSource {
			return e.sn
		}
	}
	return 0
}

// FindPerformedLoad returns the youngest performed load to the given
// line (Section 3.2 query), gated by the CBF.
func (p *PendingWindow) FindPerformedLoad(line cache.Line) (sn SN, val uint64, ok bool) {
	if !p.cbf.MaybeContains(line) {
		return 0, 0, false
	}
	for i := p.n - 1; i >= 0; i-- {
		e := p.at(i)
		if e.line == line && e.kind == trace.Read && e.performed {
			return e.sn, e.value, true
		}
	}
	return 0, 0, false
}

// Query answers an invalidation's Section 3.2 query from the window: a
// performed load to the line still pending?
func (p *PendingWindow) Query(line cache.Line) coherence.PWQueryResult {
	sn, val, ok := p.FindPerformedLoad(line)
	if !ok {
		return coherence.PWQueryResult{}
	}
	return coherence.PWQueryResult{HasPerformedLoad: true, LoadSN: sn, OldValue: val}
}

// Range calls fn for each live entry with tail <= sn <= head.
func (p *PendingWindow) Range(fn func(e *pwEntry)) {
	for i := 0; i < p.n; i++ {
		fn(p.at(i))
	}
}
