// Package obs is the session-scoped observability layer: a buffered
// structured-event tracer threaded through the simulated machine, a
// Chrome trace-event (Perfetto-loadable) exporter, and the replay
// divergence explainer that cross-correlates record-side and
// replay-side event streams.
//
// Tracing is strictly opt-in and zero-cost when off: every emit site in
// the hot path is guarded by a plain nil-pointer check on the *Tracer
// (`if tr != nil { tr.Chunk... }`), so a disabled run executes no
// tracing instructions beyond that compare. The Tracer methods are also
// nil-receiver safe, so cold paths may call them unconditionally.
package obs

import (
	"fmt"
	"sync"
)

// Kind enumerates the typed events the stack emits.
type Kind uint8

const (
	// KChunkBegin marks a recorder opening a new chunk (instant).
	KChunkBegin Kind = iota
	// KChunkCommit is a committed chunk's lifetime span; A = operation
	// count, B = predecessor count.
	KChunkCommit
	// KChunkSquash marks a degenerate chunk termination (a squash /
	// degenerate-move boundary); A = delayed-instruction count.
	KChunkSquash
	// KSCVDetect marks the Granule detector firing: a delayed store is
	// logged at a chunk termination. A = dynamic instruction distance,
	// B = the mode's bound.
	KSCVDetect
	// KSCVSuppress marks a suppressed logging decision: the distance
	// check (Invisi-Bound / PMove-Bound, A > B) or the Volition oracle
	// (A <= B but no real cycle) proved the reordering safe.
	KSCVSuppress
	// KSBDrain marks a store buffer draining one entry to the memory
	// system; A = line address, B = queue depth after the drain.
	KSBDrain
	// KMESI marks an L1 line state transition; SN = line, A = old
	// state, B = new state (cache.State values).
	KMESI
	// KNoCSend marks a mesh message injection; A = destination node,
	// B = flits, Dur = total latency in cycles.
	KNoCSend
	// KNoCRecv marks a mesh message delivery; A = source node,
	// B = flits, Dur = the hop latency it took to arrive.
	KNoCRecv
	// KReplayChunk is a replayed chunk's execution span; A = operation
	// count, B = stall cycles waited before starting.
	KReplayChunk
	// KReplayDiverge marks the replay diverging from the recording;
	// A = expected value, B = observed value (when meaningful).
	KReplayDiverge
	// KVolCycle marks the precise Volition oracle confirming an SCV
	// cycle closed by (Core, SN); A = source core, B = source SN.
	KVolCycle

	kindCount
)

var kindNames = [kindCount]string{
	KChunkBegin:    "chunk-begin",
	KChunkCommit:   "chunk-commit",
	KChunkSquash:   "chunk-squash",
	KSCVDetect:     "scv-detect",
	KSCVSuppress:   "scv-suppress",
	KSBDrain:       "sb-drain",
	KMESI:          "mesi",
	KNoCSend:       "noc-send",
	KNoCRecv:       "noc-recv",
	KReplayChunk:   "replay-chunk",
	KReplayDiverge: "replay-diverge",
	KVolCycle:      "vol-cycle",
}

// String returns the event kind's stable wire name.
func (k Kind) String() string {
	if int(k) < len(kindNames) {
		return kindNames[k]
	}
	return fmt.Sprintf("kind(%d)", int(k))
}

// Side distinguishes the two event streams the explainer correlates.
type Side uint8

const (
	// SideRecord events come from the recording run.
	SideRecord Side = 0
	// SideReplay events come from a replay of that recording.
	SideReplay Side = 1
)

// String returns the side's stable wire name.
func (s Side) String() string {
	if s == SideReplay {
		return "replay"
	}
	return "record"
}

// Event is one structured trace event. The struct is deliberately flat
// and small so the buffered sink stays cheap: kind-specific payloads
// ride in A and B (documented per Kind above).
type Event struct {
	At   int64 // cycle the event occurred (span start for Dur > 0)
	Dur  int64 // span length in cycles; 0 = instant event
	CID  int64 // chunk id, -1 when not chunk-scoped
	SN   int64 // serial number / line, -1 when not op-scoped
	A, B int64 // kind-specific payload
	Core int32 // core / node the event belongs to
	Kind Kind
	Side Side
	Mode int8 // recorder mode index, -1 when not mode-scoped
}

// Tracer is the buffered structured-event sink. A nil *Tracer is the
// no-op implementation: every method is nil-receiver safe, and hot
// paths additionally guard emits with `if tr != nil` so the disabled
// cost is a single pointer compare.
//
// Emits are serialized by a mutex. A recording's recorders run on a
// goroutine of their own and emit into a buffer of their own (Buffer),
// but the harness runs many simulations concurrently and an interrupt
// handler may flush a tracer from a signal goroutine, so the sink must
// be race-free.
type Tracer struct {
	mu     sync.Mutex
	events []Event
	label  string
	// limit caps the buffer (0 = unbounded); overflow events are dropped
	// and counted rather than growing without bound.
	limit   int
	dropped int64
}

// New returns an enabled tracer. The label names the trace (it becomes
// the Chrome trace's process label suffix).
func New(label string) *Tracer {
	return &Tracer{label: label, events: make([]Event, 0, 1024)}
}

// SetLimit caps the event buffer at n events (0 restores unbounded).
// Events emitted past the cap are dropped and counted, not buffered.
func (t *Tracer) SetLimit(n int) {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.limit = n
	t.mu.Unlock()
}

// Dropped returns how many events this tracer discarded at its limit.
func (t *Tracer) Dropped() int64 {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return t.dropped
}

// Label returns the tracer's label ("" for a nil tracer).
func (t *Tracer) Label() string {
	if t == nil {
		return ""
	}
	return t.label
}

// Emit appends one event. Safe on a nil receiver (no-op).
func (t *Tracer) Emit(e Event) {
	if t == nil {
		return
	}
	t.mu.Lock()
	if t.limit > 0 && len(t.events) >= t.limit {
		t.dropped++
		t.mu.Unlock()
		return
	}
	t.events = append(t.events, e)
	t.mu.Unlock()
}

// Len returns the number of buffered events (0 for a nil tracer).
func (t *Tracer) Len() int {
	if t == nil {
		return 0
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return len(t.events)
}

// Events returns a copy of the buffered events in emit order (nil for
// a nil tracer).
func (t *Tracer) Events() []Event {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	out := make([]Event, len(t.events))
	copy(out, t.events)
	return out
}

// Buffer returns a tracer that only buffers: events emitted into it
// reach t when t folds the buffer in (Fold). A goroutine whose events
// must land in t in an order of its own emits into a buffer of its
// own. The buffer has t's label and limit (Fold could keep no more).
// Buffer returns nil for a nil t, so emit sites keep their nil check.
func (t *Tracer) Buffer() *Tracer {
	if t == nil {
		return nil
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	return &Tracer{label: t.label, limit: t.limit}
}

// Fold appends the events buffered in b to t in b's emit order, exactly
// as if each had been emitted into t at this point (t's limit applies
// and its drop count counts the overflow), then empties b. A nil t or b
// is a no-op.
func (t *Tracer) Fold(b *Tracer) {
	if t == nil || b == nil {
		return
	}
	b.mu.Lock()
	evs, bdropped := b.events, b.dropped
	b.events, b.dropped = nil, 0
	b.mu.Unlock()
	t.mu.Lock()
	kept := len(evs)
	if t.limit > 0 {
		kept = max(0, min(kept, t.limit-len(t.events)))
	}
	t.events = append(t.events, evs[:kept]...)
	t.dropped += int64(len(evs)-kept) + bdropped
	t.mu.Unlock()
}

// Reset discards all buffered events.
func (t *Tracer) Reset() {
	if t == nil {
		return
	}
	t.mu.Lock()
	t.events = t.events[:0]
	t.mu.Unlock()
}

// ---------------------------------------------------------------------
// Typed emit helpers. All are nil-receiver safe; hot paths still guard
// with `if tr != nil` so the disabled path is one compare, no call.
// ---------------------------------------------------------------------

// ChunkBegin records a recorder opening chunk cid on core at cycle now.
func (t *Tracer) ChunkBegin(mode int8, core int, cid, now int64) {
	t.Emit(Event{Kind: KChunkBegin, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: -1, At: now})
}

// ChunkCommit records chunk cid committing: it spanned [start, end) and
// carried ops operations with npreds predecessors.
func (t *Tracer) ChunkCommit(mode int8, core int, cid, start, end, ops, npreds int64) {
	t.Emit(Event{Kind: KChunkCommit, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: -1, At: start, Dur: end - start,
		A: ops, B: npreds})
}

// ChunkSquash records a degenerate termination of chunk cid.
func (t *Tracer) ChunkSquash(mode int8, core int, cid, now, delayed int64) {
	t.Emit(Event{Kind: KChunkSquash, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: -1, At: now, A: delayed})
}

// SCVDetect records the detector logging delayed store sn at a chunk
// termination (dinst <= bound).
func (t *Tracer) SCVDetect(mode int8, core int, cid, sn, now, dinst, bound int64) {
	t.Emit(Event{Kind: KSCVDetect, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: sn, At: now, A: dinst, B: bound})
}

// SCVSuppress records a suppressed logging decision for delayed store
// sn (Invisi-Bound / PMove-Bound distance proof, or a Volition veto).
func (t *Tracer) SCVSuppress(mode int8, core int, cid, sn, now, dinst, bound int64) {
	t.Emit(Event{Kind: KSCVSuppress, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: sn, At: now, A: dinst, B: bound})
}

// SBDrain records core draining store sn (to line) from its store
// buffer at cycle now, leaving depth entries queued.
func (t *Tracer) SBDrain(core int, sn, now, line, depth int64) {
	t.Emit(Event{Kind: KSBDrain, Side: SideRecord, Mode: -1,
		Core: int32(core), CID: -1, SN: sn, At: now, A: line, B: depth})
}

// MESI records an L1 line state transition.
func (t *Tracer) MESI(core int, line, now int64, old, new_ uint8) {
	t.Emit(Event{Kind: KMESI, Side: SideRecord, Mode: -1,
		Core: int32(core), CID: -1, SN: line, At: now, A: int64(old), B: int64(new_)})
}

// NoCSend records node src injecting a flits-flit message to dst at
// cycle now, arriving after lat cycles.
func (t *Tracer) NoCSend(src, dst int, flits, now, lat int64) {
	t.Emit(Event{Kind: KNoCSend, Side: SideRecord, Mode: -1,
		Core: int32(src), CID: -1, SN: -1, At: now, Dur: lat, A: int64(dst), B: flits})
}

// NoCRecv records node dst accepting a flits-flit message from src at
// cycle now after lat cycles in flight.
func (t *Tracer) NoCRecv(src, dst int, flits, now, lat int64) {
	t.Emit(Event{Kind: KNoCRecv, Side: SideRecord, Mode: -1,
		Core: int32(dst), CID: -1, SN: -1, At: now, Dur: lat, A: int64(src), B: flits})
}

// ReplayChunk records the replayer executing chunk cid on core over
// [start, end), after stalling stall cycles, covering ops operations.
func (t *Tracer) ReplayChunk(core int, cid, start, end, ops, stall int64) {
	t.Emit(Event{Kind: KReplayChunk, Side: SideReplay, Mode: -1,
		Core: int32(core), CID: cid, SN: -1, At: start, Dur: end - start,
		A: ops, B: stall})
}

// ReplayDiverge records the replay diverging at operation sn of chunk
// cid on core: expected want, observed got.
func (t *Tracer) ReplayDiverge(core int, cid, sn, now, want, got int64) {
	t.Emit(Event{Kind: KReplayDiverge, Side: SideReplay, Mode: -1,
		Core: int32(core), CID: cid, SN: sn, At: now, A: want, B: got})
}

// VolCycle records the Volition oracle confirming an SCV cycle closed
// by access (core, sn) against source (srcPID, srcSN).
func (t *Tracer) VolCycle(mode int8, core int, cid, sn, now int64, srcPID int, srcSN int64) {
	t.Emit(Event{Kind: KVolCycle, Side: SideRecord, Mode: mode,
		Core: int32(core), CID: cid, SN: sn, At: now, A: int64(srcPID), B: srcSN})
}
