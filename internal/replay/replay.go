// Package replay deterministically re-executes a recorded run from its
// Pacifier log (Section 4.3). Chunks execute atomically in an order
// consistent with the recorded chunk DAG; D_set loads take their values
// from the log, D_set stores are parked in the simulated store buffer
// (SSB) and execute at their P_set positions after their predecessor
// chunks complete; VLog loads overrule memory with logged values.
//
// The replayer also verifies determinism: every replayed load, store and
// RMW outcome is compared against the recorded execution. A correct
// Pacifier log replays with zero mismatches even for executions
// containing SCVs; a Karma log of a relaxed-consistency execution
// generally does not — the paper's motivating observation.
//
// Timing: each chunk carries its recorded duration; a chunk starts after
// its program-order predecessor and all logged predecessors finish (plus
// a mesh wake-up latency), which yields the replay makespan compared
// against native execution time (Figure 12).
package replay

import (
	"cmp"
	"fmt"
	"slices"

	"pacifier/internal/coherence"
	"pacifier/internal/cpu"
	"pacifier/internal/noc"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// SN aliases the global sequence number.
type SN = coherence.SN

// Mismatch is one divergence between replay and recording.
type Mismatch struct {
	PID     int
	SN      SN
	Kind    trace.OpKind
	Addr    coherence.Addr
	Got     uint64
	Want    uint64
	Comment string
}

func (m Mismatch) String() string {
	return fmt.Sprintf("core %d sn %d %s @%#x: got %d want %d %s",
		m.PID, m.SN, m.Kind, uint64(m.Addr), m.Got, m.Want, m.Comment)
}

// Defect is a log/workload inconsistency discovered during replay that
// cannot be expressed as a value mismatch — e.g. a D_set entry that
// marks a load as a delayed store. Before the log pipeline was
// hardened these were panics; they now surface typed in Result.
type Defect struct {
	PID int
	SN  SN
	Msg string
}

func (d Defect) Error() string {
	return fmt.Sprintf("replay defect: core %d sn %d: %s", d.PID, int64(d.SN), d.Msg)
}

// Result summarizes a replay.
type Result struct {
	OpsReplayed int64
	// Mismatches holds up to 32 divergences; MismatchCount is the total.
	Mismatches    []Mismatch
	MismatchCount int64
	// Defects holds up to 32 log/workload inconsistencies (typed
	// errors, formerly panics); DefectCount is the total.
	Defects     []Defect
	DefectCount int64
	// OrderBreaks counts chunks force-started despite unsatisfied
	// predecessors (only possible when the log cannot represent the
	// execution — e.g. Karma under RC).
	OrderBreaks int64
	// LeftoverSSB counts delayed stores never claimed by a P_set (a log
	// defect); they are flushed at the end.
	LeftoverSSB int64
	// Makespan is the modeled parallel replay time; Native the recorded
	// execution time, as passed by the caller.
	Makespan sim.Cycle
	// ChunksReplayed counts executed chunks.
	ChunksReplayed int64
	// StallCycles is the summed wake-up waiting time across cores.
	StallCycles int64
	// Prof is the replay-side cycle attribution (Config.Profile): each
	// chunk's start delay split into the mesh wake-up latency (NoC) and
	// the residual dependence wait (Barrier), accumulated per core up to
	// the first divergence — the record-vs-replay delta the divergence
	// explainer prints. Nil when profiling is off.
	Prof *prof.Report
	// Divergence pinpoints the first divergent event of the replay in
	// execution order (nil when the replay was deterministic) — the
	// explainer's anchor.
	Divergence *Divergence
}

// Divergence is the first point where a replay left the recording: the
// core and chunk being replayed, the operation (when op-scoped), what
// kind of break it was, and the expected-vs-observed values (when the
// break is a value comparison).
type Divergence struct {
	PID      int    // core the divergence happened on
	CID      int64  // chunk being replayed (-1 when outside any chunk)
	SN       SN     // operation serial number (0 when not op-scoped)
	Kind     string // "value-mismatch", "defect", "order-break" or "leftover-ssb"
	Expected uint64
	Observed uint64
	Detail   string
}

func (d *Divergence) String() string {
	s := fmt.Sprintf("first divergence: core %d chunk %d sn %d: %s", d.PID, d.CID, int64(d.SN), d.Kind)
	if d.Kind == "value-mismatch" {
		s += fmt.Sprintf(" (expected %d, observed %d)", d.Expected, d.Observed)
	}
	if d.Detail != "" {
		s += " — " + d.Detail
	}
	return s
}

// Deterministic reports whether the replay reproduced the recording
// exactly.
func (r *Result) Deterministic() bool {
	return r.MismatchCount == 0 && r.OrderBreaks == 0 && r.LeftoverSSB == 0 &&
		r.DefectCount == 0
}

// Config parameterizes a replay.
type Config struct {
	// Mesh supplies wake-up latencies between replay cores.
	Mesh noc.Config
	// ScanSeed perturbs the scheduler's scan order among *ready* chunks.
	// Any seed must produce identical values — a property the tests use.
	ScanSeed uint64
	// Tracer, when non-nil, receives replay-side events (chunk spans
	// and divergences) for cross-correlation with the record stream.
	Tracer *obs.Tracer
	// Stats, when non-nil, collects the replay stall-cycle histogram.
	Stats *sim.Stats
	// Profile enables replay-side cycle attribution into Result.Prof.
	// Replay uses a private registry so its prof.* counters never mix
	// with the record side's in the shared Stats.
	Profile bool
	// Index, when non-nil, is the replayed workload's op index, built once
	// by IndexOps and shared read-only; nil builds a private one.
	Index *OpIndex
}

// ssbKey identifies a delayed store.
type ssbKey struct {
	pid    int
	cid    int64
	offset int32
}

// ssbEntry is a parked delayed store: its op entry is read through the
// op index when it executes.
type ssbEntry struct {
	sn    SN
	preds []relog.ChunkRef
}

// replayer is the working state.
type replayer struct {
	cfg Config
	log *relog.Log
	// threads is the workload, read in place. opIdx[pid][sn-1] is the
	// index in threads[pid] of core pid's memory op sn, and slots[pid][sn-1]
	// its entry (OpIndex.ops and OpIndex.slots, possibly shared with other
	// steppers, so never written). Execution reads only the entries; the
	// trace.Op is fetched only to report a mismatch.
	threads  []trace.Thread
	opIdx    [][]int32
	slots    [][]opEntry
	expected [][]cpu.ExecRecord
	mem      memory
	// wake[src*Cores+dst] is the mesh's one-flit latency from core src to
	// core dst: the wake-up a chunk pays after a predecessor on src.
	wake []sim.Cycle

	// cursor is the next chunk index per core. Chunks of a core execute
	// in CID order and relog.Validate pins CIDs dense, so chunk (pid, cid)
	// is done iff cid < cursor[pid].
	cursor []int
	// chunkEnd[pid][cid] is the completion cycle of a done chunk; entries
	// at or past the core's cursor are stale.
	chunkEnd  [][]sim.Cycle
	ssb       map[ssbKey]ssbEntry
	coreClock []sim.Cycle
	res       *Result
	rng       *sim.RNG

	// Observability (nil when disabled).
	tr     *obs.Tracer
	hStall *sim.Histogram
	// Cycle accounting (nil when disabled): private registry + per-core
	// accumulators, decoded into Result.Prof at the end.
	profStats *sim.Stats
	lat       []*prof.Lat
	// cur/curStart scope divergences to the chunk being executed.
	cur      *relog.Chunk
	curStart sim.Cycle
}

// diverge records a divergence for the explainer (first one wins) and
// mirrors it into the trace stream.
func (r *replayer) diverge(kind string, pid int, cid int64, sn SN, at sim.Cycle,
	want, got uint64, detail string) {

	if r.tr != nil {
		r.tr.ReplayDiverge(pid, cid, int64(sn), int64(at), int64(want), int64(got))
	}
	if r.res.Divergence == nil {
		r.res.Divergence = &Divergence{
			PID: pid, CID: cid, SN: sn, Kind: kind,
			Expected: want, Observed: got, Detail: detail,
		}
	}
}

// curCID returns the chunk id the core is currently executing (-1 when
// the divergence is outside any chunk, e.g. the final SSB flush).
func (r *replayer) curCID(pid int) int64 {
	if r.cur != nil && r.cur.PID == pid {
		return r.cur.CID
	}
	return -1
}

// Run replays log against the workload it was recorded from, comparing
// with the recorded outcomes. expected[pid][sn-1] must be the recorded
// ExecRecord (pass nil to skip verification).
func Run(log *relog.Log, w *trace.Workload, expected [][]cpu.ExecRecord, cfg Config) (*Result, error) {
	st, err := NewStepper(log, w, expected, cfg)
	if err != nil {
		return nil, err
	}
	return st.run(), nil
}

// op returns core pid's memory op sn, which must be in range.
func (r *replayer) op(pid int, sn SN) trace.Op { return r.threads[pid][r.opIdx[pid][sn-1]] }

// done reports whether chunk p has executed.
func (r *replayer) done(p relog.ChunkRef) bool { return p.CID < int64(r.cursor[p.PID]) }

// ready reports whether every order constraint of the chunk is met.
func (r *replayer) ready(c *relog.Chunk) bool {
	for _, p := range c.Preds {
		if !r.done(p) {
			return false
		}
	}
	for _, pe := range c.PSet {
		e, ok := r.ssb[ssbKey{c.PID, pe.SrcCID, pe.Offset}]
		if !ok {
			// Source chunk not executed yet (P_set always references an
			// earlier chunk of the same core, so this means not ready).
			return false
		}
		for _, p := range e.preds {
			if !r.done(p) {
				return false
			}
		}
	}
	return true
}

// execute replays one chunk atomically: P_set compensation stores first,
// then the body with D_set skips and VLog overrides. It returns the
// chunk's modeled execution span.
func (r *replayer) execute(c *relog.Chunk) (sim.Cycle, sim.Cycle) {
	// Timing: start after the po-predecessor and all chunk preds (+wake).
	startAt := r.coreClock[c.PID]
	n := r.log.Cores
	// wakePart remembers the mesh latency of whichever predecessor set
	// startAt, so the stall can be attributed as network wake vs wait.
	var wakePart sim.Cycle
	for _, p := range c.Preds {
		if r.done(p) {
			if end, wk := r.chunkEnd[p.PID][p.CID], r.wake[p.PID*n+c.PID]; end+wk > startAt {
				startAt = end + wk
				wakePart = wk
			}
		}
	}
	for _, pe := range c.PSet {
		if e, ok := r.ssb[ssbKey{c.PID, pe.SrcCID, pe.Offset}]; ok {
			for _, p := range e.preds {
				if r.done(p) {
					if end, wk := r.chunkEnd[p.PID][p.CID], r.wake[p.PID*n+c.PID]; end+wk > startAt {
						startAt = end + wk
						wakePart = wk
					}
				}
			}
		}
	}
	stall := startAt - r.coreClock[c.PID]
	r.res.StallCycles += int64(stall)
	if r.lat != nil && r.res.Divergence == nil && stall > 0 {
		// Attribution freezes at the first divergence, so the report
		// describes the replay "up to the divergence point".
		noc := wakePart
		if noc > stall {
			noc = stall
		}
		r.lat[c.PID].Add(r.profStats, prof.NoC, int64(noc))
		r.lat[c.PID].Add(r.profStats, prof.Barrier, int64(stall-noc))
	}
	if r.hStall != nil {
		r.hStall.Observe(int64(stall))
	}
	r.cur, r.curStart = c, startAt

	// Functional: compensation stores.
	for _, pe := range c.PSet {
		key := ssbKey{c.PID, pe.SrcCID, pe.Offset}
		e, ok := r.ssb[key]
		if !ok {
			r.mismatch(Mismatch{PID: c.PID, Comment: fmt.Sprintf("P_set entry (cid=%d off=%d) has no SSB store", pe.SrcCID, pe.Offset)})
			continue
		}
		delete(r.ssb, key)
		r.applyStore(c.PID, e.sn, r.slots[c.PID][e.sn-1])
	}

	// Body. D_set and VLog are tiny per chunk (usually empty), so a
	// linear scan beats building per-chunk lookup maps.
	ents := r.slots[c.PID]
	for sn := c.StartSN; sn <= c.EndSN; sn++ {
		e := ents[sn-1]
		off := int32(sn - c.StartSN)
		r.res.OpsReplayed++
		var d *relog.DEntry
		for i := range c.DSet {
			if c.DSet[i].Offset == off {
				d = &c.DSet[i]
				break
			}
		}
		if d != nil {
			if d.IsLoad {
				// The log overrules memory: the load executed "in the
				// future" during recording.
				r.check(c.PID, sn, d.Value, true)
			} else {
				// Delayed store: park in the SSB until a P_set claims it.
				r.ssb[ssbKey{c.PID, c.CID, off}] = ssbEntry{sn: sn, preds: d.Pred}
			}
			continue
		}
		kind := e.kind()
		if kind == trace.Read {
			if v, ok := vlogValue(c.VLog, off); ok {
				r.check(c.PID, sn, v, true)
				continue
			}
		}
		switch kind {
		case trace.Read:
			r.check(c.PID, sn, r.mem.load(e.slot()), false)
		case trace.Write, trace.Release:
			r.applyStore(c.PID, sn, e)
		case trace.Acquire:
			old := r.mem.load(e.slot())
			applied := old == 0
			if applied {
				r.mem.store(e.slot(), 1)
			}
			r.checkRMW(c.PID, sn, old, applied)
		}
	}
	r.res.ChunksReplayed++
	end := startAt + c.Duration
	r.coreClock[c.PID] = end
	r.chunkEnd[c.PID][c.CID] = end
	r.cursor[c.PID]++
	if r.tr != nil {
		r.tr.ReplayChunk(c.PID, c.CID, int64(startAt), int64(end),
			int64(c.EndSN-c.StartSN+1), int64(stall))
	}
	r.cur = nil
	return startAt, end
}

// vlogValue finds the VLog entry at off, if any.
func vlogValue(vlog []relog.VEntry, off int32) (uint64, bool) {
	for i := range vlog {
		if vlog[i].Offset == off {
			return vlog[i].Value, true
		}
	}
	return 0, false
}

// applyStore executes core pid's op sn, whose entry is e, as a store.
func (r *replayer) applyStore(pid int, sn SN, e opEntry) {
	switch e.kind() {
	case trace.Write:
		r.mem.store(e.slot(), cpu.StoreValue(pid, sn))
	case trace.Release:
		r.mem.store(e.slot(), 0)
	default:
		// The log delayed this SN as a store but the workload op is not
		// one: a log/workload mismatch, not a crash.
		r.defect(Defect{PID: pid, SN: sn,
			Msg: fmt.Sprintf("delayed %v executed as a store", e.kind())})
	}
}

// check compares a replayed load value with the recording.
func (r *replayer) check(pid int, sn SN, got uint64, fromLog bool) {
	if r.expected == nil {
		return
	}
	if sn < 1 || int64(sn) > int64(len(r.expected[pid])) {
		r.defect(Defect{PID: pid, SN: sn, Msg: "no recorded outcome for this SN"})
		return
	}
	want := r.expected[pid][sn-1].Value
	if got != want {
		comment := "(memory)"
		if fromLog {
			comment = "(from log)"
		}
		op := r.op(pid, sn)
		r.mismatch(Mismatch{PID: pid, SN: sn, Kind: op.Kind, Addr: op.Addr,
			Got: got, Want: want, Comment: comment})
	}
}

func (r *replayer) checkRMW(pid int, sn SN, old uint64, applied bool) {
	if r.expected == nil {
		return
	}
	if sn < 1 || int64(sn) > int64(len(r.expected[pid])) {
		r.defect(Defect{PID: pid, SN: sn, Msg: "no recorded outcome for this SN"})
		return
	}
	rec := r.expected[pid][sn-1]
	if old != rec.Value || applied != rec.Applied {
		op := r.op(pid, sn)
		r.mismatch(Mismatch{PID: pid, SN: sn, Kind: op.Kind, Addr: op.Addr,
			Got: old, Want: rec.Value,
			Comment: fmt.Sprintf("(rmw applied=%v want %v)", applied, rec.Applied)})
	}
}

func (r *replayer) mismatch(m Mismatch) {
	r.res.MismatchCount++
	if len(r.res.Mismatches) < 32 {
		r.res.Mismatches = append(r.res.Mismatches, m)
	}
	r.diverge("value-mismatch", m.PID, r.curCID(m.PID), m.SN, r.curStart,
		m.Want, m.Got, m.Comment)
}

func (r *replayer) defect(d Defect) {
	r.res.DefectCount++
	if len(r.res.Defects) < 32 {
		r.res.Defects = append(r.res.Defects, d)
	}
	r.diverge("defect", d.PID, r.curCID(d.PID), d.SN, r.curStart, 0, 0, d.Msg)
}

// flushSSB executes any delayed stores never claimed by a P_set, so the
// final memory image is complete; each is counted as a log defect.
func (r *replayer) flushSSB() {
	for _, k := range r.ssbKeys() {
		e := r.ssb[k]
		r.applyStore(k.pid, e.sn, r.slots[k.pid][e.sn-1])
		r.res.LeftoverSSB++
		r.diverge("leftover-ssb", k.pid, k.cid, e.sn, r.coreClock[k.pid], 0, 0,
			fmt.Sprintf("delayed store (offset %d) never claimed by a P_set", k.offset))
	}
}

// ssbKeys returns the parked stores' keys in (pid, cid, offset) order.
func (r *replayer) ssbKeys() []ssbKey {
	keys := make([]ssbKey, 0, len(r.ssb))
	for k := range r.ssb {
		keys = append(keys, k)
	}
	slices.SortFunc(keys, func(a, b ssbKey) int {
		return cmp.Or(cmp.Compare(a.pid, b.pid), cmp.Compare(a.cid, b.cid), cmp.Compare(a.offset, b.offset))
	})
	return keys
}

// FinalMemory is returned by RunWithMemory for final-state comparison.
type FinalMemory map[coherence.Addr]uint64

// RunWithMemory is Run but also returns the final memory image. The
// log is semantically validated (relog.Validate) before any chunk
// executes: a log that violates the recorder's invariants is rejected
// with an error wrapping relog.ErrInvalid instead of replayed on a
// best-effort basis.
//
// It is the batch form of the Stepper: every chunk executes through the
// same Step path the interactive debugger uses, so a stepped (or
// checkpoint-restored) session and a batch replay are identical by
// construction, not by parallel maintenance.
func RunWithMemory(log *relog.Log, w *trace.Workload, expected [][]cpu.ExecRecord, cfg Config) (*Result, FinalMemory, error) {
	st, err := NewStepper(log, w, expected, cfg)
	if err != nil {
		return nil, nil, err
	}
	st.run()
	res, mem := st.Finish()
	return res, mem, nil
}
