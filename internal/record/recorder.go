// Package record implements Pacifier's record-phase hardware (Section 4):
// the per-core pending window (PW), log history buffer (LHB), MRR and
// MRPS registers, the counting Bloom filter, Karma's cyclic chunk
// termination with scalar timestamps, the boundary-movement optimizations
// of Section 3.4 (R-All, R-Bound, Invisi-Bound, Move-Bound, PMove-Bound),
// Granule's SCV trigger, and Relog's D_set/P_set/Pred logging.
//
// A Recorder observes one machine execution (it implements
// machine.Observer) and produces a relog.Log.
package record

import (
	"cmp"
	"fmt"
	"slices"

	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/scvd"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// Config parameterizes a Recorder.
type Config struct {
	Cores int
	Mode  Mode
	// MaxChunkOps terminates a chunk after this many retired memory
	// operations regardless of dependences (log-field width bound).
	MaxChunkOps int64
	// PWSize sizes the CBF (Table 4: 256-entry PW).
	PWSize int
	// LHBSize is the configured LHB capacity; occupancy beyond it is
	// counted (Figure 13 reports the high watermark against 16).
	LHBSize int
	// Tracer, when non-nil, receives chunk and SCV-detector events.
	Tracer *obs.Tracer
	// Profile enables measured recorder-overhead accounting: every live
	// logging event (chunk commit, log entry, squash) charges its modeled
	// per-event cost to a prof.* counter as it happens. Off, the paths
	// pay one nil compare each.
	Profile bool
}

// DefaultConfig returns the paper's recording parameters.
func DefaultConfig(cores int, mode Mode) Config {
	return Config{Cores: cores, Mode: mode, MaxChunkOps: 2048, PWSize: 256, LHBSize: 16}
}

// Clock tells a Recorder the current simulated cycle: the machine's
// engine when the recorder observes the machine directly, or the cycle
// stamped on the event being delivered when it runs behind an event
// stream (internal/core).
type Clock interface {
	Now() sim.Cycle
}

// Recorder observes a machine run and builds the log.
type Recorder struct {
	cfg   Config
	strat Strategy
	clock Clock
	cores []*coreState
	vol   *scvd.Volition
	races *scvd.RaceSet
	log   *relog.Log
	stats *sim.Stats

	// volCycleHint remembers, per destination access, whether Volition
	// confirmed a cycle for the dependence being processed.
	finished bool

	chunkFree []*chunkState // emitted chunk states for reuse

	// Lazily resolved stat counters for the per-operation paths (string
	// keyed lookups are too slow there).
	cDeps                                  [3]*sim.Counter // indexed by DepKind
	cCyclic, cDegenerate, cPromised        *sim.Counter
	cScvLogged, cDsetEntries, cVlogEntries *sim.Counter
	cPerformedWrt, cRaceMarks              *sim.Counter

	// Observability (nil when disabled): tr receives chunk/SCV events
	// under mode index trMode; hChunk samples emitted chunk sizes.
	tr     *obs.Tracer
	trMode int8
	hChunk *sim.Histogram

	// lat, when non-nil, accumulates measured recorder-induced cycles
	// (per-event costs charged at the live event sites).
	lat *prof.RecLat
}

func (r *Recorder) inc(cp **sim.Counter, name string) {
	if r.stats == nil {
		return
	}
	if *cp == nil {
		*cp = r.stats.Counter(name)
	}
	(*cp).Value++
}

// NewRecorder builds a recorder that reads simulated time (for chunk
// durations and trace events) from clock, which may be nil (time 0),
// and counts into stats, which may be nil.
func NewRecorder(cfg Config, clock Clock, stats *sim.Stats) *Recorder {
	if cfg.Cores <= 0 {
		panic("record: need at least one core")
	}
	if cfg.MaxChunkOps <= 0 {
		cfg.MaxChunkOps = 2048
	}
	if cfg.PWSize <= 0 {
		cfg.PWSize = 256
	}
	r := &Recorder{cfg: cfg, strat: strategyFor(cfg.Mode), clock: clock, log: relog.NewLog(cfg.Cores), stats: stats}
	r.tr = cfg.Tracer
	r.trMode = int8(cfg.Mode)
	if cfg.Profile {
		r.lat = prof.NewRecLat(stats, cfg.Cores, cfg.Mode.String())
	}
	if stats != nil {
		r.hChunk = stats.Histogram("record.chunk_ops." + cfg.Mode.String())
	}
	for pid := 0; pid < cfg.Cores; pid++ {
		cs := &coreState{
			pw:         NewPendingWindow(cfg.PWSize),
			staged:     make(map[SN]*stagedDelayed),
			preCarrier: make(map[SN]*chunkState),
			delayedSrc: make(map[SN]relog.ChunkRef),
			fwd:        make(map[SN][]relog.VEntrySN),
			vlogged:    make(map[SN]struct{}),
			lineHazard: make(map[cache.Line]int64),
		}
		cs.cc = r.newChunkState(pid, cs, 1, 0)
		r.cores = append(r.cores, cs)
	}
	if r.strat.NeedsVolition() {
		r.vol = scvd.NewVolition(cfg.Cores)
		if r.tr != nil {
			// Trace every precise cycle the oracle confirms, tagged
			// with the open chunk of the closing access's core.
			r.vol.OnCycle = func(src, dst scvd.Access) {
				r.tr.VolCycle(r.trMode, dst.PID, r.cores[dst.PID].cc.cid,
					int64(dst.SN), int64(r.now()), src.PID, int64(src.SN))
			}
		}
	}
	if r.strat.NeedsRaces() {
		r.races = scvd.NewRaceSet(cfg.Cores)
	}
	return r
}

func (r *Recorder) now() sim.Cycle {
	if r.clock != nil {
		return r.clock.Now()
	}
	return 0
}

func (r *Recorder) newChunkState(pid int, cs *coreState, startSN SN, ts int64) *chunkState {
	var c *chunkState
	if n := len(r.chunkFree); n > 0 {
		c = r.chunkFree[n-1]
		r.chunkFree = r.chunkFree[:n-1]
		*c = chunkState{preds: c.preds[:0]}
	} else {
		c = &chunkState{}
	}
	c.cid = cs.nextCID
	c.startSN = startSN
	c.ts = ts
	c.start = r.now()
	cs.nextCID++
	if r.tr != nil {
		r.tr.ChunkBegin(r.trMode, pid, c.cid, int64(c.start))
	}
	return c
}

// Mode returns the recorder's policy.
func (r *Recorder) Mode() Mode { return r.cfg.Mode }

// ---------------------------------------------------------------------
// cpu.Observer
// ---------------------------------------------------------------------

// LineOf returns the 32-byte cache line of an address, the key the PW
// and its CBF index operations by.
func LineOf(a coherence.Addr) cache.Line { return cache.Line(uint64(a) >> 5) }

// OnDispatch inserts the operation into the PW in program order.
func (r *Recorder) OnDispatch(pid int, sn SN, kind trace.OpKind, addr coherence.Addr) {
	r.cores[pid].pw.Dispatch(sn, kind, addr, LineOf(addr))
}

// OnRetire advances MRR (the counting point) and applies the capacity
// termination policy.
func (r *Recorder) OnRetire(pid int, sn SN) {
	cs := r.cores[pid]
	cs.mrr = sn
	cs.cc.retired++
	if cs.cc.retired >= r.cfg.MaxChunkOps {
		r.closeCurrent(pid, cs.mrr, cs.cc.ts+1, nil)
	}
}

// OnLoadValue remembers the bound value for D_set / Section 3.2 logging.
func (r *Recorder) OnLoadValue(pid int, sn SN, addr coherence.Addr, val uint64) {
	r.cores[pid].pw.SetLoadValue(sn, val)
}

// OnIdle subtracts barrier-park time from the open chunk's duration and
// terminates the chunk: a barrier is a natural communication-free cut,
// and ending chunks there keeps cross-phase consumers from waiting on
// chunks that span several phases.
func (r *Recorder) OnIdle(pid int, cycles int64) {
	cs := r.cores[pid]
	cs.cc.idle += sim.Cycle(cycles)
	if cs.mrr >= cs.cc.startSN {
		r.closeCurrent(pid, cs.mrr, cs.cc.ts+1, nil)
	}
}

// OnLoadForwarded remembers forwarding pairs while the store is
// buffered, so a later delay of the store can value-log its consumers.
func (r *Recorder) OnLoadForwarded(pid int, loadSN, storeSN SN, val uint64) {
	cs := r.cores[pid]
	cs.fwd[storeSN] = append(cs.fwd[storeSN], relog.VEntrySN{SN: loadSN, Value: val})
	cs.fwdPairs = append(cs.fwdPairs, fwdPair{load: loadSN, store: storeSN, val: val})
}

// OnPerformed marks the PW entry, finalizes any staged Relog entry, and
// advances completion.
func (r *Recorder) OnPerformed(pid int, sn SN) {
	cs := r.cores[pid]
	e := cs.pw.Perform(sn)
	if e == nil {
		return // already completed (defensive; should not happen)
	}

	if !e.mustLog && r.strat.MarkOnPerform(r, pid, e) {
		e.mustLog = true
	}
	if st, ok := cs.staged[sn]; ok {
		r.finalizeDelayed(pid, sn, e, st)
	} else if e.mustLog {
		// R-All / R-Bound: finalize once the owning chunk is closed; if
		// it is still the open chunk, the close handler picks it up.
		if ch := r.chunkStateOf(cs, sn); ch != cs.cc && ch != nil {
			r.finalizeDelayed(pid, sn, e, &stagedDelayed{chunk: ch, preds: map[relog.ChunkRef]struct{}{}})
			e.mustLog = false
		}
	}
	// A store that will never be delayed no longer needs its forwarding
	// record (delays are staged strictly before the store performs).
	if _, ok := cs.staged[sn]; !ok {
		delete(cs.fwd, sn)
	}
	r.drain(pid)
}

// markRacing applies the strategy's dependence-time marking to one
// racing access (crd): if the policy fires, the entry is flagged for
// logging, finalizing immediately when its owning chunk already closed
// (nothing else would pick a performed entry up before the next
// termination on that core).
func (r *Recorder) markRacing(pid int, sn SN) {
	cs := r.cores[pid]
	e := cs.pw.Get(sn)
	if e == nil || e.mustLog {
		return
	}
	if _, ok := cs.staged[sn]; ok {
		return // already staged for delay: the D_set entry is coming
	}
	if !r.strat.MarkOnDependence(r, pid, e) {
		return
	}
	e.mustLog = true
	r.inc(&r.cRaceMarks, "record.race_marks")
	if e.performed {
		if ch := r.chunkStateOf(cs, sn); ch != nil && ch != cs.cc {
			r.finalizeDelayed(pid, sn, e, &stagedDelayed{chunk: ch, preds: map[relog.ChunkRef]struct{}{}})
			e.mustLog = false
		}
	}
}

// drain advances the PW tail and emits completed chunks.
func (r *Recorder) drain(pid int) {
	cs := r.cores[pid]
	oldTail := cs.pw.TailSN()
	newTail := cs.pw.Drain()
	if newTail == oldTail {
		return
	}
	if r.vol != nil {
		r.vol.Clear(pid, newTail)
	}
	if r.races != nil {
		r.races.Clear(pid, newTail)
	}
	if cs.mrps != 0 && cs.mrps < newTail {
		cs.mrps = cs.pw.YoungestPerformedSource()
	}
	if len(cs.preCarrier) > 64 {
		for sn := range cs.preCarrier {
			if sn < newTail {
				delete(cs.preCarrier, sn)
			}
		}
	}
	r.emitCompleted(pid)
}

// emitCompleted flushes LHB chunks whose instructions have all left the
// PW, in order.
func (r *Recorder) emitCompleted(pid int) {
	cs := r.cores[pid]
	live := cs.pw.TailSN()
	for len(cs.lhb) > 0 && cs.lhb[0].endSN < live {
		r.emit(pid, cs.lhb[0])
		cs.lhb = cs.lhb[1:]
	}
}

func (r *Recorder) emit(pid int, c *chunkState) {
	dur := c.end - c.start - c.idle
	if dur < 0 {
		dur = 0
	}
	r.lat.Add(pid, CostChunkCommit)
	if r.hChunk != nil {
		r.hChunk.Observe(int64(c.endSN - c.startSN + 1))
	}
	if r.tr != nil {
		r.tr.ChunkCommit(r.trMode, pid, c.cid, int64(c.start), int64(c.start)+int64(dur),
			int64(c.endSN-c.startSN+1), int64(len(c.preds)))
	}
	out := &relog.Chunk{
		PID:      pid,
		CID:      c.cid,
		StartSN:  c.startSN,
		EndSN:    c.endSN,
		TS:       c.ts,
		DSet:     c.dset,
		PSet:     c.pset,
		VLog:     c.vlog,
		Duration: dur,
	}
	if len(c.preds) > 0 {
		out.Preds = append(make([]relog.ChunkRef, 0, len(c.preds)), c.preds...)
	}
	slices.SortFunc(out.Preds, cmpChunkRef)
	slices.SortFunc(out.DSet, func(a, b relog.DEntry) int { return cmp.Compare(a.Offset, b.Offset) })
	// P_set entries execute in list order during replay: keep them in
	// SN order of the delayed stores ((source CID, offset) lexicographic).
	slices.SortFunc(out.PSet, func(a, b relog.PEntry) int {
		if a.SrcCID != b.SrcCID {
			return cmp.Compare(a.SrcCID, b.SrcCID)
		}
		return cmp.Compare(a.Offset, b.Offset)
	})
	slices.SortFunc(out.VLog, func(a, b relog.VEntry) int { return cmp.Compare(a.Offset, b.Offset) })
	r.log.Append(out)
	// The emitted chunk retains dset/pset/vlog; the state struct and its
	// preds backing array are free for reuse (no live pointer can reach
	// an emitted chunkState — emission requires all of its instructions,
	// and those of any staged store pinning it, to have left the PW).
	r.chunkFree = append(r.chunkFree, c)
}

// cmpChunkRef orders chunk references by (PID, CID).
func cmpChunkRef(a, b relog.ChunkRef) int {
	if a.PID != b.PID {
		return cmp.Compare(a.PID, b.PID)
	}
	return cmp.Compare(a.CID, b.CID)
}

// ---------------------------------------------------------------------
// coherence.Observer
// ---------------------------------------------------------------------

// SnapshotSource returns the chunk information piggybacked on the
// message serving a dependence whose source is (pid, sn). Serving from
// the open chunk freezes its timestamp: a remote chunk is about to order
// itself after it.
func (r *Recorder) SnapshotSource(pid int, sn SN) coherence.SrcSnap {
	cs := r.cores[pid]
	// Finalized delayed store: its replay execution point is its carrier.
	if ref, ok := cs.delayedSrc[sn]; ok {
		if cs.cc.cid == ref.CID {
			cs.cc.frozen = true
			return coherence.SrcSnap{Valid: true, PID: pid, CID: ref.CID, TS: cs.cc.ts}
		}
		if m, ok2 := r.metaByCID(cs, ref.CID); ok2 {
			return coherence.SrcSnap{Valid: true, PID: pid, CID: m.cid, TS: m.ts}
		}
	}
	// A store that is currently staged for delay serves from its future
	// carrier: pre-commit the open chunk (non-atomic writes can serve a
	// store's value before its reordering fate is final).
	if _, isStaged := cs.staged[sn]; isStaged {
		pc, ok := cs.preCarrier[sn]
		if !ok {
			pc = cs.cc
			cs.preCarrier[sn] = pc
		}
		if pc == cs.cc {
			cs.cc.frozen = true
		}
		return coherence.SrcSnap{Valid: true, PID: pid, CID: pc.cid, TS: pc.ts}
	}
	// Loads and completed accesses execute within their own chunk.
	if ch := r.chunkStateOf(cs, sn); ch == cs.cc {
		cs.cc.frozen = true
		if sn > cs.cc.maxSrcSN {
			cs.cc.maxSrcSN = sn
		}
		snap := coherence.SrcSnap{Valid: true, PID: pid, CID: cs.cc.cid, TS: cs.cc.ts}
		// Terminate at the serve point: the consumer is ordered after
		// this chunk's END, so ending it here (rather than letting it
		// run to the next cyclic/capacity cut) keeps replay wake-up
		// waits proportional to the real communication latency.
		if b := maxSN(sn, cs.mrr); b >= cs.cc.startSN {
			r.closeCurrent(pid, b, cs.cc.ts+1, nil)
		}
		return snap
	}
	if m, ok := r.metaOf(cs, sn); ok {
		return coherence.SrcSnap{Valid: true, PID: pid, CID: m.cid, TS: m.ts}
	}
	// SN predates recording (e.g. never dispatched): invalid snapshot.
	return coherence.SrcSnap{}
}

// OnLocalSource marks the access as a dependence source (MRPS).
func (r *Recorder) OnLocalSource(pid int, sn SN, isWrite bool) {
	cs := r.cores[pid]
	if e := cs.pw.Get(sn); e != nil {
		e.isSource = true
		if e.performed && sn > cs.mrps {
			cs.mrps = sn
		}
	}
}

// OnDependence is the heart of the recorder: Karma's timestamp ordering,
// cyclic termination, and Granule/Relog logging (Listing 1).
func (r *Recorder) OnDependence(d coherence.Dependence) {
	if !d.Snap.Valid {
		return
	}
	pid := d.Dst.PID
	cs := r.cores[pid]
	srcRef := relog.ChunkRef{PID: d.Snap.PID, CID: d.Snap.CID}
	srcTS := d.Snap.TS

	volCycle := false
	if r.vol != nil {
		volCycle = r.vol.AddDep(
			scvd.Access{PID: d.Src.PID, SN: d.Src.SN},
			scvd.Access{PID: pid, SN: d.Dst.SN})
	}
	if r.stats != nil {
		if k := int(d.Kind); k < len(r.cDeps) {
			if r.cDeps[k] == nil {
				r.cDeps[k] = r.stats.Counter("record.deps." + d.Kind.String())
			}
			r.cDeps[k].Value++
		}
	}
	if r.races != nil {
		// Both endpoints of a cross-core dependence race by definition.
		// Remember them (for later perform-time checks) and apply the
		// strategy's dependence-time marking to each right away.
		r.races.Add(d.Src.PID, d.Src.SN)
		r.races.Add(pid, d.Dst.SN)
		r.markRacing(d.Src.PID, d.Src.SN)
		r.markRacing(pid, d.Dst.SN)
	}

	ch := r.chunkStateOf(cs, d.Dst.SN)
	if ch == cs.cc {
		if !cs.cc.frozen {
			// First dependence: absorb by raising the timestamp (Karma
			// terminates only on cyclic dependences, Figure 8a).
			if srcTS >= cs.cc.ts {
				cs.cc.ts = srcTS + 1
			}
			cs.cc.addPred(srcRef)
			return
		}
		if srcTS < cs.cc.ts {
			cs.cc.addPred(srcRef)
			return
		}
		r.cyclicTermination(pid, d, srcRef, srcTS, volCycle)
		return
	}
	if ch != nil {
		// Destination in a closed chunk.
		if srcTS < ch.ts {
			hazard := false
			if d.Dst.IsWrite && r.strat.DelaysStores() {
				// Same-word program order: if an earlier same-line store
				// was delayed to a carrier at or after this chunk, this
				// store must be delayed too (it would otherwise replay
				// before the older one). Without such a hazard the
				// chunk-level order suffices.
				hazard = cs.lineHazard[d.Line] >= ch.cid
			}
			if hazard {
				if !r.stageDelayed(pid, d.Dst.SN, srcRef) {
					ch.addPred(srcRef)
				}
			} else {
				ch.addPred(srcRef)
			}
			return
		}
		r.cyclicTermination(pid, d, srcRef, srcTS, volCycle)
		return
	}
	// Destination chunk already emitted: cannot happen for a performing
	// instruction; tolerate by ordering the current chunk.
	if srcTS >= cs.cc.ts {
		if cs.cc.frozen {
			r.forceClose(pid, cs.cc.startSN-1)
		}
		cs.cc.ts = maxI64(cs.cc.ts, srcTS+1)
	}
	cs.cc.addPred(srcRef)
}

// cyclicTermination implements OnChunkTerminate for cycle==true
// (Listing 1): pick the boundary per the mode's movement policy, close
// the chunk, and decide whether Relog must record the destination.
func (r *Recorder) cyclicTermination(pid int, d coherence.Dependence,
	srcRef relog.ChunkRef, srcTS int64, volCycle bool) {

	cs := r.cores[pid]
	dinst := d.Dst.SN
	r.inc(&r.cCyclic, "record.cyclic_terminations")

	// Boundary selection (Table 2) is the strategy's call.
	b := r.strat.Boundary(cs, dinst)
	// A performed-but-unretired source can exceed MRR; the promise to
	// remote consumers outranks the counting point, so the boundary is
	// pinned upward rather than clamped to MRR.
	if b < cs.cc.maxSrcSN {
		b = cs.cc.maxSrcSN
	}
	if b < cs.cc.startSN-1 {
		b = cs.cc.startSN - 1
	}

	// Granule's SCV trigger: the destination lands inside the closed
	// region — its position is decided, so the reordering must be logged
	// (SN < MRPS in Listing 1, generalized to any closed placement).
	// The log policy refines the trigger (suppress always, oracle-gate,
	// or take it as is).
	logIt := r.strat.LogDelayed(dinst <= b, volCycle)

	if r.tr != nil && r.strat.DelaysStores() {
		// Detector outcome for this termination: a fire (the delayed
		// destination must be logged) or a suppression (the boundary
		// proof — Invisi-Bound / PMove-Bound — or the Volition oracle
		// showed the reordering invisible).
		if logIt {
			r.tr.SCVDetect(r.trMode, pid, cs.cc.cid, int64(dinst), int64(r.now()),
				int64(dinst), int64(b))
		} else {
			r.tr.SCVSuppress(r.trMode, pid, cs.cc.cid, int64(dinst), int64(r.now()),
				int64(dinst), int64(b))
		}
	}

	if r.strat.MarkPendingAtBoundary() {
		// R-Bound: everything still pending at the boundary will perform
		// beyond it: mark it all for logging (no Invisi filtering).
		cs.pw.Range(func(e *pwEntry) {
			if e.sn <= b && !e.performed {
				e.mustLog = true
			}
		})
	}

	if b >= cs.cc.startSN {
		r.closeCurrent(pid, b, maxI64(cs.cc.ts+1, srcTS+1), &srcRef)
	} else {
		// Degenerate: the whole current chunk moves past the boundary.
		if cs.cc.frozen {
			// The chunk's timestamp was promised to a consumer (e.g. a
			// staged store's carrier): it cannot be re-ordered. Close it
			// (possibly empty) and order the fresh chunk instead.
			r.forceClose(pid, cs.cc.startSN-1)
		}
		cs.cc.ts = maxI64(cs.cc.ts, srcTS+1)
		cs.cc.addPred(srcRef)
		r.inc(&r.cDegenerate, "record.degenerate_moves")
		r.lat.Add(pid, CostChunkCommit)
		if r.tr != nil {
			r.tr.ChunkSquash(r.trMode, pid, cs.cc.cid, int64(r.now()), int64(dinst))
		}
	}

	if logIt {
		// A store that already served as a dependence source promised
		// its consumers it executes within its chunk; delaying it would
		// break that promise. Keep it in place and record the chunk
		// order instead (replay may report an order break if the
		// dependences are genuinely cyclic).
		if e := cs.pw.Get(dinst); e != nil && e.isSource && e.kind != trace.Read {
			if ch := r.chunkStateOf(cs, dinst); ch != nil {
				ch.addPred(srcRef)
			}
			r.inc(&r.cPromised, "record.promised_source_preds")
			return
		}
		r.stageDelayed(pid, dinst, srcRef)
		r.inc(&r.cScvLogged, "record.scv_logged")
	}
}

// forceClose closes the open chunk even when empty (only used by Finish
// for trailing P_set/VLog carriers).
func (r *Recorder) forceClose(pid int, b SN) {
	cs := r.cores[pid]
	if b < cs.cc.maxSrcSN {
		b = cs.cc.maxSrcSN // a promised source pins the boundary
	}
	if b >= cs.cc.startSN {
		r.closeCurrent(pid, b, cs.cc.ts+1, nil)
		return
	}
	cc := cs.cc
	cc.endSN = b
	cc.end = r.now()
	cs.lhb = append(cs.lhb, cc)
	cs.meta = append(cs.meta, chunkMeta{cid: cc.cid, startSN: cc.startSN, endSN: b, ts: cc.ts})
	r.lat.Add(pid, CostChunkCommit)
	if r.tr != nil {
		// An empty forced close is a squashed chunk: it carries only
		// promised P_set/VLog state, no retired operations.
		r.tr.ChunkSquash(r.trMode, pid, cc.cid, int64(r.now()), int64(len(cc.pset)))
	}
	cs.cc = r.newChunkState(pid, cs, b+1, cc.ts+1)
}

// closeCurrent closes the open chunk at boundary b and opens the next
// one with the given timestamp and optional predecessor.
func (r *Recorder) closeCurrent(pid int, b SN, newTS int64, pred *relog.ChunkRef) {
	cs := r.cores[pid]
	cc := cs.cc
	if b < cc.maxSrcSN {
		b = cc.maxSrcSN
	}
	if b < cc.startSN {
		return // nothing to close
	}
	cc.endSN = b
	cc.end = r.now()
	// Forwarded loads placed in this chunk: if the forwarding store sits
	// in an earlier chunk, replay may order a remote writer between the
	// two — the load's value must come from the log. (Same-chunk pairs
	// are safe unless the store is delayed, which the fwd map covers.)
	if len(cs.fwdPairs) > 0 {
		var rest []fwdPair
		for _, fp := range cs.fwdPairs {
			switch {
			case fp.load > b:
				rest = append(rest, fp)
			case fp.store < cc.startSN:
				r.addVLog(pid, fp.load, fp.val)
			}
		}
		cs.fwdPairs = rest
	}
	if len(cs.pendingVLog) > 0 {
		var rest []relog.VEntrySN
		for _, v := range cs.pendingVLog {
			if v.SN >= cc.startSN && v.SN <= b {
				cc.vlog = append(cc.vlog, relog.VEntry{Offset: int32(v.SN - cc.startSN), Value: v.Value})
			} else {
				rest = append(rest, v)
			}
		}
		cs.pendingVLog = rest
	}
	cs.lhb = append(cs.lhb, cc)
	if occ := len(cs.lhb) + 1; occ > cs.lhbMax {
		cs.lhbMax = occ
	}
	cs.meta = append(cs.meta, chunkMeta{cid: cc.cid, startSN: cc.startSN, endSN: b, ts: cc.ts})
	cs.cc = r.newChunkState(pid, cs, b+1, newTS)
	if pred != nil {
		cs.cc.addPred(*pred)
	}
	// R-All / R-Bound: entries already performed and now stranded in the
	// closed chunk finalize immediately.
	cs.pw.Range(func(e *pwEntry) {
		if e.mustLog && e.performed && e.sn <= b {
			if ch := r.chunkStateOf(cs, e.sn); ch != nil && ch != cs.cc {
				r.finalizeDelayed(pid, e.sn, e, &stagedDelayed{chunk: ch, preds: map[relog.ChunkRef]struct{}{}})
				e.mustLog = false
			}
		}
	})
	r.emitCompleted(pid)
}

// stageDelayed records that dinst must be delayed past its chunk: a
// D_set entry in its own chunk, Pred accumulation, and (for stores) a
// P_set entry on the carrier chunk. It reports whether it could stage
// (false once the instruction has left the PW).
func (r *Recorder) stageDelayed(pid int, dinst SN, pred relog.ChunkRef) bool {
	cs := r.cores[pid]
	e := cs.pw.Get(dinst)
	if e == nil {
		return false // completed: can no longer be delayed
	}
	st, ok := cs.staged[dinst]
	if !ok {
		ch := r.chunkStateOf(cs, dinst)
		if ch == nil || ch == cs.cc {
			// The destination stayed in the open chunk (boundary moved
			// past it): no reordering is visible, nothing to log.
			return ch == cs.cc
		}
		st = &stagedDelayed{chunk: ch, preds: make(map[relog.ChunkRef]struct{})}
		cs.staged[dinst] = st
	}
	st.carrier = cs.cc // latest staging decides the execution chunk
	if e.kind != trace.Read {
		if st.carrier.cid > cs.lineHazard[e.line] {
			cs.lineHazard[e.line] = st.carrier.cid
		}
	}
	st.preds[pred] = struct{}{}
	if e.performed {
		r.finalizeDelayed(pid, dinst, e, st)
	}
	return true
}

// finalizeDelayed writes the D_set (and P_set) entries once the delayed
// instruction has performed and its value/preds are final.
func (r *Recorder) finalizeDelayed(pid int, sn SN, e *pwEntry, st *stagedDelayed) {
	cs := r.cores[pid]
	delete(cs.staged, sn)
	ch := st.chunk
	offset := int32(sn - ch.startSN)
	var preds []relog.ChunkRef
	for p := range st.preds {
		preds = append(preds, p)
	}
	slices.SortFunc(preds, cmpChunkRef)
	if i, ok := ch.dindex[offset]; ok {
		ch.dset[i].Pred = mergePreds(ch.dset[i].Pred, preds)
		return
	}
	entry := relog.DEntry{Offset: offset, Pred: preds}
	if e.kind == trace.Read {
		entry.IsLoad = true
		entry.Value = e.value
	} else {
		// The store executes at the carrier chunk committed at staging
		// time. Replay runs a chunk's P_set before its body, so this is
		// the earliest point consistent with the store's Pred set. Any
		// pre-committed promise (preCarrier) is a chunk at or after the
		// carrier, so consumers that wait for it still see the store.
		carrier := st.carrier
		if carrier == nil {
			carrier = cs.cc
		}
		delete(cs.preCarrier, sn)
		carrier.pset = append(carrier.pset, relog.PEntry{SrcCID: ch.cid, Offset: offset})
		r.lat.Add(pid, CostLogEntry)
		cs.delayedSrc[sn] = relog.ChunkRef{PID: pid, CID: carrier.cid}
		// Loads that forwarded from this (now delayed) store must replay
		// from the log: memory will not hold the value yet.
		for _, f := range cs.fwd[sn] {
			r.addVLog(pid, f.SN, f.Value)
		}
		delete(cs.fwd, sn)
	}
	if ch.dindex == nil {
		ch.dindex = make(map[int32]int)
	}
	ch.dindex[offset] = len(ch.dset)
	ch.dset = append(ch.dset, entry)
	r.lat.Add(pid, CostLogEntry)
	r.inc(&r.cDsetEntries, "record.dset_entries")
}

func mergePreds(a, b []relog.ChunkRef) []relog.ChunkRef {
	seen := make(map[relog.ChunkRef]struct{}, len(a)+len(b))
	for _, p := range a {
		seen[p] = struct{}{}
	}
	out := append([]relog.ChunkRef(nil), a...)
	for _, p := range b {
		if _, ok := seen[p]; !ok {
			out = append(out, p)
			seen[p] = struct{}{}
		}
	}
	return out
}

// ---------------------------------------------------------------------
// Section 3.2 (non-atomic writes)
// ---------------------------------------------------------------------

// QueryPWForLine answers an invalidation's query: a performed load to
// the line still pending?
func (r *Recorder) QueryPWForLine(pid int, line cache.Line) coherence.PWQueryResult {
	return r.cores[pid].pw.Query(line)
}

// OnHoldPWEntry pins the entry until the writer's response.
func (r *Recorder) OnHoldPWEntry(pid int, sn SN) {
	r.cores[pid].pw.SetHeld(sn, true)
}

// OnLogOldValue records the stale value the load observed (the
// non-atomic write was visible): a VLog entry in the load's chunk.
func (r *Recorder) OnLogOldValue(pid int, sn SN, line cache.Line, val uint64) {
	r.addVLog(pid, sn, val)
}

// addVLog places a value log in the load's chunk, deferring placement
// while the owning chunk is still open (its boundary could close before
// the load's SN, moving the load to a later chunk).
func (r *Recorder) addVLog(pid int, sn SN, val uint64) {
	cs := r.cores[pid]
	if _, dup := cs.vlogged[sn]; dup {
		return
	}
	cs.vlogged[sn] = struct{}{}
	r.lat.Add(pid, CostLogEntry)
	r.inc(&r.cVlogEntries, "record.vlog_entries")
	ch := r.chunkStateOf(cs, sn)
	if ch == nil || ch == cs.cc {
		cs.pendingVLog = append(cs.pendingVLog, relog.VEntrySN{SN: sn, Value: val})
		return
	}
	ch.vlog = append(ch.vlog, relog.VEntry{Offset: int32(sn - ch.startSN), Value: val})
}

// OnReleasePWEntry unpins the entry.
func (r *Recorder) OnReleasePWEntry(pid int, sn SN) {
	r.cores[pid].pw.SetHeld(sn, false)
	r.drain(pid)
}

// OnStorePerformedWrt is informational.
func (r *Recorder) OnStorePerformedWrt(w coherence.AccessRef, pid int, line cache.Line) {
	r.inc(&r.cPerformedWrt, "record.performed_wrt")
}

// ---------------------------------------------------------------------
// Finish
// ---------------------------------------------------------------------

// Finish closes every open chunk and returns the completed log. The
// machine must have drained (every operation performed) before calling.
func (r *Recorder) Finish() *relog.Log {
	if r.finished {
		return r.log
	}
	for pid, cs := range r.cores {
		if cs.mrr >= cs.cc.startSN || len(cs.cc.pset) > 0 || len(cs.cc.vlog) > 0 {
			b := cs.mrr
			if b < cs.cc.startSN-1 {
				b = cs.cc.startSN - 1 // zero-size chunk carrying P_set/VLog
			}
			r.forceClose(pid, b)
		}
		r.drain(pid)
		r.emitCompleted(pid)
		if len(cs.lhb) != 0 || cs.pw.Len() != 0 {
			panic(fmt.Sprintf("record: core %d did not drain (lhb=%d pw=%d); machine incomplete?",
				pid, len(cs.lhb), cs.pw.Len()))
		}
		if len(cs.staged) != 0 {
			panic(fmt.Sprintf("record: core %d has %d staged delayed entries at finish", pid, len(cs.staged)))
		}
	}
	r.finished = true
	return r.log
}

// LHBMax returns the LHB occupancy high watermark of core pid (the
// Figure 13 metric).
func (r *Recorder) LHBMax(pid int) int { return r.cores[pid].lhbMax }

// MaxLHBAcrossCores returns the machine-wide watermark.
func (r *Recorder) MaxLHBAcrossCores() int {
	m := 0
	for _, cs := range r.cores {
		if cs.lhbMax > m {
			m = cs.lhbMax
		}
	}
	return m
}

// PWMax returns core pid's PW occupancy high watermark.
func (r *Recorder) PWMax(pid int) int { return r.cores[pid].pw.MaxOcc() }

// ProfiledCycles returns the measured recorder-induced cycles attributed
// so far (0 unless Config.Profile was set). Unlike the end-of-run cost
// model, this counts every live event, including squashed chunks and
// degenerate moves.
func (r *Recorder) ProfiledCycles() int64 { return r.lat.Total() }

func maxSN(a, b SN) SN {
	if a > b {
		return a
	}
	return b
}

func maxI64(a, b int64) int64 {
	if a > b {
		return a
	}
	return b
}
