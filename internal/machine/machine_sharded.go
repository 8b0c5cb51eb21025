// Sharded machine assembly: conservative parallel discrete-event
// execution of the multiprocessor with bit-identical results.
//
// The tiles (core + L1 + home bank each) are partitioned contiguously
// into cfg.Shards shards, each owning one sim.Engine stepped by its own
// goroutine inside a sim.ShardGroup. The lookahead window is the mesh's
// minimum cross-tile latency, so cross-shard coherence messages always
// travel through the group's deterministic outboxes and key-ordered
// merge-insertion (see internal/sim/shard.go and key.go).
//
// Three mechanisms make the parallel run observably identical to the
// serial engine:
//
//  1. Deferred observation. Observer and tracer calls cannot be handed
//     to the recorder as they happen — shards execute out of global
//     order. Each shard records every call as a (CapPos, payload) entry
//     in a shard-local buffer; at every window barrier the machine
//     merges the buffers in CapPos order (== serial call order) and
//     replays the prefix below the global time horizon into the real
//     observer and tracer. The one observer call whose RESULT steers
//     the simulation, QueryPWForLine, is answered live from a
//     shard-local pending-window mirror (Config.LivePW).
//
//  2. Placeholder snapshots. SnapshotSource must return a value into
//     the protocol immediately, but the real observer only sees the
//     call at replay time. The capture observer returns a placeholder
//     reference; replay invokes the real observer, parks its result in
//     a table, and substitutes it into every replayed OnDependence that
//     carries the reference (messages travel at least one cycle, so a
//     reference is always resolved before first use).
//
//  3. Deferred barriers. A trace barrier release is the one machine
//     interaction that is synchronous across all cores in the serial
//     engine: the last arriver's Step runs every waiter's resume
//     inline. The sharded hub defers arrivals; while any core is
//     parked the group steps one cycle per window, so the sync where
//     the global horizon first passes the last arrival cycle R finds
//     every shard at exactly R+1 with cycle R+1 unexecuted. The
//     release then runs at the barrier: resumes execute pinned to the
//     last arriver's (cycle, pid, counter) context — reproducing the
//     serial capture positions — and waiters with pid greater than the
//     last arriver run the Step(R) their shard skipped (they slept,
//     parked at the barrier) pinned to their own context, exactly as
//     the serial engine ran them after the inline release.
package machine

import (
	"sort"
	"strconv"

	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/cpu"
	"pacifier/internal/noc"
	"pacifier/internal/obs"
	"pacifier/internal/sim"
	"pacifier/internal/telemetry"
	"pacifier/internal/trace"
)

// PWProbe answers pending-window queries live during sharded execution.
// record.PWMirror implements it; the zero answer (nil probe) matches
// NopObserver.
type PWProbe interface {
	OnDispatch(pid int, sn cpu.SN, kind trace.OpKind, addr coherence.Addr)
	OnLoadValue(pid int, sn cpu.SN, val uint64)
	OnPerformed(pid int, sn cpu.SN)
	OnHold(pid int, sn cpu.SN)
	OnRelease(pid int, sn cpu.SN)
	Query(pid int, line cache.Line) coherence.PWQueryResult
}

// replayClock is the sim.Clock recorders read in sharded mode: it
// tracks the serial-order cycle of the observer call being replayed.
type replayClock struct{ now sim.Cycle }

func (c *replayClock) Now() sim.Cycle { return c.now }

// Capture entry kinds: one per deferred Observer method plus tracer
// events.
const (
	ckDispatch uint8 = iota
	ckRetire
	ckPerformed
	ckLoadValue
	ckLoadForwarded
	ckIdle
	ckSnapSource
	ckLocalSource
	ckDependence
	ckHoldPW
	ckLogOld
	ckReleasePW
	ckStorePerf
	ckTrace
)

// capEntry is one deferred observer or tracer call. The field set is
// the superset of all payloads; each kind reads only its own.
type capEntry struct {
	pos  sim.CapPos
	kind uint8
	flag bool
	pid  int
	sn   coherence.SN
	sn2  coherence.SN
	opk  trace.OpKind
	addr coherence.Addr
	line cache.Line
	val  uint64
	i64  int64
	dep  coherence.Dependence
	ref  coherence.AccessRef
	ev   obs.Event
}

// arrival is one deferred barrier arrival, captured by the core's
// shard-local hub during its window.
type arrival struct {
	cycle    sim.Cycle
	pid      int
	id       int
	shard    int
	savedIdx int32
	resume   func()
}

// shardState is the machine-side coordinator of a sharded run.
type shardState struct {
	m      *Machine
	group  *sim.ShardGroup
	nCores int

	shardOf []int         // tile -> shard
	engOf   []*sim.Engine // tile/pid -> its shard's engine
	coresOf [][]int       // shard -> pids (== tiles) it owns
	stats   []*sim.Stats  // per shard, merged into m.Stats after the run

	// Deferred-capture state. bufs[s] is appended only by shard s's
	// goroutine during windows (and only by the sync thread during
	// onSync via lateBuf); cursors and lateBuf belong to the sync
	// thread.
	capObsOn bool
	bufs     [][]capEntry
	bufPos   []int
	lateBuf  []capEntry
	latePos  int
	snapSeq  []int64

	// Deferred-barrier state.
	pendingSh [][]arrival // per shard, drained at syncs
	bar       map[int][]arrival
	parked    int

	// direct marks the single-shard degenerate configuration: one shard
	// already executes in serial order, so observer and tracer calls go
	// straight through (no capture/replay), barriers release inline via
	// the serial hub, and recorders read the engine clock. The window
	// protocol itself still runs — it is the honest cost of the parallel
	// engine at one shard.
	direct   bool
	clockSrc sim.Clock // what Machine.Clock() hands out

	real    Observer
	livePW  PWProbe
	tracer  *obs.Tracer
	clock   *replayClock
	snapTab map[int64]coherence.SrcSnap

	// inSync routes captures made during a barrier release into
	// lateBuf; syncEng, when non-nil, is the position source for
	// resume closures (the last arriver's pinned context).
	inSync  bool
	syncEng *sim.Engine

	merged bool

	tmSyncs  *telemetry.Counter
	tmLocked *telemetry.Counter
	tmLead   []*telemetry.Counter
	tmInbox  []*telemetry.Histogram
	lastDel  []int64
}

// capObs is one shard's capture observer: it feeds the live PW mirror,
// answers queries from it, and defers everything else.
type capObs struct {
	ss    *shardState
	shard int
	eng   *sim.Engine
}

var _ Observer = (*capObs)(nil)

func (o *capObs) pos() sim.CapPos {
	if e := o.ss.syncEng; e != nil {
		return e.CapturePos()
	}
	return o.eng.CapturePos()
}

func (o *capObs) add(e capEntry) {
	if o.ss.inSync {
		o.ss.lateBuf = append(o.ss.lateBuf, e)
		return
	}
	o.ss.bufs[o.shard] = append(o.ss.bufs[o.shard], e)
}

func (o *capObs) OnDispatch(pid int, sn cpu.SN, kind trace.OpKind, addr coherence.Addr) {
	if lp := o.ss.livePW; lp != nil {
		lp.OnDispatch(pid, sn, kind, addr)
	}
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckDispatch, pid: pid, sn: sn, opk: kind, addr: addr})
}

func (o *capObs) OnRetire(pid int, sn cpu.SN) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckRetire, pid: pid, sn: sn})
}

func (o *capObs) OnPerformed(pid int, sn cpu.SN) {
	if lp := o.ss.livePW; lp != nil {
		lp.OnPerformed(pid, sn)
	}
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckPerformed, pid: pid, sn: sn})
}

func (o *capObs) OnLoadValue(pid int, sn cpu.SN, addr coherence.Addr, val uint64) {
	if lp := o.ss.livePW; lp != nil {
		lp.OnLoadValue(pid, sn, val)
	}
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckLoadValue, pid: pid, sn: sn, addr: addr, val: val})
}

func (o *capObs) OnLoadForwarded(pid int, loadSN, storeSN cpu.SN, val uint64) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckLoadForwarded, pid: pid, sn: loadSN, sn2: storeSN, val: val})
}

func (o *capObs) OnIdle(pid int, cycles int64) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckIdle, pid: pid, i64: cycles})
}

func (o *capObs) SnapshotSource(pid int, sn coherence.SN) coherence.SrcSnap {
	if !o.ss.capObsOn {
		return coherence.SrcSnap{}
	}
	o.ss.snapSeq[o.shard]++
	ref := int64(o.shard)<<40 | o.ss.snapSeq[o.shard]
	o.add(capEntry{pos: o.pos(), kind: ckSnapSource, pid: pid, sn: sn, i64: ref})
	return coherence.SrcSnap{Valid: true, PID: pid, CID: ref}
}

func (o *capObs) OnLocalSource(pid int, sn coherence.SN, isWrite bool) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckLocalSource, pid: pid, sn: sn, flag: isWrite})
}

func (o *capObs) OnDependence(d coherence.Dependence) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckDependence, dep: d})
}

func (o *capObs) QueryPWForLine(pid int, line cache.Line) coherence.PWQueryResult {
	if lp := o.ss.livePW; lp != nil {
		return lp.Query(pid, line)
	}
	return coherence.PWQueryResult{}
}

func (o *capObs) OnHoldPWEntry(pid int, sn coherence.SN) {
	if lp := o.ss.livePW; lp != nil {
		lp.OnHold(pid, sn)
	}
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckHoldPW, pid: pid, sn: sn})
}

func (o *capObs) OnLogOldValue(pid int, sn coherence.SN, line cache.Line, val uint64) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckLogOld, pid: pid, sn: sn, line: line, val: val})
}

func (o *capObs) OnReleasePWEntry(pid int, sn coherence.SN) {
	if lp := o.ss.livePW; lp != nil {
		lp.OnRelease(pid, sn)
	}
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckReleasePW, pid: pid, sn: sn})
}

func (o *capObs) OnStorePerformedWrt(w coherence.AccessRef, pid int, line cache.Line) {
	if !o.ss.capObsOn {
		return
	}
	o.add(capEntry{pos: o.pos(), kind: ckStorePerf, ref: w, pid: pid, line: line})
}

// shardHub is one core's barrier endpoint: it captures the arrival
// shard-locally and truncates the shard's window, so the release can be
// resolved globally at a sync barrier.
type shardHub struct {
	ss    *shardState
	pid   int
	shard int
}

func (h *shardHub) Arrive(id int, resume func()) {
	ss := h.ss
	eng := ss.engOf[h.pid]
	ss.pendingSh[h.shard] = append(ss.pendingSh[h.shard], arrival{
		cycle:    eng.Now(),
		pid:      h.pid,
		id:       id,
		shard:    h.shard,
		savedIdx: eng.OpIdx(),
		resume:   resume,
	})
	ss.group.Truncate(h.shard)
}

// newSharded assembles the parallel machine. Mirrors New exactly where
// simulation-visible state is concerned (same per-core RNG derivation,
// same construction order).
func newSharded(cfg Config, w *trace.Workload, real Observer) (*Machine, error) {
	n := cfg.Cores
	S := cfg.Shards
	if S > n {
		S = n
	}
	group := sim.NewShardGroup(S, noc.MinCrossTileLatency(cfg.Noc))

	// One shard needs none of the cross-shard machinery: execution is
	// already in serial order, so calls deliver directly (see the
	// `direct` field). Deferred capture only pays off with real
	// cross-shard interleaving to hide.
	direct := S == 1
	_, isNop := real.(NopObserver)
	ss := &shardState{
		group:   group,
		nCores:  n,
		direct:  direct,
		real:    real,
		livePW:  cfg.LivePW,
		tracer:  cfg.Tracer,
		clock:   &replayClock{},
		snapTab: make(map[int64]coherence.SrcSnap),
		bar:     make(map[int][]arrival),

		capObsOn:  !isNop && !direct,
		bufs:      make([][]capEntry, S),
		bufPos:    make([]int, S),
		snapSeq:   make([]int64, S),
		pendingSh: make([][]arrival, S),

		shardOf: make([]int, n),
		engOf:   make([]*sim.Engine, n),
		coresOf: make([][]int, S),
		stats:   make([]*sim.Stats, S),
		lastDel: make([]int64, S),
	}
	for t := 0; t < n; t++ {
		s := t * S / n
		ss.shardOf[t] = s
		ss.engOf[t] = group.Engine(s)
		ss.coresOf[s] = append(ss.coresOf[s], t)
	}
	capSh := make([]*capObs, S)
	for s := 0; s < S; s++ {
		ss.stats[s] = sim.NewStats()
		if !direct {
			capSh[s] = &capObs{ss: ss, shard: s, eng: group.Engine(s)}
		}
	}
	ss.clockSrc = ss.clock
	if direct {
		ss.clockSrc = group.Engine(0)
	}

	var trSh []*obs.Tracer
	if cfg.Tracer != nil {
		trSh = make([]*obs.Tracer, S)
		for s := 0; s < S; s++ {
			if direct {
				trSh[s] = cfg.Tracer
				continue
			}
			o := capSh[s]
			trSh[s] = obs.NewCaptured(cfg.Tracer.Label(), func(e obs.Event) {
				o.add(capEntry{pos: o.pos(), kind: ckTrace, ev: e})
			})
		}
	}

	obsOfTile := make([]coherence.Observer, n)
	statsOfTile := make([]*sim.Stats, n)
	var trOfTile []*obs.Tracer
	if trSh != nil {
		trOfTile = make([]*obs.Tracer, n)
	}
	for t := 0; t < n; t++ {
		if direct {
			obsOfTile[t] = real
		} else {
			obsOfTile[t] = capSh[ss.shardOf[t]]
		}
		statsOfTile[t] = ss.stats[ss.shardOf[t]]
		if trOfTile != nil {
			trOfTile[t] = trSh[ss.shardOf[t]]
		}
	}

	mainStats := sim.NewStats()
	mesh := noc.New(group.Engine(0), cfg.Noc, mainStats)
	mesh.SetSharding(group, ss.engOf, statsOfTile, trOfTile)
	sys := coherence.NewSystem(group.Engine(0), mesh, cfg.Mem, mainStats, nil)
	sys.SetSharding(ss.shardOf, ss.engOf, obsOfTile, statsOfTile, trOfTile)
	if cfg.Profile {
		mesh.SetProfile(true)
		sys.SetProfile(true)
	}

	root := sim.NewRNG(cfg.Seed)
	m := &Machine{
		Cfg:      cfg,
		Stats:    mainStats,
		Mesh:     mesh,
		Sys:      sys,
		shard:    ss,
		workload: w,
	}
	ss.m = m
	var directHub *cpu.BarrierHub
	if direct {
		directHub = cpu.NewBarrierHub(n)
	}
	for pid := 0; pid < n; pid++ {
		s := ss.shardOf[pid]
		var hub cpu.Barrier = &shardHub{ss: ss, pid: pid, shard: s}
		var coreObs cpu.Observer = capSh[s]
		if direct {
			// All cores share the one shard: the serial hub's inline
			// release is exactly the serial engine's semantics, and the
			// real observer sees calls in execution (= serial) order.
			hub, coreObs = directHub, real
		}
		core := cpu.NewCore(pid, cfg.CPU, ss.engOf[pid], sys.L1(pid), w.Threads[pid],
			hub, coreObs, root.SplitLabeled(uint64(pid)+0x9000))
		var tr *obs.Tracer
		if trSh != nil {
			tr = trSh[s]
		}
		core.Instrument(ss.stats[s], tr)
		core.SetProfile(cfg.Profile)
		m.Cores = append(m.Cores, core)
	}

	group.SetLocalQuiet(ss.localQuiet)
	group.SetStepLocked(ss.stepLocked)
	group.SetOnSync(ss.onSync)

	ss.tmSyncs = telemetry.C("pacifier_shard_syncs_total", "Window sync barriers executed by the sharded machine.")
	ss.tmLocked = telemetry.C("pacifier_shard_locked_syncs_total", "Sync barriers run in one-cycle windows (core barrier pending).")
	for s := 0; s < S; s++ {
		lbl := telemetry.Label{Key: "shard", Value: strconv.Itoa(s)}
		ss.tmLead = append(ss.tmLead,
			telemetry.C("pacifier_shard_lead_cycles_total", "Cycles a shard reached a sync ahead of the slowest shard (barrier-stall proxy).", lbl))
		ss.tmInbox = append(ss.tmInbox,
			telemetry.H("pacifier_shard_inbox_depth_events", "Cross-shard events delivered into a shard per sync.", lbl))
	}
	return m, nil
}

// localQuiet reports whether shard s's slice of the machine is idle.
// Called from shard s's goroutine; reads only tile-local state.
func (ss *shardState) localQuiet(s int) bool {
	for _, pid := range ss.coresOf[s] {
		if !ss.m.Cores[pid].Done() {
			return false
		}
		if !ss.m.Sys.TileIdle(pid) {
			return false
		}
	}
	return true
}

// stepLocked shrinks windows to one cycle while any core barrier is
// unresolved: from the first sync after an arrival until its release,
// the global horizon must advance one cycle at a time so no shard
// executes a cycle the release would have changed.
func (ss *shardState) stepLocked() bool {
	if ss.parked > 0 {
		ss.tmLocked.Add(1)
		return true
	}
	for s := range ss.pendingSh {
		if len(ss.pendingSh[s]) > 0 {
			ss.tmLocked.Add(1)
			return true
		}
	}
	return false
}

// pred is the group's completion predicate: everything the serial
// Done() checks, plus no barrier mid-flight (a completed barrier still
// owes the machine its release and OnIdle events).
func (ss *shardState) pred() bool {
	if ss.parked > 0 {
		return false
	}
	for s := range ss.pendingSh {
		if len(ss.pendingSh[s]) > 0 {
			return false
		}
	}
	return ss.m.Done()
}

func (ss *shardState) minNow() sim.Cycle {
	m := ss.group.Engine(0).Now()
	for i := 1; i < ss.group.Shards(); i++ {
		if v := ss.group.Engine(i).Now(); v < m {
			m = v
		}
	}
	return m
}

// onSync runs single-threaded at every window barrier: resolve barrier
// arrivals whose cycle the whole machine has passed, then replay the
// capture prefix below the new global horizon.
func (ss *shardState) onSync() {
	minNow := ss.minNow()
	ss.tmSyncs.Add(1)
	for s := 0; s < ss.group.Shards(); s++ {
		ss.tmLead[s].Add(int64(ss.group.Engine(s).Now() - minNow))
		d := ss.group.Delivered(s)
		ss.tmInbox[s].Observe(d - ss.lastDel[s])
		ss.lastDel[s] = d
	}
	ss.applyArrivals(minNow)
	ss.replayUpTo(minNow)
}

// applyArrivals moves arrivals the horizon has passed into the mirror
// hub in (cycle, pid) order — the order the serial hub saw them — and
// fires the release when a barrier completes.
func (ss *shardState) applyArrivals(minNow sim.Cycle) {
	var ready []arrival
	for s := range ss.pendingSh {
		pend := ss.pendingSh[s]
		keep := pend[:0]
		for _, a := range pend {
			if a.cycle < minNow {
				ready = append(ready, a)
			} else {
				keep = append(keep, a)
			}
		}
		ss.pendingSh[s] = keep
	}
	if len(ready) == 0 {
		return
	}
	sort.Slice(ready, func(i, j int) bool {
		if ready[i].cycle != ready[j].cycle {
			return ready[i].cycle < ready[j].cycle
		}
		return ready[i].pid < ready[j].pid
	})
	for _, a := range ready {
		ss.bar[a.id] = append(ss.bar[a.id], a)
		ss.parked++
		if len(ss.bar[a.id]) == ss.nCores {
			arr := ss.bar[a.id]
			delete(ss.bar, a.id)
			ss.release(arr)
			ss.parked -= len(arr)
		}
	}
}

// release reproduces the serial hub's synchronous release. The last
// arriver (max (cycle, pid)) ran the waiters inline from its Step(R):
// resumes execute pinned to its context continuing its operation
// counter, and every waiter with a higher pid runs its Step(R) — which
// its shard skipped, the core sleeping parked — pinned to its own
// context. Each resume wakes its core, so it steps again at R+1. The
// step-locked window protocol guarantees every shard sits at exactly
// R+1 here, so catch-up posts (delay >= 1) can never land in any
// shard's past.
func (ss *shardState) release(arr []arrival) {
	last := arr[len(arr)-1]
	R := last.cycle
	ss.inSync = true
	ss.syncEng = ss.engOf[last.pid]
	ss.syncEng.RunAsStepper(R, last.pid, last.savedIdx, func() {
		for _, a := range arr {
			if ae := ss.engOf[a.pid]; ae == ss.syncEng {
				a.resume()
			} else {
				// The resume reads its core's own engine clock
				// (OnIdle); pin it to R. Resumes post nothing, so the
				// pinned executor context is never consulted — capture
				// positions come from syncEng.
				ae.RunAsStepper(R, a.pid, 0, a.resume)
			}
		}
	})
	ss.syncEng = nil
	var late []int
	for _, a := range arr {
		if a.pid > last.pid {
			late = append(late, a.pid)
		}
	}
	sort.Ints(late)
	for _, pid := range late {
		c := ss.m.Cores[pid]
		ss.engOf[pid].RunAsStepper(R, pid, 0, func() { c.Step(R) })
	}
	ss.inSync = false
}

// replayUpTo merges the shard capture buffers and the late buffer in
// CapPos order and replays every entry strictly below horizon into the
// real observer and tracer. Buffers are position-sorted, so this is a
// k-way head merge.
func (ss *shardState) replayUpTo(horizon sim.Cycle) {
	nb := len(ss.bufs)
	for {
		src := -1
		var best *capEntry
		for s := 0; s < nb; s++ {
			if i := ss.bufPos[s]; i < len(ss.bufs[s]) {
				e := &ss.bufs[s][i]
				if e.pos.Cycle >= horizon {
					continue
				}
				if best == nil || e.pos.Less(best.pos) {
					best, src = e, s
				}
			}
		}
		if i := ss.latePos; i < len(ss.lateBuf) {
			e := &ss.lateBuf[i]
			if e.pos.Cycle < horizon && (best == nil || e.pos.Less(best.pos)) {
				best, src = e, nb
			}
		}
		if best == nil {
			break
		}
		if src == nb {
			ss.latePos++
		} else {
			ss.bufPos[src]++
		}
		ss.deliver(best)
	}
	for s := 0; s < nb; s++ {
		if p := ss.bufPos[s]; p > 1024 {
			rest := copy(ss.bufs[s], ss.bufs[s][p:])
			ss.bufs[s] = ss.bufs[s][:rest]
			ss.bufPos[s] = 0
		}
	}
	if p := ss.latePos; p > 1024 {
		rest := copy(ss.lateBuf, ss.lateBuf[p:])
		ss.lateBuf = ss.lateBuf[:rest]
		ss.latePos = 0
	}
}

// deliver replays one captured call into the real observer/tracer with
// the replay clock set to its serial cycle.
func (ss *shardState) deliver(e *capEntry) {
	ss.clock.now = e.pos.Cycle
	switch e.kind {
	case ckDispatch:
		ss.real.OnDispatch(e.pid, e.sn, e.opk, e.addr)
	case ckRetire:
		ss.real.OnRetire(e.pid, e.sn)
	case ckPerformed:
		ss.real.OnPerformed(e.pid, e.sn)
	case ckLoadValue:
		ss.real.OnLoadValue(e.pid, e.sn, e.addr, e.val)
	case ckLoadForwarded:
		ss.real.OnLoadForwarded(e.pid, e.sn, e.sn2, e.val)
	case ckIdle:
		ss.real.OnIdle(e.pid, e.i64)
	case ckSnapSource:
		ss.snapTab[e.i64] = ss.real.SnapshotSource(e.pid, e.sn)
	case ckLocalSource:
		ss.real.OnLocalSource(e.pid, e.sn, e.flag)
	case ckDependence:
		d := e.dep
		if d.Snap.Valid {
			d.Snap = ss.snapTab[d.Snap.CID]
		}
		ss.real.OnDependence(d)
	case ckHoldPW:
		ss.real.OnHoldPWEntry(e.pid, e.sn)
	case ckLogOld:
		ss.real.OnLogOldValue(e.pid, e.sn, e.line, e.val)
	case ckReleasePW:
		ss.real.OnReleasePWEntry(e.pid, e.sn)
	case ckStorePerf:
		ss.real.OnStorePerformedWrt(e.ref, e.pid, e.line)
	case ckTrace:
		if ss.tracer != nil {
			ss.tracer.Emit(e.ev)
		}
	}
}

// run drives the group, then drains the remaining captures and merges
// the per-shard stats into the machine registry.
func (ss *shardState) run(limit sim.Cycle) bool {
	ok := ss.group.Run(ss.pred, limit)
	ss.replayUpTo(sim.Cycle(1) << 62)
	ss.clock.now = ss.group.Final()
	if !ss.merged {
		ss.merged = true
		for _, st := range ss.stats {
			ss.m.Stats.MergeFrom(st)
		}
	}
	return ok
}
