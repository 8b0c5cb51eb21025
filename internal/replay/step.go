package replay

import (
	"cmp"
	"fmt"
	"math"
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

// StepInfo describes one executed chunk — the unit of progress the
// debugger's positions, breakpoints and transcripts are phrased in.
type StepInfo struct {
	// Pos is the 1-based count of chunks executed including this one;
	// it is the session position after the step.
	Pos int64
	// PID/CID identify the chunk; StartSN/EndSN its operation range.
	PID     int
	CID     int64
	StartSN SN
	EndSN   SN
	// Start/End is the chunk's modeled execution span in replay cycles.
	Start, End sim.Cycle
	// Forced marks an order break: the chunk was started despite
	// unsatisfied predecessors because the scheduler was stuck.
	Forced bool
}

func (si StepInfo) String() string {
	s := fmt.Sprintf("#%d core %d chunk %d sn [%d,%d] cycles [%d,%d)",
		si.Pos, si.PID, si.CID, int64(si.StartSN), int64(si.EndSN),
		int64(si.Start), int64(si.End))
	if si.Forced {
		s += " FORCED"
	}
	return s
}

// Stepper replays a log one chunk at a time in exactly the order the
// batch scheduler would use: the ready-chunk scan (including its RNG
// draws), the per-core drain order, and the stuck-victim selection are
// the same code; Step simply returns after each executed chunk instead
// of looping. RunWithMemory is implemented on top of it.
//
// A Stepper's complete mutable state can be captured and restored
// (CaptureState/RestoreState), which is what makes O(interval) seek and
// reverse stepping possible in the debugger.
type Stepper struct {
	r         *replayer
	remaining int
	steps     int64
	finished  bool

	// Scan state of the partially-unrolled scheduling round.
	scanStart int
	scanK     int
	progress  bool
	roundOpen bool
}

// NewStepper validates the log and builds a stepping replayer over it.
// The arguments and checks are the same as RunWithMemory's. The stepper
// reads w's threads in place and never writes them, so w must not change
// while the stepper is in use.
//
// The stepper reads w's memory ops through cfg.Index when it is set: an
// index IndexOps built from this same w, which the stepper only reads, so
// every replay and debug session of one recording can share it. One built
// from another workload is an error. With cfg.Index nil the stepper
// builds a private index through IndexOps.
func NewStepper(log *relog.Log, w *trace.Workload, expected [][]cpu.ExecRecord, cfg Config) (*Stepper, error) {
	if err := relog.Validate(log); err != nil {
		return nil, fmt.Errorf("replay: rejecting log: %w", err)
	}
	if len(w.Threads) != log.Cores {
		return nil, fmt.Errorf("replay: workload has %d threads, log has %d cores",
			len(w.Threads), log.Cores)
	}
	if expected != nil && len(expected) != log.Cores {
		return nil, fmt.Errorf("replay: recorded outcomes cover %d cores, log has %d",
			len(expected), log.Cores)
	}
	if cfg.Mesh.Nodes == 0 {
		cfg.Mesh = noc.DefaultConfig(log.Cores)
	}
	if cfg.Mesh.Nodes < log.Cores {
		return nil, fmt.Errorf("replay: mesh has %d nodes, log has %d cores", cfg.Mesh.Nodes, log.Cores)
	}
	index := cfg.Index
	if index == nil {
		var err error
		if index, err = IndexOps(w); err != nil {
			return nil, err
		}
	} else if index.w != w {
		return nil, fmt.Errorf("replay: op index was built from another workload")
	}
	r := &replayer{
		cfg:       cfg,
		log:       log,
		threads:   w.Threads,
		opIdx:     index.ops,
		slots:     index.slots,
		mem:       memory{pages: &index.pages},
		expected:  expected,
		wake:      noc.LatencyTable(cfg.Mesh, log.Cores),
		cursor:    make([]int, log.Cores),
		chunkEnd:  make([][]sim.Cycle, log.Cores),
		ssb:       make(map[ssbKey]ssbEntry),
		coreClock: make([]sim.Cycle, log.Cores),
		res:       &Result{},
		rng:       sim.NewRNG(cfg.ScanSeed ^ 0xeb5),
		tr:        cfg.Tracer,
	}
	if cfg.Stats != nil {
		r.hStall = cfg.Stats.Histogram("replay.stall_cycles")
	}
	if cfg.Profile {
		r.profStats = sim.NewStats()
		r.lat = make([]*prof.Lat, log.Cores)
		for pid := range r.lat {
			r.lat[pid] = prof.NewLat(pid)
		}
	}
	ends := make([]sim.Cycle, log.TotalChunks())
	for pid := range r.chunkEnd {
		n := len(log.Chunks(pid))
		r.chunkEnd[pid], ends = ends[:n:n], ends[n:]
	}
	for pid, idx := range r.opIdx {
		if chunks := log.Chunks(pid); len(chunks) > 0 {
			last := chunks[len(chunks)-1]
			if int(last.EndSN) != len(idx) {
				return nil, fmt.Errorf("replay: core %d log covers SN 1..%d but workload has %d memory ops",
					pid, last.EndSN, len(idx))
			}
		}
	}
	return &Stepper{r: r, remaining: log.TotalChunks()}, nil
}

// maxThreadOps is the longest thread the int32 op index can address. It
// is a variable so tests can lower it.
var maxThreadOps = math.MaxInt32

// ThreadTooLongError rejects a workload thread with more operations than
// the replayer's op index can address.
type ThreadTooLongError struct {
	PID int
	Ops int
}

func (e *ThreadTooLongError) Error() string {
	return fmt.Sprintf("replay: core %d's thread has %d ops; the op index addresses at most %d",
		e.PID, e.Ops, maxThreadOps)
}

// TooManyPagesError rejects a workload whose memory ops touch more
// 64-word pages than an op entry's slot can number.
type TooManyPagesError struct {
	Pages int
}

func (e *TooManyPagesError) Error() string {
	return fmt.Sprintf("replay: the workload's memory ops touch %d pages; the op index numbers at most %d",
		e.Pages, maxPages)
}

// OpIndex is a workload's SN -> op table, with every memory op's address
// resolved. For core pid's memory op sn:
//   - ops[pid][sn-1] is the op's index in the workload's thread pid;
//   - slots[pid][sn-1] is the op's entry: its kind and its slot in the
//     replay image (mem.go).
//
// pages numbers the pages the workload's memory ops touch, in address
// order. An OpIndex is never written after IndexOps returns, so any
// number of steppers over the workload it was built from may read it, on
// any goroutines.
type OpIndex struct {
	w     *trace.Workload
	ops   [][]int32
	slots [][]opEntry
	pages sim.Index
}

// IndexOps builds w's op index: one int32 and one uint32 entry per memory
// op, carved per core from two arrays sized exactly to the memory-op
// count. Compute and Barrier ops get no entry. A thread too long for an
// int32 index is rejected with a *ThreadTooLongError, and a workload
// touching more pages than an entry can number with a
// *TooManyPagesError.
func IndexOps(w *trace.Workload) (*OpIndex, error) { return buildIndex(w) }

// buildIndex is IndexOps's body, a variable so tests can count builds.
var buildIndex = func(w *trace.Workload) (*OpIndex, error) {
	n := 0
	for pid, th := range w.Threads {
		if len(th) > maxThreadOps {
			return nil, &ThreadTooLongError{PID: pid, Ops: len(th)}
		}
		for _, op := range th {
			if op.Kind.IsMem() {
				n++
			}
		}
	}
	flat := make([]int32, n)
	entries := make([]opEntry, n)
	all := entries
	idx := &OpIndex{w: w, ops: make([][]int32, len(w.Threads)), slots: make([][]opEntry, len(w.Threads))}
	// Pages are numbered in first-use order here and renumbered in
	// address order below. A thread keeps returning to a few pages, so a
	// small cache by key hash answers most ops without the index; no
	// address has page key ^0, which marks an empty entry.
	var seen sim.Index
	var cache [64]struct {
		key uint64
		id  int32
	}
	for i := range cache {
		cache[i].key = ^uint64(0)
	}
	for pid, th := range w.Threads {
		k := 0
		for i, op := range th {
			if !op.Kind.IsMem() {
				continue
			}
			flat[k] = int32(i)
			key := uint64(op.Addr) >> pageShift
			c := &cache[key*0x9e3779b97f4a7c15>>58] // Fibonacci hash, top 6 bits
			if c.key != key {
				c.key = key
				c.id, _ = seen.Intern(key)
			}
			entries[k] = makeEntry(op.Kind, uint32(c.id), wordOf(op.Addr))
			k++
		}
		idx.ops[pid], flat = flat[:k:k], flat[k:]
		idx.slots[pid], entries = entries[:k:k], entries[k:]
	}
	if seen.Len() > maxPages {
		return nil, &TooManyPagesError{Pages: seen.Len()}
	}
	// order lists the first-use ids by page address; renumber[id] is id's
	// place in it, which becomes the page's id.
	order := make([]int32, seen.Len())
	for id := range order {
		order[id] = int32(id)
	}
	slices.SortFunc(order, func(a, b int32) int { return cmp.Compare(seen.Key(a), seen.Key(b)) })
	renumber := make([]uint32, len(order))
	for id, first := range order {
		idx.pages.Intern(seen.Key(first))
		renumber[first] = uint32(id)
	}
	for i, e := range all {
		all[i] = makeEntry(e.kind(), renumber[e.slot()>>wordBits], e.slot()&(pageWords-1))
	}
	return idx, nil
}

// Step executes the next chunk of the schedule and reports it. It
// returns ok=false when every chunk has executed (or Finish was called).
//
// The scan reproduces the batch scheduler exactly: each round draws one
// RNG value for its start core (when Cores > 1), then drains ready
// chunks core by core — staying on a core as long as its next chunk is
// ready — and force-starts the smallest-timestamp stalled chunk when a
// whole round makes no progress.
func (s *Stepper) Step() (StepInfo, bool) {
	if s.remaining == 0 || s.finished {
		return StepInfo{}, false
	}
	r := s.r
	for {
		if !s.roundOpen {
			s.progress = false
			s.scanStart = 0
			if r.log.Cores > 1 {
				s.scanStart = r.rng.Intn(r.log.Cores)
			}
			s.scanK = 0
			s.roundOpen = true
		}
		for ; s.scanK < r.log.Cores; s.scanK++ {
			pid := (s.scanStart + s.scanK) % r.log.Cores
			if r.cursor[pid] < len(r.log.Chunks(pid)) &&
				r.ready(r.log.Chunks(pid)[r.cursor[pid]]) {
				// Do not advance scanK: the batch loop drains every ready
				// chunk of this core before moving on, so the next Step
				// re-probes the same core first.
				info := s.executed(r.log.Chunks(pid)[r.cursor[pid]], false)
				s.progress = true
				return info, true
			}
		}
		s.roundOpen = false
		if s.progress {
			continue
		}
		// Stuck: the recorded DAG cannot be satisfied (e.g. Karma log of
		// an execution with SCVs). Break the order deterministically at
		// the smallest-timestamp stalled chunk.
		var victim *relog.Chunk
		for pid := 0; pid < r.log.Cores; pid++ {
			if r.cursor[pid] >= len(r.log.Chunks(pid)) {
				continue
			}
			c := r.log.Chunks(pid)[r.cursor[pid]]
			if victim == nil || c.TS < victim.TS || (c.TS == victim.TS && c.PID < victim.PID) {
				victim = c
			}
		}
		if victim == nil {
			panic("replay: accounting error: chunks remain but none found")
		}
		r.res.OrderBreaks++
		r.diverge("order-break", victim.PID, victim.CID, 0, r.coreClock[victim.PID], 0, 0,
			fmt.Sprintf("chunk ts=%d force-started despite %d unsatisfied predecessor(s)",
				victim.TS, len(victim.Preds)))
		return s.executed(victim, true), true
	}
}

// executed runs one chunk through the replayer and accounts the step.
func (s *Stepper) executed(c *relog.Chunk, forced bool) StepInfo {
	start, end := s.r.execute(c)
	s.remaining--
	s.steps++
	return StepInfo{
		Pos: s.steps, PID: c.PID, CID: c.CID,
		StartSN: c.StartSN, EndSN: c.EndSN,
		Start: start, End: end, Forced: forced,
	}
}

// Finish completes the replay: leftover delayed stores are flushed (a
// log defect, counted), the makespan is computed, and — when profiling —
// the attribution report is decoded. Idempotent; Step returns false
// afterwards. It may be called early (with chunks remaining) to
// finalize a partial replay's Result.
//
// The returned memory is a copy of the image at this point; a batch
// replay that only needs the Result (Run) never builds it.
func (s *Stepper) Finish() (*Result, FinalMemory) {
	return s.finish(), s.r.mem.final()
}

// finish is Finish without the memory copy.
func (s *Stepper) finish() *Result {
	r := s.r
	if !s.finished {
		s.finished = true
		r.flushSSB()
	}
	r.res.Makespan = 0
	for _, c := range r.coreClock {
		if c > r.res.Makespan {
			r.res.Makespan = c
		}
	}
	if r.profStats != nil {
		r.res.Prof = prof.FromStats(r.profStats)
	}
	return r.res
}

// run steps to the end of the schedule and finishes: the batch replay.
func (s *Stepper) run() *Result {
	for {
		if _, ok := s.Step(); !ok {
			return s.finish()
		}
	}
}

// Finished reports whether Finish has run.
func (s *Stepper) Finished() bool { return s.finished }

// Pos returns the number of chunks executed so far.
func (s *Stepper) Pos() int64 { return s.steps }

// Remaining returns the number of chunks not yet executed.
func (s *Stepper) Remaining() int { return s.remaining }

// TotalChunks returns the log's total chunk count (the final position).
func (s *Stepper) TotalChunks() int { return s.r.log.TotalChunks() }

// Cores returns the replayed machine's core count.
func (s *Stepper) Cores() int { return s.r.log.Cores }

// CoreClock returns core pid's current replay clock.
func (s *Stepper) CoreClock(pid int) sim.Cycle { return s.r.coreClock[pid] }

// MaxClock returns the latest core clock — the makespan so far.
func (s *Stepper) MaxClock() sim.Cycle {
	var m sim.Cycle
	for _, c := range s.r.coreClock {
		if c > m {
			m = c
		}
	}
	return m
}

// Cursor returns the index of core pid's next unexecuted chunk.
func (s *Stepper) Cursor(pid int) int { return s.r.cursor[pid] }

// MemValue returns the current replayed value at addr (zero if the
// address was never stored to, or is on no page of the workload).
func (s *Stepper) MemValue(addr coherence.Addr) uint64 {
	if slot, ok := s.r.mem.slotOf(addr); ok {
		return s.r.mem.load(slot)
	}
	return 0
}

// Op returns core pid's memory operation with serial number sn
// (1-based), ok=false when out of range.
func (s *Stepper) Op(pid int, sn SN) (trace.Op, bool) {
	if pid < 0 || pid >= len(s.r.opIdx) || sn < 1 || int64(sn) > int64(len(s.r.opIdx[pid])) {
		return trace.Op{}, false
	}
	return s.r.op(pid, sn), true
}

// Result returns the live result accumulated so far. Callers must treat
// it as read-only; it keeps accumulating as the session steps.
func (s *Stepper) Result() *Result { return s.r.res }

// ProfReport decodes the replay-side attribution accumulated so far
// (nil unless Config.Profile was set).
func (s *Stepper) ProfReport() *prof.Report {
	if s.r.profStats == nil {
		return nil
	}
	return prof.FromStats(s.r.profStats)
}

// SetTracer swaps the replay-side event sink. The debugger attaches a
// tracer only for the window it wants a Perfetto slice of, so ordinary
// stepping stays trace-free.
func (s *Stepper) SetTracer(tr *obs.Tracer) { s.r.tr = tr }
