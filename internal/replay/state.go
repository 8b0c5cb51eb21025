package replay

import (
	"encoding/json"
	"fmt"

	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
)

// State is the complete mutable state of a Stepper at a position
// between two steps: per-core cursors and clocks, the chunk-completion
// table (the directory the ready scan consults), the simulated store
// buffer, the memory image, the scheduler's partially-unrolled scan,
// the RNG cursor, the accumulated Result, and the metric registries.
//
// Everything immutable across a run — the log, the workload and its op
// index, the recorded outcomes, the wake-latency table — is deliberately
// absent: a State is only meaningful against the (log, workload, config)
// triple it was captured from, which the debugger re-derives
// deterministically from the run's seed. Whether the stepper shares its
// op index (Config.Index) or built its own does not change the State.
// All slices are sorted, so the JSON encoding of a State is
// byte-deterministic and Capture∘Restore∘Capture is a fixed point. A
// captured State is never written to afterwards, so the debugger keeps
// its checkpoints as States and encodes one only to hash or export it.
type State struct {
	SchemaVersion int `json:"schema_version"`

	// Position in the schedule.
	Steps     int64 `json:"steps"`
	Remaining int   `json:"remaining"`
	Finished  bool  `json:"finished"`

	// Scheduler scan state (the partially-unrolled round).
	ScanStart int    `json:"scan_start"`
	ScanK     int    `json:"scan_k"`
	Progress  bool   `json:"progress"`
	RoundOpen bool   `json:"round_open"`
	RNG       uint64 `json:"rng"`

	// Per-core replay machine state.
	Cursor    []int   `json:"cursor"`
	CoreClock []int64 `json:"core_clock"`

	// ChunkEnd is the done set: completion cycle per executed chunk,
	// sorted by (PID, CID).
	ChunkEnd []ChunkEndState `json:"chunk_end"`
	// SSB is the simulated store buffer of parked delayed stores, sorted
	// by (PID, CID, Offset). A parked store is its SN: the op is read
	// through the stepper's op index when it executes, and the index is
	// only read, so a State restores the same way into a stepper whose
	// index is shared with other steppers.
	SSB []SSBState `json:"ssb"`
	// Mem is the replayed memory image: every word ever stored to,
	// sorted by address.
	Mem []MemState `json:"mem"`

	// Result is a deep copy of the accumulated replay result.
	Result *Result `json:"result"`

	// Prof is the private profiling registry (nil when Config.Profile is
	// off); Stall the shared-registry stall histogram (nil when
	// Config.Stats is nil).
	Prof  *sim.Snapshot  `json:"prof,omitempty"`
	Stall *sim.Histogram `json:"stall,omitempty"`
}

// ChunkEndState is one entry of the chunk-completion table.
type ChunkEndState struct {
	PID int   `json:"pid"`
	CID int64 `json:"cid"`
	End int64 `json:"end"`
}

// SSBState is one parked delayed store.
type SSBState struct {
	PID    int              `json:"pid"`
	CID    int64            `json:"cid"`
	Offset int32            `json:"offset"`
	SN     int64            `json:"sn"`
	Preds  []relog.ChunkRef `json:"preds,omitempty"`
}

// MemState is one memory word.
type MemState struct {
	Addr uint64 `json:"addr"`
	Val  uint64 `json:"val"`
}

// CaptureState snapshots the stepper's complete mutable state. The
// returned State shares nothing mutable with the stepper: restoring it
// later — even into a different Stepper over the same (log, workload,
// config) — reproduces the exact remaining schedule. The chunk-end table
// and the memory image come out of their per-core and slot-indexed
// stores already in canonical order; only the small SSB is sorted.
func (s *Stepper) CaptureState() *State {
	r := s.r
	executed := 0
	for _, n := range r.cursor {
		executed += n
	}
	st := &State{
		SchemaVersion: sim.SchemaVersion,
		Steps:         s.steps,
		Remaining:     s.remaining,
		Finished:      s.finished,
		ScanStart:     s.scanStart,
		ScanK:         s.scanK,
		Progress:      s.progress,
		RoundOpen:     s.roundOpen,
		RNG:           r.rng.State(),
		Cursor:        append([]int(nil), r.cursor...),
		CoreClock:     make([]int64, len(r.coreClock)),
		ChunkEnd:      make([]ChunkEndState, 0, executed),
		SSB:           make([]SSBState, 0, len(r.ssb)),
		Mem:           r.mem.capture(),
		Result:        cloneResult(r.res),
	}
	for i, c := range r.coreClock {
		st.CoreClock[i] = int64(c)
	}
	for pid, n := range r.cursor {
		for cid, end := range r.chunkEnd[pid][:n] {
			st.ChunkEnd = append(st.ChunkEnd, ChunkEndState{PID: pid, CID: int64(cid), End: int64(end)})
		}
	}
	for _, k := range r.ssbKeys() {
		e := r.ssb[k]
		st.SSB = append(st.SSB, SSBState{
			PID: k.pid, CID: k.cid, Offset: k.offset,
			SN: int64(e.sn), Preds: append([]relog.ChunkRef(nil), e.preds...),
		})
	}
	if r.profStats != nil {
		st.Prof = r.profStats.Snapshot()
	}
	if r.hStall != nil {
		h := *r.hStall
		st.Stall = &h
	}
	return st
}

// RestoreState rewinds (or fast-forwards) the stepper to a previously
// captured State. The stepper must be over the same (log, workload,
// config) triple the State was captured from. The State's shape is
// checked against the log before anything changes — core count, schema,
// cursors within each core's chunks, one chunk-end entry per done chunk
// in (pid, cid) order, a position and scan state consistent with them,
// SSB stores inside the workload waiting on existing chunks, memory
// words word-aligned and on the workload's pages — so a rejected State
// leaves the stepper as it was and stepping from an accepted one cannot
// index out of range. After restoring, stepping produces exactly the
// sequence the original run produced from that position. The State is
// only read, never retained.
func (s *Stepper) RestoreState(st *State) error {
	if err := s.checkState(st); err != nil {
		return err
	}
	r := s.r
	s.steps = st.Steps
	s.remaining = st.Remaining
	s.finished = st.Finished
	s.scanStart = st.ScanStart
	s.scanK = st.ScanK
	s.progress = st.Progress
	s.roundOpen = st.RoundOpen
	r.rng.SetState(st.RNG)
	copy(r.cursor, st.Cursor)
	for i, c := range st.CoreClock {
		r.coreClock[i] = sim.Cycle(c)
	}
	for _, ce := range st.ChunkEnd {
		r.chunkEnd[ce.PID][ce.CID] = sim.Cycle(ce.End)
	}
	clear(r.ssb)
	for _, e := range st.SSB {
		r.ssb[ssbKey{e.PID, e.CID, e.Offset}] = ssbEntry{
			sn: SN(e.SN), preds: append([]relog.ChunkRef(nil), e.Preds...),
		}
	}
	r.mem.restore(st.Mem)
	r.res = cloneResult(st.Result)
	if st.Prof != nil {
		// Lat accumulators rebind lazily when the registry pointer
		// changes, so swapping the registry is all a rewind needs.
		r.profStats = st.Prof.RestoreStats()
	} else if r.profStats != nil {
		r.profStats = sim.NewStats()
	}
	if r.res.Prof != nil && r.profStats != nil {
		// Result.Prof carries an unexported attribution total that does
		// not survive the JSON encoding; re-decode it from the restored
		// registry rather than trusting the serialized copy.
		r.res.Prof = prof.FromStats(r.profStats)
	}
	if r.hStall != nil {
		if st.Stall != nil {
			name := r.hStall.Name
			*r.hStall = *st.Stall
			r.hStall.Name = name
		} else {
			*r.hStall = sim.Histogram{Name: r.hStall.Name}
		}
	}
	return nil
}

// checkState validates st against the stepper's log and workload.
func (s *Stepper) checkState(st *State) error {
	r := s.r
	if len(st.Cursor) != r.log.Cores || len(st.CoreClock) != r.log.Cores {
		return fmt.Errorf("replay: state covers %d cores, log has %d", len(st.Cursor), r.log.Cores)
	}
	if st.SchemaVersion != sim.SchemaVersion {
		return fmt.Errorf("replay: state schema %d, want %d", st.SchemaVersion, sim.SchemaVersion)
	}
	i := 0
	for pid, n := range st.Cursor {
		if n < 0 || n > len(r.log.Chunks(pid)) {
			return fmt.Errorf("replay: state cursor %d of core %d outside its %d chunks", n, pid, len(r.log.Chunks(pid)))
		}
		for cid := 0; cid < n; cid, i = cid+1, i+1 {
			if i >= len(st.ChunkEnd) || st.ChunkEnd[i].PID != pid || st.ChunkEnd[i].CID != int64(cid) {
				return fmt.Errorf("replay: state chunk-end table does not list core %d chunk %d at entry %d", pid, cid, i)
			}
		}
	}
	if i != len(st.ChunkEnd) {
		return fmt.Errorf("replay: state chunk-end table has %d entries for %d done chunks", len(st.ChunkEnd), i)
	}
	if st.Steps != int64(i) || st.Remaining != r.log.TotalChunks()-i {
		return fmt.Errorf("replay: state at step %d with %d remaining, but %d of %d chunks are done",
			st.Steps, st.Remaining, i, r.log.TotalChunks())
	}
	if st.ScanStart < 0 || st.ScanStart >= r.log.Cores || st.ScanK < 0 || st.ScanK > r.log.Cores {
		return fmt.Errorf("replay: state scan position (%d, %d) outside %d cores", st.ScanStart, st.ScanK, r.log.Cores)
	}
	for _, e := range st.SSB {
		if _, ok := s.Op(e.PID, SN(e.SN)); !ok {
			return fmt.Errorf("replay: state SSB entry core %d sn %d outside workload", e.PID, e.SN)
		}
		for _, p := range e.Preds {
			if p.PID < 0 || p.PID >= r.log.Cores || p.CID < 0 || p.CID >= int64(len(r.log.Chunks(p.PID))) {
				return fmt.Errorf("replay: state SSB entry core %d sn %d waits on chunk %d/%d, which does not exist",
					e.PID, e.SN, p.PID, p.CID)
			}
		}
	}
	return r.mem.checkWords(st.Mem)
}

// cloneResult deep-copies a Result so captured states stay immutable as
// the live replay keeps accumulating.
func cloneResult(in *Result) *Result {
	if in == nil {
		return &Result{}
	}
	out := *in
	out.Mismatches = append([]Mismatch(nil), in.Mismatches...)
	out.Defects = append([]Defect(nil), in.Defects...)
	if in.Divergence != nil {
		d := *in.Divergence
		out.Divergence = &d
	}
	if in.Prof != nil {
		p := *in.Prof
		out.Prof = &p
	}
	return &out
}

// Marshal renders the state as deterministic JSON: struct-field order is
// fixed and every slice is sorted at capture time, so two captures of
// identical machine state are byte-identical. The debugger's snapshot
// hashes and exported (frozen) states are built on this encoding.
func (st *State) Marshal() ([]byte, error) { return json.Marshal(st) }

// UnmarshalState decodes a State produced by Marshal.
func UnmarshalState(b []byte) (*State, error) {
	st := &State{}
	if err := json.Unmarshal(b, st); err != nil {
		return nil, err
	}
	return st, nil
}
