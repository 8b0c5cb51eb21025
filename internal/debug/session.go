package debug

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"slices"

	"pacifier/internal/coherence"
	"pacifier/internal/cpu"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// DefaultInterval is the checkpoint spacing (in executed chunks) a
// session uses when the caller passes 0. Once the session has reached a
// position, seeking anywhere at or before it costs one state restore
// plus at most interval−1 chunk re-executions; memory cost is
// O(total/interval) states.
const DefaultInterval = 64

// Session is one time-travel debugging session over a replay: a
// Stepper plus the checkpoint store that makes its position mutable in
// both directions. Position p means "p chunks executed"; p ranges over
// [0, TotalChunks]. A Session is not safe for concurrent use: one
// goroutine (the REPL's) drives it. Other goroutines (debughttp's) may
// call only DebugJSON and DebugSubscribe, which read what the driving
// goroutine last published.
type Session struct {
	log   *relog.Log
	st    *replay.Stepper
	ckpts store
	total int64

	breaks  []*Breakpoint
	watches []*Watchpoint
	nextID  int

	pub *Publisher
}

// New opens a session over log/workload, checkpointing position 0
// immediately. The config is the same one a batch replay would use;
// interval <= 0 selects DefaultInterval.
func New(log *relog.Log, w *trace.Workload, expected [][]cpu.ExecRecord, cfg replay.Config, interval int64) (*Session, error) {
	st, err := replay.NewStepper(log, w, expected, cfg)
	if err != nil {
		return nil, err
	}
	if interval <= 0 {
		interval = DefaultInterval
	}
	total := int64(st.TotalChunks())
	s := &Session{log: log, st: st, ckpts: newStore(interval, total), total: total, pub: NewPublisher()}
	s.ckpts.put(st.CaptureState())
	s.publish()
	return s, nil
}

// Pos returns the current position (chunks executed).
func (s *Session) Pos() int64 { return s.st.Pos() }

// Total returns the number of chunks in the log (the final position).
func (s *Session) Total() int64 { return s.total }

// Interval returns the checkpoint spacing.
func (s *Session) Interval() int64 { return s.ckpts.interval }

// Checkpoints returns how many positions are currently checkpointed.
func (s *Session) Checkpoints() int { return s.ckpts.count() }

// Stepper exposes the underlying stepper for read-only inspection
// (memory values, ops, clocks). Mutating it directly desynchronizes
// the session.
func (s *Session) Stepper() *replay.Stepper { return s.st }

// step1 advances one chunk, checkpointing an interval boundary the
// first time the session reaches it.
func (s *Session) step1() (replay.StepInfo, bool) {
	info, ok := s.st.Step()
	if !ok {
		return info, false
	}
	if s.ckpts.due(s.Pos()) {
		s.ckpts.put(s.st.CaptureState())
	}
	return info, true
}

// walk steps forward until done holds or the schedule ends.
func (s *Session) walk(done func() bool) bool {
	for !done() {
		if _, ok := s.step1(); !ok {
			return false
		}
	}
	return true
}

// rewind prepares a forward walk to a target position: it restores the
// latest checkpoint before the target (before must be monotone, see
// store.latest) unless the live position is itself before the target
// and no earlier than that checkpoint, in which case stepping on from
// here is cheaper. A finalized stepper (Result) is always restored, which
// undoes the finalization.
func (s *Session) rewind(before func(*replay.State) bool, liveBefore bool) error {
	ck := s.ckpts.latest(before)
	if liveBefore && !s.st.Finished() && s.Pos() >= ck.Steps {
		return nil
	}
	if err := s.st.RestoreState(ck); err != nil {
		return fmt.Errorf("debug: restore pos %d: %w", ck.Steps, err)
	}
	return nil
}

// StepN advances up to n chunks, stopping early on a breakpoint,
// watchpoint, or the end of the schedule.
func (s *Session) StepN(n int64) Stop {
	defer s.publish()
	var last Stop
	for i := int64(0); i < n; i++ {
		stop, ok := s.advance()
		if !ok {
			return Stop{Reason: "end"}
		}
		if stop.Reason != "step" {
			return stop
		}
		last = stop
	}
	return last
}

// Continue runs until a breakpoint or watchpoint fires or the schedule
// ends.
func (s *Session) Continue() Stop {
	defer s.publish()
	for {
		stop, ok := s.advance()
		if !ok {
			return Stop{Reason: "end"}
		}
		if stop.Reason != "step" {
			return stop
		}
	}
}

// advance executes one chunk and evaluates breakpoints/watchpoints.
func (s *Session) advance() (Stop, bool) {
	for _, w := range s.watches {
		w.arm(s)
	}
	info, ok := s.step1()
	if !ok {
		return Stop{}, false
	}
	for _, b := range s.breaks {
		if b.matches(s, info) {
			return Stop{Reason: "break", Info: info, Break: b}, true
		}
	}
	for _, w := range s.watches {
		if old, now, changed := w.hit(s); changed {
			return Stop{Reason: "watch", Info: info, Watch: w, Old: old, New: now}, true
		}
	}
	return Stop{Reason: "step", Info: info}, true
}

// SeekTo moves to an absolute position: restore the nearest checkpoint
// at or before the target — backwards, or forwards when that checkpoint
// lies ahead of the current position — and re-execute forward. Seeking
// past the end clamps to the final position.
func (s *Session) SeekTo(pos int64) error {
	if pos < 0 {
		pos = 0
	}
	if pos > s.total {
		pos = s.total
	}
	defer s.publish()
	if err := s.rewind(func(st *replay.State) bool { return st.Steps <= pos }, s.Pos() <= pos); err != nil {
		return err
	}
	s.walk(func() bool { return s.Pos() >= pos })
	return nil
}

// ReverseStep moves n chunks backwards: seek-to-(pos−n).
func (s *Session) ReverseStep(n int64) error {
	if n < 1 {
		n = 1
	}
	return s.SeekTo(s.Pos() - n)
}

// SeekSN positions just after the chunk of core pid covering operation
// sn executes. The step index of that chunk is not known a priori; see
// SeekChunk.
func (s *Session) SeekSN(pid int, sn int64) error {
	cid, found := int64(-1), false
	for _, c := range s.log.Chunks(pid) {
		if int64(c.StartSN) <= sn && sn <= int64(c.EndSN) {
			cid, found = c.CID, true
			break
		}
	}
	if !found {
		return fmt.Errorf("debug: core %d has no chunk covering sn %d", pid, sn)
	}
	return s.SeekChunk(pid, cid)
}

// SeekChunk positions just after chunk (pid, cid) executes. The core's
// cursor only grows with the position, so the walk starts from the
// latest checkpoint at which the chunk had not yet executed (or from the
// current position, when that is later and still before the chunk).
func (s *Session) SeekChunk(pid int, cid int64) error {
	if pid < 0 || pid >= s.st.Cores() {
		return fmt.Errorf("debug: core %d out of range", pid)
	}
	if cid < 0 || cid >= int64(len(s.log.Chunks(pid))) {
		return fmt.Errorf("debug: core %d has no chunk %d", pid, cid)
	}
	defer s.publish()
	before := func(st *replay.State) bool { return int64(st.Cursor[pid]) <= cid }
	if err := s.rewind(before, int64(s.st.Cursor(pid)) <= cid); err != nil {
		return err
	}
	if !s.walk(func() bool { return int64(s.st.Cursor(pid)) > cid }) {
		return fmt.Errorf("debug: schedule ended before core %d chunk %d executed", pid, cid)
	}
	return nil
}

// SeekCycle positions at the first step where the replay makespan
// reaches cycle c. The makespan only grows with the position, so the
// walk starts like SeekChunk's.
func (s *Session) SeekCycle(c int64) error {
	defer s.publish()
	before := func(st *replay.State) bool { return slices.Max(st.CoreClock) < c }
	if err := s.rewind(before, int64(s.st.MaxClock()) < c); err != nil {
		return err
	}
	s.walk(func() bool { return int64(s.st.MaxClock()) >= c })
	return nil
}

// BreakSN adds a breakpoint on operation sn of core pid.
func (s *Session) BreakSN(pid int, sn int64) *Breakpoint {
	return s.addBreak(&Breakpoint{Kind: "sn", PID: pid, SN: sn})
}

// BreakChunk adds a breakpoint on the boundary of chunk (pid, cid).
func (s *Session) BreakChunk(pid int, cid int64) *Breakpoint {
	return s.addBreak(&Breakpoint{Kind: "chunk", PID: pid, CID: cid})
}

// BreakCore adds a breakpoint on every chunk of core pid.
func (s *Session) BreakCore(pid int) *Breakpoint {
	return s.addBreak(&Breakpoint{Kind: "core", PID: pid})
}

// BreakAddr adds a breakpoint on any chunk touching addr.
func (s *Session) BreakAddr(addr uint64) *Breakpoint {
	return s.addBreak(&Breakpoint{Kind: "addr", PID: -1, Addr: addr})
}

func (s *Session) addBreak(b *Breakpoint) *Breakpoint {
	defer s.publish()
	s.nextID++
	b.ID = s.nextID
	s.breaks = append(s.breaks, b)
	return b
}

// Watch adds a watchpoint on a memory word.
func (s *Session) Watch(addr uint64) *Watchpoint {
	defer s.publish()
	s.nextID++
	w := &Watchpoint{ID: s.nextID, Addr: addr}
	s.watches = append(s.watches, w)
	return w
}

// Delete removes the breakpoint or watchpoint with the given id.
func (s *Session) Delete(id int) bool {
	for i, b := range s.breaks {
		if b.ID == id {
			s.breaks = append(s.breaks[:i], s.breaks[i+1:]...)
			s.publish()
			return true
		}
	}
	for i, w := range s.watches {
		if w.ID == id {
			s.watches = append(s.watches[:i], s.watches[i+1:]...)
			s.publish()
			return true
		}
	}
	return false
}

// Breaks returns the active breakpoints, in creation order.
func (s *Session) Breaks() []*Breakpoint { return s.breaks }

// Watches returns the active watchpoints, in creation order.
func (s *Session) Watches() []*Watchpoint { return s.watches }

// SnapshotHash returns the hex SHA-256 of the current position's
// encoded state — the identity the reverse-step determinism criterion
// is phrased in: rstep(n) then step(n) must return the same hash. It
// is the only place a session JSON-encodes a state.
func (s *Session) SnapshotHash() (string, error) {
	b, err := s.st.CaptureState().Marshal()
	if err != nil {
		return "", err
	}
	h := sha256.Sum256(b)
	return hex.EncodeToString(h[:]), nil
}

// MemValue reads the replayed memory image.
func (s *Session) MemValue(addr uint64) uint64 {
	return s.st.MemValue(coherence.Addr(addr))
}

// Result finalizes the replay at the current position and returns the
// accumulated result. At the final position this includes the SSB
// flush and makespan, exactly like a batch replay; seeking afterwards
// rewinds the finalization.
func (s *Session) Result() *replay.Result {
	defer s.publish()
	res, _ := s.st.Finish()
	return res
}

// ProfReport returns the replay-side cycle attribution accumulated up
// to the current position (nil when profiling is off).
func (s *Session) ProfReport() *prof.Report { return s.st.ProfReport() }

// Explain renders the divergence story at the current position.
func (s *Session) Explain() string {
	res := s.st.Result()
	if res.Divergence == nil {
		return fmt.Sprintf("deterministic so far: %d chunks, %d ops replayed without divergence",
			res.ChunksReplayed, res.OpsReplayed)
	}
	out := res.Divergence.String() + "\n"
	for _, m := range res.Mismatches {
		out += "  " + m.String() + "\n"
	}
	for _, d := range res.Defects {
		out += "  " + d.Error() + "\n"
	}
	return out
}

// TraceWindow re-executes positions (from, to] with a tracer attached
// and writes the window as a Chrome/Perfetto trace. The session
// returns to its current position afterwards. Unlike SeekTo it never
// jumps over a checkpoint inside the window: every chunk in (from, to]
// executes, so every one is traced.
func (s *Session) TraceWindow(from, to int64, path string) error {
	if from < 0 {
		from = 0
	}
	if to > s.total {
		to = s.total
	}
	if to <= from {
		return fmt.Errorf("debug: empty trace window [%d, %d]", from, to)
	}
	back := s.Pos()
	if err := s.SeekTo(from); err != nil {
		return err
	}
	tr := obs.New("debug-window")
	tr.SetLimit(int(to-from) * 4)
	s.st.SetTracer(tr)
	s.walk(func() bool { return s.Pos() >= to })
	s.st.SetTracer(nil)
	if werr := obs.WriteChromeFile(path, tr.Events(), nil); werr != nil {
		s.publish() // the session stays at the window's end
		return werr
	}
	return s.SeekTo(back)
}

// ---------------------------------------------------------------------
// Live state for debughttp
// ---------------------------------------------------------------------

// Status is the session state served at /api/debug.
type Status struct {
	SchemaVersion int     `json:"schema_version"`
	Pos           int64   `json:"pos"`
	Total         int64   `json:"total"`
	Cores         int     `json:"cores"`
	CoreClock     []int64 `json:"core_clock"`
	Makespan      int64   `json:"makespan"`
	ChunksDone    int64   `json:"chunks_replayed"`
	OpsDone       int64   `json:"ops_replayed"`
	Mismatches    int64   `json:"mismatches"`
	OrderBreaks   int64   `json:"order_breaks"`
	Divergence    string  `json:"divergence,omitempty"`
	Breakpoints   int     `json:"breakpoints"`
	Watchpoints   int     `json:"watchpoints"`
	Checkpoints   int     `json:"checkpoints"`
	Interval      int64   `json:"interval"`
}

// Status captures the current session state. Like every other method
// but DebugJSON and DebugSubscribe, it is for the driving goroutine only.
func (s *Session) Status() Status {
	res := s.st.Result()
	st := Status{
		SchemaVersion: sim.SchemaVersion,
		Pos:           s.Pos(),
		Total:         s.total,
		Cores:         s.st.Cores(),
		CoreClock:     make([]int64, s.st.Cores()),
		Makespan:      int64(s.st.MaxClock()),
		ChunksDone:    res.ChunksReplayed,
		OpsDone:       res.OpsReplayed,
		Mismatches:    res.MismatchCount,
		OrderBreaks:   res.OrderBreaks,
		Breakpoints:   len(s.breaks),
		Watchpoints:   len(s.watches),
		Checkpoints:   s.ckpts.count(),
		Interval:      s.ckpts.interval,
	}
	for i := range st.CoreClock {
		st.CoreClock[i] = int64(s.st.CoreClock(i))
	}
	if res.Divergence != nil {
		st.Divergence = res.Divergence.String()
	}
	return st
}

// DebugJSON implements debughttp.DebugSource: the JSON-encoded Status
// the session last published. It reads only the publisher, so it is safe
// to call while another goroutine steps or seeks the session.
func (s *Session) DebugJSON() []byte { return s.pub.Last() }

// DebugSubscribe implements debughttp.DebugSource: each published
// position update is one JSON-encoded Status.
func (s *Session) DebugSubscribe(buf int) (<-chan []byte, func()) {
	return s.pub.Subscribe(buf)
}

// publish encodes the current Status and publishes it: DebugJSON serves
// it and stream subscribers receive it. Every method that changes what
// Status reports calls it once, when the command completes (after a
// step, seek, continue, Result, or a breakpoint or watchpoint change),
// not per re-executed chunk, so a long seek is one update.
func (s *Session) publish() {
	b, err := json.Marshal(s.Status())
	if err != nil {
		b = []byte(`{"error":"marshal"}`)
	}
	s.pub.Publish(b)
}
