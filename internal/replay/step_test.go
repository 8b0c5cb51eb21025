package replay

import (
	"bytes"
	"testing"

	"pacifier/internal/coherence"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// synthWorkload builds a 4-core workload with 6 memory ops per thread
// touching overlapping shared lines, including synchronization kinds.
func synthWorkload() *trace.Workload {
	w := &trace.Workload{Name: "synth"}
	for pid := 0; pid < 4; pid++ {
		a := trace.SharedWord(0, pid)
		b := trace.SharedWord(1, (pid+1)%4)
		l := trace.SharedWord(2, 0)
		w.Threads = append(w.Threads, trace.Thread{
			{Kind: trace.Write, Addr: a},
			{Kind: trace.Read, Addr: b},
			{Kind: trace.Acquire, Addr: l},
			{Kind: trace.Write, Addr: b},
			{Kind: trace.Release, Addr: l},
			{Kind: trace.Read, Addr: a},
		})
	}
	return w
}

// synthLog builds a 3-chunk-per-core log over synthWorkload with
// cross-core preds and one delayed store claimed via P_set, so a full
// replay exercises the scheduler rounds, the stall model, and the SSB.
func synthLog() *relog.Log {
	l := relog.NewLog(4)
	for pid := 0; pid < 4; pid++ {
		for j := int64(0); j < 3; j++ {
			c := &relog.Chunk{
				PID: pid, CID: j,
				StartSN: SN(2*j + 1), EndSN: SN(2*j + 2),
				TS:       j*4 + int64(pid) + 1,
				Duration: sim.Cycle(5 + pid),
			}
			if j > 0 {
				c.Preds = []relog.ChunkRef{{PID: (pid + 1) % 4, CID: j - 1}}
			}
			if pid == 0 && j == 0 {
				c.DSet = []relog.DEntry{{Offset: 0, IsLoad: false,
					Pred: []relog.ChunkRef{{PID: 1, CID: 0}}}}
			}
			if pid == 0 && j == 1 {
				c.PSet = []relog.PEntry{{SrcCID: 0, Offset: 0}}
			}
			l.Append(c)
		}
	}
	return l
}

func synthConfig() Config {
	return Config{ScanSeed: 7, Stats: sim.NewStats(), Profile: true}
}

// finalFingerprint runs a stepper to completion and renders its final
// state deterministically.
func finalFingerprint(t *testing.T, st *Stepper) []byte {
	t.Helper()
	for {
		if _, ok := st.Step(); !ok {
			break
		}
	}
	st.Finish()
	b, err := st.CaptureState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	return b
}

func TestStepperMatchesBatch(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	res, mem, err := RunWithMemory(l, w, nil, synthConfig())
	if err != nil {
		t.Fatal(err)
	}
	st, err := NewStepper(l, w, nil, synthConfig())
	if err != nil {
		t.Fatal(err)
	}
	var steps int64
	var lastPos int64
	for {
		info, ok := st.Step()
		if !ok {
			break
		}
		steps++
		if info.Pos != steps {
			t.Fatalf("step %d reported pos %d", steps, info.Pos)
		}
		lastPos = info.Pos
	}
	if int(lastPos) != l.TotalChunks() {
		t.Fatalf("stepped %d chunks, log has %d", lastPos, l.TotalChunks())
	}
	sres, smem := st.Finish()
	if sres.ChunksReplayed != res.ChunksReplayed || sres.OpsReplayed != res.OpsReplayed ||
		sres.Makespan != res.Makespan || sres.StallCycles != res.StallCycles {
		t.Fatalf("stepped result %+v != batch %+v", sres, res)
	}
	if len(smem) != len(mem) {
		t.Fatalf("stepped memory has %d words, batch %d", len(smem), len(mem))
	}
	for a, v := range mem {
		if smem[a] != v {
			t.Fatalf("memory @%#x: stepped %d batch %d", uint64(a), smem[a], v)
		}
	}
}

// TestStateRoundTripEveryPosition interrupts the replay at every
// position, serializes the state, restores it into a brand-new stepper,
// and checks the completed replay is byte-identical to an uninterrupted
// one — the determinism contract checkpoints and seek stand on.
func TestStateRoundTripEveryPosition(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	golden := finalFingerprint(t, mustStepper(t, l, w, synthConfig()))
	total := l.TotalChunks()
	for k := 0; k <= total; k++ {
		st := mustStepper(t, l, w, synthConfig())
		for i := 0; i < k; i++ {
			if _, ok := st.Step(); !ok {
				t.Fatalf("k=%d: ran dry at step %d", k, i)
			}
		}
		b, err := st.CaptureState().Marshal()
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		decoded, err := UnmarshalState(b)
		if err != nil {
			t.Fatalf("k=%d: %v", k, err)
		}
		fresh := mustStepper(t, l, w, synthConfig())
		if err := fresh.RestoreState(decoded); err != nil {
			t.Fatalf("k=%d: restore: %v", k, err)
		}
		if got := finalFingerprint(t, fresh); !bytes.Equal(got, golden) {
			t.Fatalf("k=%d: restored replay diverged from uninterrupted run\n got %s\nwant %s", k, got, golden)
		}
	}
}

// TestStateFixedPoint: capture ∘ restore ∘ capture is the identity on
// the encoded bytes, at a mid-run position with live SSB and stats.
func TestStateFixedPoint(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	st := mustStepper(t, l, w, synthConfig())
	for i := 0; i < 5; i++ {
		st.Step()
	}
	b1, err := st.CaptureState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	decoded, err := UnmarshalState(b1)
	if err != nil {
		t.Fatal(err)
	}
	fresh := mustStepper(t, l, w, synthConfig())
	if err := fresh.RestoreState(decoded); err != nil {
		t.Fatal(err)
	}
	b2, err := fresh.CaptureState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	if !bytes.Equal(b1, b2) {
		t.Fatalf("capture/restore not a fixed point:\n b1 %s\n b2 %s", b1, b2)
	}
}

// TestStateRewindSameStepper rewinds a finished stepper to a mid-run
// state and checks re-stepping reproduces the same final fingerprint —
// the debugger's reverse-step path.
func TestStateRewindSameStepper(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	st := mustStepper(t, l, w, synthConfig())
	for i := 0; i < 4; i++ {
		st.Step()
	}
	mid := st.CaptureState()
	midBytes, _ := mid.Marshal()
	golden := finalFingerprint(t, st)
	if err := st.RestoreState(mid); err != nil {
		t.Fatal(err)
	}
	back, _ := st.CaptureState().Marshal()
	if !bytes.Equal(back, midBytes) {
		t.Fatalf("rewind did not reproduce mid-run state")
	}
	if got := finalFingerprint(t, st); !bytes.Equal(got, golden) {
		t.Fatalf("replay after rewind diverged from first pass")
	}
}

func TestStepperAccessors(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	st := mustStepper(t, l, w, synthConfig())
	if st.Cores() != 4 || st.TotalChunks() != 12 || st.Remaining() != 12 {
		t.Fatalf("cores=%d total=%d remaining=%d", st.Cores(), st.TotalChunks(), st.Remaining())
	}
	if op, ok := st.Op(0, 1); !ok || op.Kind != trace.Write {
		t.Fatalf("Op(0,1) = %+v ok=%v", op, ok)
	}
	if _, ok := st.Op(0, 99); ok {
		t.Fatal("Op out of range must fail")
	}
	if _, ok := st.Op(-1, 1); ok {
		t.Fatal("Op with bad pid must fail")
	}
	info, ok := st.Step()
	if !ok {
		t.Fatal("first step failed")
	}
	if st.Pos() != 1 || info.Pos != 1 {
		t.Fatalf("pos=%d info.Pos=%d", st.Pos(), info.Pos)
	}
	if st.Cursor(info.PID) != 1 {
		t.Fatalf("cursor[%d]=%d after its chunk executed", info.PID, st.Cursor(info.PID))
	}
	if st.MaxClock() < st.CoreClock(info.PID) {
		t.Fatal("MaxClock below an individual core clock")
	}
}

// TestMemValueOffWorkload: an address on no page of the workload reads 0,
// before the first store and after the whole replay, while a stored word
// reads its value.
func TestMemValueOffWorkload(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	st := mustStepper(t, l, w, synthConfig())
	off := []coherence.Addr{0, 0x7000_0000, ^coherence.Addr(0)}
	for _, a := range off {
		if v := st.MemValue(a); v != 0 {
			t.Fatalf("MemValue(%#x) = %d before any store, want 0", uint64(a), v)
		}
	}
	_, mem := finishStepper(st)
	for _, a := range off {
		if v := st.MemValue(a); v != 0 {
			t.Fatalf("MemValue(%#x) = %d after the replay, want 0", uint64(a), v)
		}
	}
	a := trace.SharedWord(1, 1)
	if mem[a] == 0 || st.MemValue(a) != mem[a] {
		t.Fatalf("MemValue(%#x) = %d, final memory holds %d", uint64(a), st.MemValue(a), mem[a])
	}
}

// finishStepper steps st to the end and finishes it.
func finishStepper(st *Stepper) (*Result, FinalMemory) {
	for {
		if _, ok := st.Step(); !ok {
			return st.Finish()
		}
	}
}

func mustStepper(t *testing.T, l *relog.Log, w *trace.Workload, cfg Config) *Stepper {
	t.Helper()
	st, err := NewStepper(l, w, nil, cfg)
	if err != nil {
		t.Fatal(err)
	}
	return st
}

// TestRestoreRejectsMalformedState: a State that does not fit the log
// — as a hand-edited or corrupted export might — is rejected with an
// error before anything changes, so the stepper keeps its position.
func TestRestoreRejectsMalformedState(t *testing.T) {
	w, l := synthWorkload(), synthLog()
	st := mustStepper(t, l, w, synthConfig())
	for i := 0; i < 5; i++ {
		st.Step()
	}
	good, err := st.CaptureState().Marshal()
	if err != nil {
		t.Fatal(err)
	}
	for name, corrupt := range map[string]func(*State){
		"cursor past the core's chunks": func(s *State) { s.Cursor[0] = 4 },
		"negative cursor":               func(s *State) { s.Cursor[1] = -1 },
		"missing chunk-end entry":       func(s *State) { s.ChunkEnd = s.ChunkEnd[1:] },
		"extra chunk-end entry":         func(s *State) { s.ChunkEnd = append(s.ChunkEnd, ChunkEndState{PID: 3, CID: 2}) },
		"unaligned memory word":         func(s *State) { s.Mem = append(s.Mem, MemState{Addr: 0x10003, Val: 1}) },
		"memory word on no page":        func(s *State) { s.Mem = append(s.Mem, MemState{Addr: 0x7000_0000, Val: 1}) },
		"SSB store outside workload":    func(s *State) { s.SSB = append(s.SSB, SSBState{PID: 0, SN: 99}) },
		"SSB store waiting on no chunk": func(s *State) {
			s.SSB = append(s.SSB, SSBState{PID: 0, SN: 1, Preds: []relog.ChunkRef{{PID: 1, CID: -1}}})
		},
		"position off the cursors":  func(s *State) { s.Steps++ },
		"remaining off the cursors": func(s *State) { s.Remaining-- },
		"scan start outside cores":  func(s *State) { s.ScanStart = -1 },
	} {
		bad, err := UnmarshalState(good)
		if err != nil {
			t.Fatal(err)
		}
		corrupt(bad)
		fresh := mustStepper(t, l, w, synthConfig())
		fresh.Step()
		before, _ := fresh.CaptureState().Marshal()
		if err := fresh.RestoreState(bad); err == nil {
			t.Errorf("%s: accepted", name)
		}
		if after, _ := fresh.CaptureState().Marshal(); !bytes.Equal(after, before) {
			t.Errorf("%s: rejected restore changed the stepper", name)
		}
	}
}
