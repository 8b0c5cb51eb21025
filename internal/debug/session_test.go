package debug

import (
	"bytes"
	"encoding/json"
	"os"
	"path/filepath"
	"strings"
	"testing"

	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// testWorkload/testLog mirror the replay package's synthetic fixtures:
// 4 cores, 3 two-op chunks per core, cross-core preds, one delayed
// store claimed via P_set.
func testWorkload() *trace.Workload {
	w := &trace.Workload{Name: "debug-synth"}
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

func testLog() *relog.Log {
	l := relog.NewLog(4)
	for pid := 0; pid < 4; pid++ {
		for j := int64(0); j < 3; j++ {
			c := &relog.Chunk{
				PID: pid, CID: j,
				StartSN: relog.SN(2*j + 1), EndSN: relog.SN(2*j + 2),
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

func testSession(t *testing.T, interval int64) *Session {
	t.Helper()
	s, err := New(testLog(), testWorkload(), nil,
		replay.Config{ScanSeed: 7, Profile: true}, interval)
	if err != nil {
		t.Fatal(err)
	}
	return s
}

func TestSeekArbitraryMatchesUninterrupted(t *testing.T) {
	// Golden: uninterrupted forward walk, hash at every position.
	ref := testSession(t, 4)
	hashes := map[int64]string{}
	h, _ := ref.SnapshotHash()
	hashes[0] = h
	for {
		stop := ref.StepN(1)
		if stop.Reason == "end" {
			break
		}
		h, err := ref.SnapshotHash()
		if err != nil {
			t.Fatal(err)
		}
		hashes[ref.Pos()] = h
	}
	total := ref.Total()
	if int64(len(hashes)) != total+1 {
		t.Fatalf("walked %d positions, want %d", len(hashes), total+1)
	}

	// Seeking to each position in a scrambled order must land on the
	// same hash every time.
	s := testSession(t, 4)
	order := []int64{total, 0, 7, 3, total - 1, 1, 5, 2, total, 4, 0}
	for _, pos := range order {
		if err := s.SeekTo(pos); err != nil {
			t.Fatalf("seek %d: %v", pos, err)
		}
		if s.Pos() != pos {
			t.Fatalf("seek %d landed at %d", pos, s.Pos())
		}
		got, err := s.SnapshotHash()
		if err != nil {
			t.Fatal(err)
		}
		if got != hashes[pos] {
			t.Fatalf("seek %d: hash %s, uninterrupted run had %s", pos, got, hashes[pos])
		}
	}
}

func TestReverseStepThenStepIdentity(t *testing.T) {
	s := testSession(t, 4)
	if err := s.SeekTo(8); err != nil {
		t.Fatal(err)
	}
	want, _ := s.SnapshotHash()
	for _, n := range []int64{1, 3, 8, 100} {
		if err := s.ReverseStep(n); err != nil {
			t.Fatalf("rstep %d: %v", n, err)
		}
		back := 8 - n
		if back < 0 {
			back = 0
		}
		if s.Pos() != back {
			t.Fatalf("rstep %d: pos %d want %d", n, s.Pos(), back)
		}
		if err := s.SeekTo(8); err != nil {
			t.Fatal(err)
		}
		got, _ := s.SnapshotHash()
		if got != want {
			t.Fatalf("rstep %d then step back: hash %s want %s", n, got, want)
		}
	}
}

func TestBreakpointsAndWatchpoints(t *testing.T) {
	s := testSession(t, 64)
	// Break on core 2's chunk 1 boundary.
	b := s.BreakChunk(2, 1)
	stop := s.Continue()
	if stop.Reason != "break" || stop.Break != b {
		t.Fatalf("continue stopped with %+v", stop)
	}
	if stop.Info.PID != 2 || stop.Info.CID != 1 {
		t.Fatalf("stopped at %s", stop.Info)
	}
	if !s.Delete(b.ID) {
		t.Fatal("delete failed")
	}

	// Watch a word core 3 writes (its chunk 0 op 1 writes SharedWord(0,3)).
	addr := uint64(trace.SharedWord(0, 3))
	if err := s.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	w := s.Watch(addr)
	stop = s.Continue()
	if stop.Reason != "watch" || stop.Watch != w {
		t.Fatalf("continue stopped with %+v", stop)
	}
	if stop.New == stop.Old {
		t.Fatalf("watch fired without a change: %d -> %d", stop.Old, stop.New)
	}
	if s.MemValue(addr) != stop.New {
		t.Fatal("reported new value is not the memory value")
	}
	s.Delete(w.ID)

	// SN breakpoint: op 5 of core 1 lives in chunk 2.
	if err := s.SeekTo(0); err != nil {
		t.Fatal(err)
	}
	s.BreakSN(1, 5)
	stop = s.Continue()
	if stop.Reason != "break" || stop.Info.PID != 1 || stop.Info.CID != 2 {
		t.Fatalf("sn break stopped at %+v", stop)
	}
}

func TestSeekConditionForms(t *testing.T) {
	s := testSession(t, 4)
	if err := s.SeekSN(1, 3); err != nil {
		t.Fatal(err)
	}
	if s.Stepper().Cursor(1) != 2 {
		t.Fatalf("seek sn 1:3: cursor[1]=%d want 2", s.Stepper().Cursor(1))
	}
	// Seeking to an earlier chunk of the same core must restart.
	if err := s.SeekChunk(1, 0); err != nil {
		t.Fatal(err)
	}
	if s.Stepper().Cursor(1) != 1 {
		t.Fatalf("seek chunk 1:0: cursor[1]=%d want 1", s.Stepper().Cursor(1))
	}
	if err := s.SeekCycle(10); err != nil {
		t.Fatal(err)
	}
	if int64(s.Stepper().MaxClock()) < 10 {
		t.Fatalf("seek cycle 10: makespan %d", s.Stepper().MaxClock())
	}
	if err := s.SeekSN(0, 99); err == nil {
		t.Fatal("seek sn past the log must fail")
	}
	if err := s.SeekChunk(9, 0); err == nil {
		t.Fatal("seek chunk on a bad core must fail")
	}
}

func TestResultMatchesBatchAfterSeeks(t *testing.T) {
	w, l := testWorkload(), testLog()
	batch, bmem, err := replay.RunWithMemory(l, w, nil, replay.Config{ScanSeed: 7, Profile: true})
	if err != nil {
		t.Fatal(err)
	}
	s := testSession(t, 3)
	// Wander, then finish from the far end.
	for _, pos := range []int64{5, 2, 9, 0, 4} {
		if err := s.SeekTo(pos); err != nil {
			t.Fatal(err)
		}
	}
	if err := s.SeekTo(s.Total()); err != nil {
		t.Fatal(err)
	}
	res := s.Result()
	if res.ChunksReplayed != batch.ChunksReplayed || res.OpsReplayed != batch.OpsReplayed ||
		res.Makespan != batch.Makespan || res.StallCycles != batch.StallCycles ||
		res.MismatchCount != batch.MismatchCount {
		t.Fatalf("session result %+v != batch %+v", res, batch)
	}
	for a, v := range bmem {
		if s.MemValue(uint64(a)) != v {
			t.Fatalf("memory @%#x: session %d batch %d", uint64(a), s.MemValue(uint64(a)), v)
		}
	}
	// Finalization is rewindable: seek back, re-finish, same result.
	if err := s.SeekTo(1); err != nil {
		t.Fatal(err)
	}
	if err := s.SeekTo(s.Total()); err != nil {
		t.Fatal(err)
	}
	res2 := s.Result()
	if res2.Makespan != batch.Makespan || res2.LeftoverSSB != batch.LeftoverSSB {
		t.Fatalf("re-finalized result diverged: %+v", res2)
	}
}

func TestPublisherFanout(t *testing.T) {
	p := NewPublisher()
	ch, cancel := p.Subscribe(2)
	defer cancel()
	p.Publish([]byte("a"))
	p.Publish([]byte("b"))
	p.Publish([]byte("c")) // dropped: buffer full
	if got := string(<-ch); got != "a" {
		t.Fatalf("got %q", got)
	}
	if got := string(<-ch); got != "b" {
		t.Fatalf("got %q", got)
	}
	select {
	case b := <-ch:
		t.Fatalf("unexpected delivery %q", b)
	default:
	}
	cancel()
	cancel() // double-cancel is safe
	if p.Subscribers() != 0 {
		t.Fatalf("%d subscribers after cancel", p.Subscribers())
	}
}

func TestSessionStatusAndStream(t *testing.T) {
	s := testSession(t, 4)
	ch, cancel := s.DebugSubscribe(8)
	defer cancel()
	if stop := s.StepN(2); stop.Reason == "end" {
		t.Fatal("ended early")
	}
	st := s.Status()
	if st.Pos != 2 || st.Total != 12 || st.Cores != 4 {
		t.Fatalf("status %+v", st)
	}
	select {
	case b := <-ch:
		if !strings.Contains(string(b), `"pos":2`) {
			t.Fatalf("stream update %s", b)
		}
	default:
		t.Fatal("no stream update after StepN")
	}
	if !strings.Contains(string(s.DebugJSON()), `"schema_version"`) {
		t.Fatal("DebugJSON missing schema_version")
	}
}

// TestSeekAfterMidRunResult: Result finalizes the stepper mid-run (the
// SSB flush), after which it refuses to step; a later forward seek must
// undo the finalization and still land on the uninterrupted state.
func TestSeekAfterMidRunResult(t *testing.T) {
	ref := testSession(t, 2)
	ref.StepN(7)
	want, err := ref.SnapshotHash()
	if err != nil {
		t.Fatal(err)
	}

	s := testSession(t, 2)
	s.StepN(3)
	s.Result()
	if err := s.SeekTo(7); err != nil {
		t.Fatal(err)
	}
	if s.Pos() != 7 {
		t.Fatalf("seek 7 after a mid-run Result landed at %d", s.Pos())
	}
	if got, _ := s.SnapshotHash(); got != want {
		t.Fatalf("seek 7 after a mid-run Result: hash %s, uninterrupted run had %s", got, want)
	}
}

// TestTraceWindowTracesEveryChunk: a forward seek may jump over stored
// checkpoints, but a trace window must execute — and so trace — every
// chunk in (from, to], even when checkpoints lie inside the window.
func TestTraceWindowTracesEveryChunk(t *testing.T) {
	s := testSession(t, 2)
	if stop := s.Continue(); stop.Reason != "end" {
		t.Fatalf("continue stopped with %+v", stop)
	}
	path := filepath.Join(t.TempDir(), "window.json")
	for _, w := range [][2]int64{{1, 9}, {0, 12}, {4, 5}} {
		if err := s.TraceWindow(w[0], w[1], path); err != nil {
			t.Fatal(err)
		}
		if s.Pos() != s.Total() {
			t.Fatalf("trace (%d, %d] left the session at %d", w[0], w[1], s.Pos())
		}
		data, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		var doc struct {
			TraceEvents []struct {
				Name string `json:"name"`
			} `json:"traceEvents"`
		}
		if err := json.Unmarshal(data, &doc); err != nil {
			t.Fatal(err)
		}
		spans := 0
		for _, e := range doc.TraceEvents {
			if e.Name == "replay-chunk" {
				spans++
			}
		}
		if int64(spans) != w[1]-w[0] {
			t.Fatalf("trace (%d, %d] has %d replay chunk spans, want %d", w[0], w[1], spans, w[1]-w[0])
		}
	}
}

// TestCheckpointsCapturedOnce: every checkpoint position is captured
// the first time the session reaches it and never again, however the
// session moves afterwards, and each stored state is exactly what a
// fresh capture at that position gives.
func TestCheckpointsCapturedOnce(t *testing.T) {
	// A stats registry puts the stall histogram into the states too.
	open := func() *Session {
		s, err := New(testLog(), testWorkload(), nil,
			replay.Config{ScanSeed: 7, Profile: true, Stats: sim.NewStats()}, 2)
		if err != nil {
			t.Fatal(err)
		}
		return s
	}
	s := open()
	s.Continue()
	stored := append([]*replay.State(nil), s.ckpts.slots...)
	for i, st := range stored {
		if st == nil || st.Steps != int64(i)*2 {
			t.Fatalf("slot %d after Continue holds %+v", i, st)
		}
	}
	if s.Checkpoints() != len(stored) {
		t.Fatalf("%d checkpoints counted, %d stored", s.Checkpoints(), len(stored))
	}
	for _, pos := range []int64{5, 1, 12, 0, 7, 8, 3, 11, 2, 12, 6} {
		if err := s.SeekTo(pos); err != nil {
			t.Fatal(err)
		}
		if pos%2 == 0 {
			s.ReverseStep(1)
		}
	}
	s.SeekChunk(3, 2)
	s.SeekCycle(10)
	if s.Checkpoints() != len(stored) {
		t.Fatalf("%d checkpoints after seeks, %d before", s.Checkpoints(), len(stored))
	}
	for i, st := range s.ckpts.slots {
		if st != stored[i] {
			t.Fatalf("checkpoint at pos %d was captured again", st.Steps)
		}
	}

	fresh := open()
	for _, st := range stored {
		if err := fresh.SeekTo(st.Steps); err != nil {
			t.Fatal(err)
		}
		want, err := fresh.Stepper().CaptureState().Marshal()
		if err != nil {
			t.Fatal(err)
		}
		got, err := st.Marshal()
		if err != nil {
			t.Fatal(err)
		}
		if !bytes.Equal(got, want) {
			t.Fatalf("stored state at pos %d differs from a fresh capture:\n got %s\nwant %s", st.Steps, got, want)
		}
	}
}

// TestConditionSeeksFromAnywhere: the condition forms land on the same
// position whether they start before the target, after it, or from a
// finalized stepper.
func TestConditionSeeksFromAnywhere(t *testing.T) {
	ref := testSession(t, 2)
	if err := ref.SeekChunk(2, 1); err != nil {
		t.Fatal(err)
	}
	chunkPos := ref.Pos()
	if err := ref.SeekCycle(12); err != nil {
		t.Fatal(err)
	}
	cyclePos := ref.Pos()

	s := testSession(t, 2)
	s.Continue()
	for _, from := range []int64{0, 3, 12} {
		if err := s.SeekTo(from); err != nil {
			t.Fatal(err)
		}
		if from == 3 {
			s.Result()
		}
		if err := s.SeekChunk(2, 1); err != nil || s.Pos() != chunkPos {
			t.Fatalf("seek chunk 2:1 from %d: pos %d err %v, want pos %d", from, s.Pos(), err, chunkPos)
		}
		if err := s.SeekTo(from); err != nil {
			t.Fatal(err)
		}
		if err := s.SeekCycle(12); err != nil || s.Pos() != cyclePos {
			t.Fatalf("seek cycle 12 from %d: pos %d err %v, want pos %d", from, s.Pos(), err, cyclePos)
		}
	}
}
