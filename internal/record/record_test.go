package record

import (
	"testing"
	"testing/quick"

	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/trace"
)

// --------------------------------------------------------------------
// Counting Bloom filter
// --------------------------------------------------------------------

func TestCBFNoFalseNegatives(t *testing.T) {
	f := NewCBF(256)
	lines := []cache.Line{1, 99, 4096, 1 << 30}
	for _, l := range lines {
		f.Insert(l)
	}
	for _, l := range lines {
		if !f.MaybeContains(l) {
			t.Fatalf("false negative for %d", l)
		}
	}
}

func TestCBFRemoveRestores(t *testing.T) {
	f := NewCBF(64)
	f.Insert(7)
	f.Insert(7)
	f.Remove(7)
	if !f.MaybeContains(7) {
		t.Fatal("count-2 entry vanished after one removal")
	}
	f.Remove(7)
	// After full removal the filter MAY say absent (and usually does).
	if f.MaybeContains(7) {
		t.Log("residual positive after removal (aliasing); acceptable")
	}
}

func TestCBFUnderflowPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("underflow did not panic")
		}
	}()
	NewCBF(64).Remove(3)
}

func TestCBFQuickNoFalseNegative(t *testing.T) {
	f := NewCBF(1024)
	inserted := map[cache.Line]int{}
	err := quick.Check(func(raw uint16) bool {
		l := cache.Line(raw % 512)
		f.Insert(l)
		inserted[l]++
		return f.MaybeContains(l)
	}, &quick.Config{MaxCount: 2000})
	if err != nil {
		t.Fatal(err)
	}
}

// --------------------------------------------------------------------
// Pending window
// --------------------------------------------------------------------

func pwWith(n int) *PendingWindow {
	pw := NewPendingWindow(64)
	for i := 1; i <= n; i++ {
		pw.Dispatch(SN(i), trace.Read, coherence.Addr(i*8), cache.Line(i))
	}
	return pw
}

func TestPWDispatchOrderEnforced(t *testing.T) {
	pw := NewPendingWindow(64)
	pw.Dispatch(1, trace.Read, 8, 0)
	defer func() {
		if recover() == nil {
			t.Fatal("out-of-order dispatch did not panic")
		}
	}()
	pw.Dispatch(3, trace.Read, 16, 0)
}

func TestPWDrainInOrder(t *testing.T) {
	pw := pwWith(4)
	pw.Get(2).performed = true
	pw.Get(3).performed = true
	if tail := pw.Drain(); tail != 1 {
		t.Fatalf("tail %d, want 1 (head unperformed)", tail)
	}
	pw.Get(1).performed = true
	if tail := pw.Drain(); tail != 4 {
		t.Fatalf("tail %d, want 4", tail)
	}
	if pw.Len() != 1 {
		t.Fatalf("len %d, want 1", pw.Len())
	}
}

func TestPWHeldBlocksDrain(t *testing.T) {
	pw := pwWith(2)
	pw.Get(1).performed = true
	pw.Get(1).held = true
	pw.Get(2).performed = true
	if tail := pw.Drain(); tail != 1 {
		t.Fatalf("held entry drained (tail %d)", tail)
	}
	pw.Get(1).held = false
	if tail := pw.Drain(); tail != 3 {
		t.Fatalf("tail %d after release, want 3", tail)
	}
}

func TestPWGetAfterDrainNil(t *testing.T) {
	pw := pwWith(2)
	pw.Get(1).performed = true
	pw.Get(2).performed = true
	pw.Drain()
	if pw.Get(1) != nil || pw.Get(2) != nil {
		t.Fatal("completed entries still reachable")
	}
	if pw.Get(99) != nil {
		t.Fatal("future entry reachable")
	}
}

func TestPWHasOlderUnperformed(t *testing.T) {
	pw := pwWith(3)
	if !pw.HasOlderUnperformed(3) {
		t.Fatal("older unperformed not seen")
	}
	pw.Get(1).performed = true
	pw.Get(2).performed = true
	if pw.HasOlderUnperformed(3) {
		t.Fatal("claims older unperformed after performs")
	}
}

func TestPWYoungestPerformedSource(t *testing.T) {
	pw := pwWith(5)
	pw.Get(2).performed = true
	pw.Get(2).isSource = true
	pw.Get(4).performed = true
	pw.Get(4).isSource = true
	pw.Get(5).isSource = true // not performed: ignored
	if got := pw.YoungestPerformedSource(); got != 4 {
		t.Fatalf("MRPS %d, want 4", got)
	}
}

func TestPWFindPerformedLoad(t *testing.T) {
	pw := NewPendingWindow(64)
	pw.Dispatch(1, trace.Read, 8, 7)
	pw.Dispatch(2, trace.Write, 16, 7)
	pw.Dispatch(3, trace.Read, 8, 7)
	pw.Get(1).performed = true
	pw.Get(1).value = 11
	pw.Get(3).performed = true
	pw.Get(3).value = 33
	sn, val, ok := pw.FindPerformedLoad(7)
	if !ok || sn != 3 || val != 33 {
		t.Fatalf("got (%d,%d,%v), want youngest load (3,33,true)", sn, val, ok)
	}
	if _, _, ok := pw.FindPerformedLoad(99); ok {
		t.Fatal("found load on absent line")
	}
}

func TestPWMaxOcc(t *testing.T) {
	pw := pwWith(7)
	if pw.MaxOcc() != 7 {
		t.Fatalf("watermark %d", pw.MaxOcc())
	}
	for i := 1; i <= 7; i++ {
		pw.Get(SN(i)).performed = true
	}
	pw.Drain()
	if pw.MaxOcc() != 7 {
		t.Fatal("watermark regressed")
	}
}

// TestPWRingWrapsAndGrows drives the window past its ring's end many
// times, then grows it while the live entries wrap around: lookups,
// program order, the Section 3.2 query and the watermark must not see
// the ring.
func TestPWRingWrapsAndGrows(t *testing.T) {
	pw := NewPendingWindow(4) // a 4-slot ring
	sn := SN(1)
	dispatch := func() {
		pw.Dispatch(sn, trace.Read, coherence.Addr(sn*8), cache.Line(sn%3))
		sn++
	}
	for i := 0; i < 3; i++ {
		dispatch()
	}
	for round := 0; round < 10; round++ { // keep 3 live, wrapping
		pw.Perform(pw.TailSN())
		pw.Drain()
		dispatch()
	}
	for i := 0; i < 6; i++ { // grow twice with the live run wrapped
		dispatch()
	}
	if pw.Len() != 9 || pw.MaxOcc() != 9 || pw.TailSN() != 11 {
		t.Fatalf("len %d, watermark %d, tail %d; want 9, 9, 11", pw.Len(), pw.MaxOcc(), pw.TailSN())
	}
	var order []SN
	pw.Range(func(e *pwEntry) { order = append(order, e.sn) })
	for i, got := range order {
		if want := SN(11 + i); got != want || pw.Get(want).sn != want {
			t.Fatalf("entry %d is SN %d, want %d", i, got, want)
		}
	}
	for _, l := range []struct {
		sn  SN
		val uint64
	}{{13, 7}, {14, 9}, {16, 5}} { // lines 1, 2, 1
		pw.SetLoadValue(l.sn, l.val)
		pw.Perform(l.sn)
	}
	if q := pw.Query(1); !q.HasPerformedLoad || q.LoadSN != 16 || q.OldValue != 5 {
		t.Fatalf("line 1: query %+v, want the youngest performed load (16, 5)", q)
	}
	if q := pw.Query(2); q.LoadSN != 14 || q.OldValue != 9 {
		t.Fatalf("line 2: query %+v, want (14, 9)", q)
	}
	if q := pw.Query(0); q.HasPerformedLoad {
		t.Fatalf("line 0: query %+v, want no performed load", q)
	}
}

// --------------------------------------------------------------------
// Recorder state machine (driven directly, no machine)
// --------------------------------------------------------------------

func newRec(mode Mode) *Recorder {
	return NewRecorder(DefaultConfig(2, mode), nil, nil)
}

func TestRecorderModeNames(t *testing.T) {
	names := map[Mode]string{
		ModeKarma: "karma", ModeRAll: "r-all", ModeRBound: "r-bound",
		ModeMoveBound: "move", ModeGranule: "gra", ModeVolition: "vol",
	}
	for m, want := range names {
		if m.String() != want {
			t.Errorf("%d: %q", m, m.String())
		}
	}
}

func TestRecorderSimpleChunking(t *testing.T) {
	r := newRec(ModeGranule)
	for sn := SN(1); sn <= 10; sn++ {
		r.OnDispatch(0, sn, trace.Write, coherence.Addr(sn*64))
		r.OnRetire(0, sn)
		r.OnPerformed(0, sn)
	}
	log := r.Finish()
	chunks := log.Chunks(0)
	if len(chunks) != 1 {
		t.Fatalf("%d chunks, want 1 (no deps, no capacity hit)", len(chunks))
	}
	if chunks[0].StartSN != 1 || chunks[0].EndSN != 10 {
		t.Fatalf("chunk range [%d,%d]", chunks[0].StartSN, chunks[0].EndSN)
	}
}

func TestRecorderCapacityTermination(t *testing.T) {
	cfg := DefaultConfig(1, ModeGranule)
	cfg.MaxChunkOps = 4
	r := NewRecorder(cfg, nil, nil)
	for sn := SN(1); sn <= 10; sn++ {
		r.OnDispatch(0, sn, trace.Read, coherence.Addr(sn*64))
		r.OnLoadValue(0, sn, coherence.Addr(sn*64), 0)
		r.OnPerformed(0, sn)
		r.OnRetire(0, sn)
	}
	log := r.Finish()
	if n := len(log.Chunks(0)); n != 3 { // 4+4+2
		t.Fatalf("%d chunks, want 3", n)
	}
}

func TestRecorderSnapshotFreezesAndCuts(t *testing.T) {
	r := newRec(ModeGranule)
	for sn := SN(1); sn <= 4; sn++ {
		r.OnDispatch(0, sn, trace.Read, coherence.Addr(sn*64))
		r.OnLoadValue(0, sn, coherence.Addr(sn*64), 0)
		r.OnPerformed(0, sn)
		r.OnRetire(0, sn)
	}
	snap := r.SnapshotSource(0, 2)
	if !snap.Valid || snap.PID != 0 {
		t.Fatalf("snapshot %+v", snap)
	}
	// Serving cuts the chunk at the serve point.
	r.OnDispatch(0, 5, trace.Read, 5*64)
	r.OnLoadValue(0, 5, 5*64, 0)
	r.OnPerformed(0, 5)
	r.OnRetire(0, 5)
	log := r.Finish()
	if n := len(log.Chunks(0)); n != 2 {
		t.Fatalf("%d chunks, want 2 (cut at serve)", n)
	}
	if log.Chunks(0)[0].CID != snap.CID {
		t.Fatal("snapshot does not name the served chunk")
	}
}

func TestRecorderFirstDependenceDoesNotTerminate(t *testing.T) {
	r := newRec(ModeGranule)
	// Core 1 executes one op; core 0's chunk serves nothing.
	r.OnDispatch(1, 1, trace.Write, 64)
	r.OnRetire(1, 1)
	// A dependence arrives at core 1's open, unfrozen chunk.
	r.OnDependence(coherence.Dependence{
		Kind: coherence.WAW,
		Src:  coherence.AccessRef{PID: 0, SN: 1, IsWrite: true},
		Snap: coherence.SrcSnap{Valid: true, PID: 0, CID: 0, TS: 5},
		Dst:  coherence.AccessRef{PID: 1, SN: 1, IsWrite: true},
		Line: 1,
	})
	r.OnPerformed(1, 1)
	log := r.Finish()
	chunks := log.Chunks(1)
	if len(chunks) != 1 {
		t.Fatalf("first dependence terminated the chunk (%d chunks)", len(chunks))
	}
	if chunks[0].TS <= 5 {
		t.Fatalf("timestamp not raised above the source (ts=%d)", chunks[0].TS)
	}
	if len(chunks[0].Preds) != 1 || chunks[0].Preds[0].PID != 0 {
		t.Fatalf("pred not recorded: %+v", chunks[0].Preds)
	}
}

func TestRecorderKarmaNeverLogsDSet(t *testing.T) {
	r := newRec(ModeKarma)
	r.OnDispatch(0, 1, trace.Write, 64)
	r.OnRetire(0, 1)
	snap := r.SnapshotSource(0, 1)
	_ = snap
	r.OnDependence(coherence.Dependence{
		Kind: coherence.WAR,
		Src:  coherence.AccessRef{PID: 1, SN: 1},
		Snap: coherence.SrcSnap{Valid: true, PID: 1, CID: 0, TS: 99},
		Dst:  coherence.AccessRef{PID: 0, SN: 1, IsWrite: true},
		Line: 1,
	})
	r.OnPerformed(0, 1)
	log := r.Finish()
	st := log.ComputeStats()
	if st.DEntries != 0 || st.PEntries != 0 {
		t.Fatalf("Karma logged reorderings: %+v", st)
	}
}

func TestRecorderFinishIdempotent(t *testing.T) {
	r := newRec(ModeGranule)
	r.OnDispatch(0, 1, trace.Read, 64)
	r.OnLoadValue(0, 1, 64, 0)
	r.OnPerformed(0, 1)
	r.OnRetire(0, 1)
	a := r.Finish()
	b := r.Finish()
	if a != b {
		t.Fatal("Finish not idempotent")
	}
}

func TestRecorderLHBWatermark(t *testing.T) {
	r := newRec(ModeGranule)
	// Dispatch two ops; the first never performs, so closed chunks pile
	// up in the LHB behind it.
	r.OnDispatch(0, 1, trace.Write, 64)
	r.OnRetire(0, 1)
	r.OnDispatch(0, 2, trace.Read, 128)
	r.OnRetire(0, 2)
	r.SnapshotSource(0, 2) // cut -> chunk 0 closed but incomplete
	if r.LHBMax(0) < 2 {
		t.Fatalf("LHB watermark %d, want >= 2", r.LHBMax(0))
	}
	// Drain so Finish does not panic.
	r.OnLoadValue(0, 2, 128, 0)
	r.OnPerformed(0, 2)
	r.OnPerformed(0, 1)
	r.Finish()
}
