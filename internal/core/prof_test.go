package core

import (
	"testing"

	"pacifier/internal/prof"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/trace"
)

func profRecord(t *testing.T, profile bool) *RunResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = 1
	opts.ProfileCycles = profile
	p, err := trace.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	w := p.Generate(8, 300, 1)
	rr, err := Record(w, opts, record.ModeGranule, record.ModeKarma)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// TestProfileDisabledLeavesNoCounters: without Options.ProfileCycles the
// registry must contain no prof.* counters at all — the disabled profiler
// is invisible, not merely zero-valued.
func TestProfileDisabledLeavesNoCounters(t *testing.T) {
	rr := profRecord(t, false)
	rep := rr.ProfReport()
	if rep.AttributedTotal() != 0 || len(rep.Cores) != 0 {
		t.Fatalf("disabled run produced attribution: total=%d cores=%d",
			rep.AttributedTotal(), len(rep.Cores))
	}
	for _, c := range rr.Stats.Snapshot().Counters {
		if len(c.Name) >= 5 && c.Name[:5] == "prof." {
			t.Fatalf("disabled run registered counter %q", c.Name)
		}
	}
	if rr.MeasuredRecordSlowdown(rr.Recording(record.ModeGranule)) != 0 {
		t.Error("disabled run has nonzero measured slowdown")
	}
}

// TestMeasuredRecordSlowdown: a profiled run attributes cycles to every
// layer the workload exercises, and yields a positive measured slowdown
// for every mode, of the same order as the modeled one.
func TestMeasuredRecordSlowdown(t *testing.T) {
	rr := profRecord(t, true)
	rep := rr.ProfReport()
	for _, c := range []prof.Component{prof.L1Hit, prof.L1Miss, prof.Home, prof.NoC, prof.Recorder} {
		if rep.Total[c] == 0 {
			t.Errorf("component %v attributed 0 cycles on this workload", c)
		}
	}
	for _, mode := range []record.Mode{record.ModeGranule, record.ModeKarma} {
		rec := rr.Recording(mode)
		if rec.ProfCycles <= 0 {
			t.Errorf("%v: ProfCycles = %d, want > 0", mode, rec.ProfCycles)
		}
		meas := rr.MeasuredRecordSlowdown(rec)
		if meas <= 0 || meas > 1 {
			t.Errorf("%v: measured slowdown %v out of plausible range", mode, meas)
		}
	}
}

// TestReplayProfAttribution: replaying a profiled run produces a
// replay-side report that only uses the two components the replay timing
// model has (wake latency -> noc, dependence wait -> barrier), and the
// record-vs-replay delta leaves the record side's other components
// untouched.
func TestReplayProfAttribution(t *testing.T) {
	rr := profRecord(t, true)
	res, err := Replay(rr, record.ModeGranule, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		t.Fatalf("clean replay diverged: %v", res.Divergence)
	}
	if res.Prof == nil {
		t.Fatal("profiled run's replay carries no Result.Prof")
	}
	if res.Prof.AttributedTotal() == 0 {
		t.Fatal("replay attributed no cycles despite stalls")
	}
	for _, c := range prof.Components() {
		if c == prof.NoC || c == prof.Barrier {
			continue
		}
		if res.Prof.Total[c] != 0 {
			t.Errorf("replay attributed %d cycles to %v; replay only models noc+barrier",
				res.Prof.Total[c], c)
		}
	}
	if res.Prof.Total[prof.NoC]+res.Prof.Total[prof.Barrier] != res.StallCycles {
		t.Errorf("replay attribution %d+%d != StallCycles %d",
			res.Prof.Total[prof.NoC], res.Prof.Total[prof.Barrier], res.StallCycles)
	}
	rec := rr.ProfReport()
	d := rec.Delta(res.Prof)
	if d.Total[prof.L1Miss] != rec.Total[prof.L1Miss] {
		t.Error("delta disturbed a record-only component")
	}
}

// TestUnprofiledReplayHasNoProf: replays of an unprofiled run must not
// grow a replay-side report.
func TestUnprofiledReplayHasNoProf(t *testing.T) {
	rr := profRecord(t, false)
	res, err := Replay(rr, record.ModeGranule, 0)
	if err != nil {
		t.Fatal(err)
	}
	if res.Prof != nil {
		t.Fatalf("unprofiled run's replay carries Prof: %+v", res.Prof)
	}
}

// TestDivergedReplayProfFreezes: a corrupted log (stripped Pred edges,
// as in the explain test) still produces a replay-side report, and the
// attribution stops accumulating once the first divergence is recorded —
// the "up to the divergence point" contract of the explain output.
func TestDivergedReplayProfFreezes(t *testing.T) {
	opts := DefaultOptions()
	opts.Seed = 1
	opts.ProfileCycles = true
	rr, err := Record(trace.StoreBuffering(), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	log, err := relog.DecodeLog(relog.EncodeLog(rr.Recording(record.ModeGranule).Log))
	if err != nil {
		t.Fatal(err)
	}
	for pid := 0; pid < log.Cores; pid++ {
		for _, c := range log.Chunks(pid) {
			c.Preds = nil
		}
	}
	res, err := ReplayExternal(rr, log, record.ModeGranule, nil)
	if err != nil {
		t.Fatal(err)
	}
	if res.Deterministic() {
		t.Fatal("stripped log replayed deterministically; corruption vacuous")
	}
	if res.Prof == nil {
		t.Fatal("diverged replay of a profiled run carries no Prof")
	}
	if got := res.Prof.Total[prof.NoC] + res.Prof.Total[prof.Barrier]; got > res.StallCycles {
		t.Errorf("frozen attribution %d exceeds total stall %d", got, res.StallCycles)
	}
}

// TestDebugProfileSurvivesSeekBack: a profiled debug session that seeks
// forward, back and then runs to the end reports the attribution of a
// session that ran straight through. A rewind replaces the replayer's
// registry (replay.Stepper.RestoreState), so the replayer's prof.Lat
// accumulators must rebind to the new one: counters still bound to the
// discarded registry would lose every cycle attributed after the seek.
func TestDebugProfileSurvivesSeekBack(t *testing.T) {
	p, err := trace.ProfileByName("fft")
	if err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions()
	opts.Seed = 3
	opts.ProfileCycles = true
	rr, err := Record(p.Generate(8, 600, 3), opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	run := func(seeks ...int64) *prof.Report {
		t.Helper()
		s, err := NewDebugSession(rr, nil, record.ModeGranule, 4)
		if err != nil {
			t.Fatal(err)
		}
		for _, pos := range seeks {
			if err := s.SeekTo(pos); err != nil {
				t.Fatal(err)
			}
		}
		if stop := s.Continue(); stop.Reason != "end" {
			t.Fatalf("Continue stopped early: %s", stop.Reason)
		}
		return s.ProfReport()
	}
	want := run()
	if want.Total[prof.NoC] == 0 || want.Total[prof.Barrier] == 0 {
		t.Fatalf("straight session attributed noc=%d barrier=%d; the test needs both",
			want.Total[prof.NoC], want.Total[prof.Barrier])
	}
	total := int64(rr.Recording(record.ModeGranule).Log.TotalChunks())
	got := run(2*total/3, total/3)
	if got.Total != want.Total {
		t.Fatalf("after seeking to %d and back to %d: attribution %v, want the straight session's %v",
			2*total/3, total/3, got.Total, want.Total)
	}
}
