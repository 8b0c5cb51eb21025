package core

import (
	"bytes"
	"reflect"
	"slices"
	"strings"
	"testing"

	"pacifier/internal/machine"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// recordOne is a helper running one workload under the given modes.
func recordOne(t *testing.T, w *trace.Workload, seed uint64, modes ...record.Mode) *RunResult {
	t.Helper()
	opts := DefaultOptions()
	opts.Seed = seed
	rr, err := Record(w, opts, modes...)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// assertDeterministic replays under several scan seeds and requires an
// exact reproduction each time.
func assertDeterministic(t *testing.T, rr *RunResult, mode record.Mode, label string) {
	t.Helper()
	for scan := uint64(0); scan < 3; scan++ {
		res, err := Replay(rr, mode, scan)
		if err != nil {
			t.Fatalf("%s: %v", label, err)
		}
		if !res.Deterministic() {
			for _, m := range res.Mismatches {
				t.Logf("%s mismatch: %s", label, m.String())
			}
			t.Fatalf("%s (scan %d): %d mismatches, %d order breaks, %d leftover SSB",
				label, scan, res.MismatchCount, res.OrderBreaks, res.LeftoverSSB)
		}
		if res.OpsReplayed != rr.MemOps {
			t.Fatalf("%s: replayed %d ops, recorded %d", label, res.OpsReplayed, rr.MemOps)
		}
	}
}

func TestGranuleReplaysLitmusSB(t *testing.T) {
	// The key claim: even when the SB litmus produces an SCV, Granule's
	// log replays it exactly.
	for seed := uint64(1); seed <= 20; seed++ {
		rr := recordOne(t, trace.StoreBuffering(), seed, record.ModeGranule)
		assertDeterministic(t, rr, record.ModeGranule, "sb")
	}
}

func TestGranuleReplaysLitmusMP(t *testing.T) {
	for seed := uint64(1); seed <= 20; seed++ {
		rr := recordOne(t, trace.MessagePassing(), seed, record.ModeGranule)
		assertDeterministic(t, rr, record.ModeGranule, "mp")
	}
}

func TestGranuleReplaysLitmusWRCAndIRIW(t *testing.T) {
	for seed := uint64(1); seed <= 10; seed++ {
		rr := recordOne(t, trace.WRC(), seed, record.ModeGranule)
		assertDeterministic(t, rr, record.ModeGranule, "wrc")
		rr = recordOne(t, trace.IRIW(), seed, record.ModeGranule)
		assertDeterministic(t, rr, record.ModeGranule, "iriw")
	}
}

func TestGranuleReplaysFencedMP(t *testing.T) {
	rr := recordOne(t, trace.MPFenced(), 3, record.ModeGranule)
	assertDeterministic(t, rr, record.ModeGranule, "mp-fenced")
}

func TestGranuleReplaysAllApps(t *testing.T) {
	// Every SPLASH-2-like profile at 4 cores: record with Granule,
	// replay, demand exact determinism.
	for _, p := range trace.Profiles() {
		w := p.Generate(4, 400, 11)
		rr := recordOne(t, w, 11, record.ModeGranule)
		assertDeterministic(t, rr, record.ModeGranule, p.Name)
	}
}

func TestGranuleReplaysLargerMachine(t *testing.T) {
	if testing.Short() {
		t.Skip("short mode")
	}
	p, _ := trace.ProfileByName("radiosity") // most racy profile
	w := p.Generate(16, 500, 7)
	rr := recordOne(t, w, 7, record.ModeGranule)
	assertDeterministic(t, rr, record.ModeGranule, "radiosity-16")
}

func TestKarmaCannotReplayRC(t *testing.T) {
	// Karma has no SCV support: across seeds of the racy SB litmus it
	// must eventually diverge (mismatch or order break), demonstrating
	// the problem Pacifier solves. Granule on the same executions stays
	// exact.
	karmaFailed := false
	for seed := uint64(1); seed <= 30; seed++ {
		rr := recordOne(t, trace.StoreBuffering(), seed, record.ModeKarma, record.ModeGranule)
		res, err := Replay(rr, record.ModeKarma, 0)
		if err != nil {
			t.Fatal(err)
		}
		if !res.Deterministic() {
			karmaFailed = true
		}
		assertDeterministic(t, rr, record.ModeGranule, "gra-vs-karma")
	}
	if !karmaFailed {
		t.Fatal("Karma replayed every RC execution exactly; SCVs are not being exercised")
	}
}

func TestRBoundAndMoveAlsoReplay(t *testing.T) {
	// The stronger (more conservative) policies must also replay exactly:
	// they log supersets of Granule's reorderings.
	p, _ := trace.ProfileByName("barnes")
	w := p.Generate(4, 300, 5)
	for _, mode := range []record.Mode{record.ModeRBound, record.ModeMoveBound} {
		rr := recordOne(t, w, 5, mode)
		assertDeterministic(t, rr, mode, mode.String())
	}
}

func TestLogOverheadOrdering(t *testing.T) {
	// On one execution: Karma <= Vol <= Gra <= Move <= RBound in bytes
	// (Table 2's optimization hierarchy plus the oracle relationship).
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(8, 600, 3)
	rr := recordOne(t, w, 3,
		record.ModeKarma, record.ModeVolition, record.ModeGranule,
		record.ModeMoveBound, record.ModeRBound)
	get := func(m record.Mode) int64 { return rr.Recording(m).LogStats.TotalBytes }
	karma, vol, gra := get(record.ModeKarma), get(record.ModeVolition), get(record.ModeGranule)
	move, rbound := get(record.ModeMoveBound), get(record.ModeRBound)
	// Chunk boundaries evolve differently per mode, so the byte ordering
	// is monotone only up to a small tolerance; the D_set test below
	// checks the entry-count hierarchy.
	slack := func(v int64) int64 { return v + v/20 + 64 }
	if vol > slack(gra) {
		t.Errorf("vol (%d) > gra (%d): the oracle should log no more than Granule", vol, gra)
	}
	if karma > slack(vol) {
		t.Errorf("karma (%d) > vol (%d)", karma, vol)
	}
	if gra > slack(move) {
		t.Errorf("gra (%d) > move (%d): PMove should log no more than Move", gra, move)
	}
	if move > slack(rbound) {
		t.Errorf("move (%d) > rbound (%d)", move, rbound)
	}
	t.Logf("bytes: karma=%d vol=%d gra=%d move=%d rbound=%d", karma, vol, gra, move, rbound)
}

func TestDSetEntryOrdering(t *testing.T) {
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(8, 600, 9)
	rr := recordOne(t, w, 9,
		record.ModeVolition, record.ModeGranule, record.ModeMoveBound, record.ModeRBound)
	d := func(m record.Mode) int { return rr.Recording(m).LogStats.DEntries }
	vol, gra, move, rb := d(record.ModeVolition), d(record.ModeGranule), d(record.ModeMoveBound), d(record.ModeRBound)
	// Allow slight non-monotonicity between gra and move: their chunk
	// boundaries diverge, so counts can cross by a few entries.
	if vol > gra || gra > move+move/10+4 || move > rb {
		t.Fatalf("D_set hierarchy violated: vol=%d gra=%d move=%d rbound=%d", vol, gra, move, rb)
	}
	t.Logf("dset: vol=%d gra=%d move=%d rbound=%d", vol, gra, move, rb)
}

func TestChunksPartitionSNSpace(t *testing.T) {
	// Every memory op belongs to exactly one chunk; chunks are
	// contiguous and per-core CIDs strictly increase.
	p, _ := trace.ProfileByName("fft")
	w := p.Generate(4, 300, 2)
	rr := recordOne(t, w, 2, record.ModeGranule)
	log := rr.Recording(record.ModeGranule).Log
	for pid := 0; pid < 4; pid++ {
		expect := relog.SN(1)
		var prevCID int64 = -1
		for _, c := range log.Chunks(pid) {
			if c.CID <= prevCID {
				t.Fatalf("core %d: CID order violated", pid)
			}
			prevCID = c.CID
			if c.StartSN != expect {
				t.Fatalf("core %d: chunk starts at %d, want %d", pid, c.StartSN, expect)
			}
			if c.EndSN < c.StartSN-1 {
				t.Fatalf("core %d: negative chunk [%d,%d]", pid, c.StartSN, c.EndSN)
			}
			expect = c.EndSN + 1
		}
		if int64(expect-1) != int64(len(rr.Records[pid])) {
			t.Fatalf("core %d: chunks cover 1..%d, records 1..%d", pid, expect-1, len(rr.Records[pid]))
		}
	}
}

func TestEncodeDecodeReplayRoundTrip(t *testing.T) {
	p, _ := trace.ProfileByName("ocean")
	w := p.Generate(4, 300, 6)
	rr := recordOne(t, w, 6, record.ModeGranule)
	if err := VerifyRoundTrip(rr, record.ModeGranule); err != nil {
		t.Fatal(err)
	}
}

func TestNonAtomicRecordingReplays(t *testing.T) {
	// With non-atomic writes enabled (the paper's headline capability),
	// Granule + the Section 3.2 value logs must still replay exactly.
	opts := DefaultOptions()
	opts.Atomic = false
	for seed := uint64(1); seed <= 10; seed++ {
		opts.Seed = seed
		for _, mk := range []func() *trace.Workload{trace.WRC, trace.IRIW, trace.StoreBuffering} {
			w := mk()
			rr, err := Record(w, opts, record.ModeGranule)
			if err != nil {
				t.Fatal(err)
			}
			res, err := Replay(rr, record.ModeGranule, 0)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Deterministic() {
				for _, m := range res.Mismatches {
					t.Logf("%s mismatch: %s", w.Name, m.String())
				}
				t.Fatalf("%s seed %d: non-atomic replay diverged (%d mismatches)",
					w.Name, seed, res.MismatchCount)
			}
		}
	}
}

func TestNonAtomicAppReplay(t *testing.T) {
	opts := DefaultOptions()
	opts.Atomic = false
	opts.Seed = 4
	p, _ := trace.ProfileByName("radix")
	w := p.Generate(4, 300, 4)
	rr, err := Record(w, opts, record.ModeGranule)
	if err != nil {
		t.Fatal(err)
	}
	res, err := Replay(rr, record.ModeGranule, 0)
	if err != nil {
		t.Fatal(err)
	}
	if !res.Deterministic() {
		for _, m := range res.Mismatches {
			t.Logf("mismatch: %s", m.String())
		}
		t.Fatalf("non-atomic app replay diverged: %d mismatches, %d breaks",
			res.MismatchCount, res.OrderBreaks)
	}
}

func TestLHBWatermarkModest(t *testing.T) {
	// Figure 13: LHB requirements are modest (<= 7 observed with 16
	// configured in the paper).
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(8, 500, 5)
	rr := recordOne(t, w, 5, record.ModeGranule, record.ModeVolition)
	for _, rec := range rr.Recordings {
		if rec.LHBMax > 16 {
			t.Errorf("%v: LHB watermark %d exceeds the configured 16", rec.Mode, rec.LHBMax)
		}
		if rec.LHBMax < 1 {
			t.Errorf("%v: LHB watermark %d implausible", rec.Mode, rec.LHBMax)
		}
	}
}

// directRecorder attaches one recorder to the machine with no fanout in
// between: the reference TestMultiRecorderMatchesSolo compares against.
// The recorder is bound after machine.New, which it needs for the clock.
type directRecorder struct{ *record.Recorder }

// direct is what one recorder attached to the machine directly gives.
type direct struct {
	log       []byte
	durations []sim.Cycle // every chunk's, core by core (not in the encoding)
	cycles    sim.Cycle
	stats     *sim.Snapshot
}

// durations lists a log's chunk durations, core by core.
func durations(l *relog.Log) []sim.Cycle {
	var out []sim.Cycle
	for pid := 0; pid < l.Cores; pid++ {
		for _, c := range l.Chunks(pid) {
			out = append(out, c.Duration)
		}
	}
	return out
}

// recordDirect records w under mode with the recorder as the machine's
// observer, configured as Record configures it: synchronously, on the
// machine's goroutine, reading the machine's clock and counting into
// the machine's registry.
func recordDirect(t *testing.T, w *trace.Workload, opts Options, mode record.Mode) direct {
	t.Helper()
	n := len(w.Threads)
	mcfg := machine.DefaultConfig(n)
	mcfg.Seed = opts.Seed
	mcfg.Mem.Atomic = opts.Atomic
	obs := &directRecorder{}
	m, err := machine.New(mcfg, w, obs)
	if err != nil {
		t.Fatal(err)
	}
	rcfg := record.DefaultConfig(n, mode)
	rcfg.MaxChunkOps = opts.MaxChunkOps
	obs.Recorder = record.NewRecorder(rcfg, m.Eng, m.Stats)
	if err := m.Run(opts.MaxCycles); err != nil {
		t.Fatal(err)
	}
	log := obs.Finish()
	return direct{log: relog.EncodeLog(log), durations: durations(log),
		cycles: m.Cycles(), stats: m.Stats.Snapshot()}
}

// counters returns a snapshot's counters by name.
func counters(s *sim.Snapshot) map[string]int64 {
	out := make(map[string]int64, len(s.Counters))
	for _, c := range s.Counters {
		out[c.Name] = c.Value
	}
	return out
}

func TestMultiRecorderMatchesSolo(t *testing.T) {
	// Recording a mode through the fanout, alone or alongside others,
	// must give byte for byte the log, and exactly the counters, its
	// recorder gives attached to the machine directly: neither the event
	// stream to the recorders' goroutine, nor the snapshot tickets and
	// their table, nor the fanout's own pending windows (which answer
	// the non-atomic radiosity case's Section 3.2 queries) may perturb
	// the execution or any recorder. Every SnapshotSource call takes a
	// ticket; with karma+vol+gra together the inputs take 2 (SB), 2617
	// (radiosity) and 2607 (ocean), so the two trace inputs fill three
	// blocks of the ticket table each.
	radiosity, _ := trace.ProfileByName("radiosity")
	ocean, _ := trace.ProfileByName("ocean")
	cases := []struct {
		name   string
		w      *trace.Workload
		seed   uint64
		atomic bool
	}{
		{"sb", trace.StoreBuffering(), 9, true},
		{"radiosity-16p-2k-nonatomic", radiosity.Generate(16, 2000, 1), 1, false},
		{"ocean-16p-4k-atomic", ocean.Generate(16, 4000, 5), 5, true},
	}
	modes := []record.Mode{record.ModeKarma, record.ModeVolition, record.ModeGranule}
	for _, c := range cases {
		opts := DefaultOptions()
		opts.Seed = c.seed
		opts.Atomic = c.atomic
		multi, err := Record(c.w, opts, modes...)
		if err != nil {
			t.Fatalf("%s: %v", c.name, err)
		}
		// Recorder counters (record.*, prof.*.recorder.*) are named per
		// kind, not per mode, so the run with every recorder holds their
		// sum over the modes; every other counter is the machine's.
		sum := map[string]int64{}
		for _, mode := range modes {
			solo, err := Record(c.w, opts, mode)
			if err != nil {
				t.Fatalf("%s %v: %v", c.name, mode, err)
			}
			want := recordDirect(t, c.w, opts, mode)
			for _, got := range []struct {
				how string
				rr  *RunResult
			}{{"alone", solo}, {"together", multi}} {
				if got.rr.NativeCycles != want.cycles {
					t.Fatalf("%s %v %s: fanout perturbed execution: %d cycles, %d direct",
						c.name, mode, got.how, got.rr.NativeCycles, want.cycles)
				}
				log := got.rr.Recording(mode).Log
				if b := relog.EncodeLog(log); !bytes.Equal(b, want.log) {
					t.Fatalf("%s %v %s: fanout perturbed the log: %d bytes, %d direct",
						c.name, mode, got.how, len(b), len(want.log))
				}
				// Durations come from the recorders' clock, which the
				// wire encoding leaves out.
				if !slices.Equal(durations(log), want.durations) {
					t.Fatalf("%s %v %s: fanout perturbed the chunk durations", c.name, mode, got.how)
				}
			}
			if !reflect.DeepEqual(solo.Stats.Snapshot(), want.stats) {
				t.Errorf("%s %v: the stats snapshot differs from the direct recorder's", c.name, mode)
			}
			for name, v := range counters(want.stats) {
				if strings.HasPrefix(name, "record.") {
					sum[name] += v
				} else {
					sum[name] = v
				}
			}
		}
		if got := counters(multi.Stats.Snapshot()); !reflect.DeepEqual(got, sum) {
			t.Errorf("%s together: counters %v, want the direct runs' %v", c.name, got, sum)
		}
	}
}

func TestReplaySlowdownPositiveAndBounded(t *testing.T) {
	p, _ := trace.ProfileByName("ocean")
	w := p.Generate(8, 500, 8)
	rr := recordOne(t, w, 8, record.ModeKarma, record.ModeGranule)
	for _, mode := range []record.Mode{record.ModeKarma, record.ModeGranule} {
		res, err := Replay(rr, mode, 0)
		if err != nil {
			t.Fatal(err)
		}
		sd := rr.Slowdown(res)
		if sd < -0.25 {
			t.Errorf("%v: replay faster than native by %.1f%%: timing model broken", mode, -sd*100)
		}
		// The synthetic traces are communication-dense (see DESIGN.md);
		// the bound here only guards against pathological serialization.
		if sd > 12.0 {
			t.Errorf("%v: replay slowdown %.0f%% implausibly large", mode, sd*100)
		}
		t.Logf("%v slowdown: %.1f%%", mode, sd*100)
	}
}
