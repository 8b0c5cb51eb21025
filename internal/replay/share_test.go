package replay_test

import (
	"reflect"
	"strings"
	"sync"
	"testing"

	"pacifier/internal/core"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// recordAll records w once under every recorder mode.
func recordAll(t *testing.T, w *trace.Workload, seed uint64, atomic bool) *core.RunResult {
	t.Helper()
	opts := core.DefaultOptions()
	opts.Seed = seed
	opts.Atomic = atomic
	rr, err := core.Record(w, opts, record.AllModes()...)
	if err != nil {
		t.Fatal(err)
	}
	return rr
}

// decoded returns a fresh decoded copy of mode's log, as a saved log
// loads: without chunk durations.
func decoded(t *testing.T, rr *core.RunResult, mode record.Mode) *relog.Log {
	t.Helper()
	l, err := relog.DecodeLog(relog.EncodeLog(rr.Recording(mode).Log))
	if err != nil {
		t.Fatal(err)
	}
	return l
}

// TestSharedIndexOnePerRecording replays one recording the way the
// debug-seek benchmark does, under every mode: five batch replays of a
// loaded log, then a debug session that continues to the end and seeks
// fifteen times. All of it reads one op index, built once for the
// RunResult, and every result equals a replay of the same log with a
// private index, divergences included.
func TestSharedIndexOnePerRecording(t *testing.T) {
	radiosity, err := trace.ProfileByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	ocean, err := trace.ProfileByName("ocean")
	if err != nil {
		t.Fatal(err)
	}
	diverged := false
	for _, tc := range []struct {
		name   string
		w      *trace.Workload
		seed   uint64
		atomic bool
	}{
		{"radiosity-16p-nonatomic", radiosity.Generate(16, 2000, 3), 3, false},
		{"ocean-16p-atomic", ocean.Generate(16, 2000, 4), 4, true},
		{"sb", trace.StoreBuffering(), 2, true},
	} {
		t.Run(tc.name, func(t *testing.T) {
			rr := recordAll(t, tc.w, tc.seed, tc.atomic)
			type replayed struct {
				mode record.Mode
				what string
				log  *relog.Log
				res  *replay.Result
			}
			var got []replayed
			builds, restore := replay.CountIndexBuilds()
			defer restore()
			rng := sim.NewRNG(5)
			for _, mode := range record.AllModes() {
				log := decoded(t, rr, mode)
				for i := 0; i < 5; i++ {
					res, err := core.ReplayExternal(rr, log, mode, nil)
					if err != nil {
						t.Fatalf("%v replay %d: %v", mode, i, err)
					}
					got = append(got, replayed{mode, "batch replay", log, res})
				}
				ses, err := core.NewDebugSession(rr, log, mode, 0)
				if err != nil {
					t.Fatalf("%v session: %v", mode, err)
				}
				ses.Continue()
				got = append(got, replayed{mode, "session after Continue", log, ses.Result()})
				for i := 0; i < 15; i++ {
					if err := ses.SeekTo(int64(rng.Intn(int(ses.Total()) + 1))); err != nil {
						t.Fatalf("%v seek %d: %v", mode, i, err)
					}
				}
				if err := ses.SeekTo(ses.Total()); err != nil {
					t.Fatal(err)
				}
				got = append(got, replayed{mode, "session after 15 seeks", log, ses.Result()})
			}
			if n := builds(); n != 1 {
				t.Fatalf("%d op indexes built for one recording, want 1", n)
			}
			restore()
			for _, g := range got {
				want, err := replay.Run(g.log, rr.Workload, rr.Records, replay.Config{})
				if err != nil {
					t.Fatal(err)
				}
				if !reflect.DeepEqual(g.res, want) {
					t.Errorf("%v %s with the shared index: %+v\nwith a private index: %+v", g.mode, g.what, g.res, want)
				}
				diverged = diverged || !want.Deterministic()
			}
		})
	}
	if !diverged {
		t.Error("no replay diverged, so the comparisons never covered mismatches or order breaks")
	}
}

// TestIndexFromAnotherWorkloadRejected: a stepper refuses an op index
// built from any workload but the one it replays, even an identical copy.
func TestIndexFromAnotherWorkloadRejected(t *testing.T) {
	rr := recordAll(t, trace.StoreBuffering(), 1, true)
	log := rr.Recording(record.ModeGranule).Log
	twin := &trace.Workload{Name: rr.Workload.Name, Threads: rr.Workload.Threads}
	for name, w := range map[string]*trace.Workload{"another workload": trace.MessagePassing(), "a copy": twin} {
		idx, err := replay.IndexOps(w)
		if err != nil {
			t.Fatal(err)
		}
		_, err = replay.NewStepper(log, rr.Workload, rr.Records, replay.Config{Index: idx})
		if err == nil || !strings.Contains(err.Error(), "another workload") {
			t.Errorf("index built from %s: got %v, want an error", name, err)
		}
	}
	idx, err := replay.IndexOps(rr.Workload)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := replay.NewStepper(log, rr.Workload, rr.Records, replay.Config{Index: idx}); err != nil {
		t.Fatalf("index built from the replayed workload: %v", err)
	}
}

// TestConcurrentReplaysShareOneIndex races four goroutines over one
// fresh RunResult: two open debug sessions and run them to the end, two
// round-trip a log through the codec and replay it. The first to arrive
// builds the op index and the others wait for it; run under -race, this
// shows the index is built once and only read afterwards.
func TestConcurrentReplaysShareOneIndex(t *testing.T) {
	radiosity, err := trace.ProfileByName("radiosity")
	if err != nil {
		t.Fatal(err)
	}
	// want comes from a twin recording, so the one raced over is fresh.
	want, err := core.Replay(recordAll(t, radiosity.Generate(16, 1000, 6), 6, false), record.ModeGranule, 0)
	if err != nil {
		t.Fatal(err)
	}
	rr := recordAll(t, radiosity.Generate(16, 1000, 6), 6, false)
	builds, restore := replay.CountIndexBuilds()
	defer restore()
	var wg sync.WaitGroup
	errs := make([]error, 4)
	results := make([]*replay.Result, 4)
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			if g%2 == 1 {
				errs[g] = core.VerifyRoundTrip(rr, record.ModeGranule)
				return
			}
			ses, err := core.NewDebugSession(rr, nil, record.ModeGranule, 0)
			if err != nil {
				errs[g] = err
				return
			}
			ses.Continue()
			results[g] = ses.Result()
		}(g)
	}
	wg.Wait()
	for g, err := range errs {
		if err != nil {
			t.Fatalf("goroutine %d: %v", g, err)
		}
	}
	if n := builds(); n != 1 {
		t.Fatalf("%d op indexes built by four concurrent replays of one recording, want 1", n)
	}
	for _, g := range []int{0, 2} {
		if !reflect.DeepEqual(results[g], want) {
			t.Errorf("session %d: %+v, want %+v", g, results[g], want)
		}
	}
}
