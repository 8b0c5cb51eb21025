package core

import (
	"bytes"
	"math/rand/v2"
	"runtime"
	"runtime/debug"
	"strings"
	"sync"
	"testing"
	"time"

	"pacifier/internal/cache"
	"pacifier/internal/coherence"
	"pacifier/internal/machine"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// leftGoroutines waits up to a second for recorder goroutines that are
// returning to be gone, then reports how many remain and whether there
// are more goroutines than base. The first catches a leaked sink even
// when an earlier test's goroutine was still exiting as base was taken.
func leftGoroutines(base int) (sinks int, more bool) {
	count := func() int {
		buf := make([]byte, 1<<20)
		return strings.Count(string(buf[:runtime.Stack(buf, true)]), "core.(*sink).run(")
	}
	sinks = count()
	for deadline := time.Now().Add(time.Second); sinks > 0 && time.Now().Before(deadline); {
		time.Sleep(time.Millisecond)
		sinks = count()
	}
	return sinks, runtime.NumGoroutine() > base
}

// badDispatch injects an out-of-order dispatch: the first recorder to
// receive it panics ("record: PW dispatch out of order").
func badDispatch(o machine.Observer) { o.OnDispatch(0, 99, trace.Read, 0) }

func TestRecordPastMaxCyclesJoinsRecorders(t *testing.T) {
	// A run that exceeds MaxCycles returns its error only after the
	// recorders' goroutine has drained the stream and exited; with
	// several batches still in flight it must not be left blocked.
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(8, 2000, 1)
	base := runtime.NumGoroutine()
	for _, atomic := range []bool{true, false} {
		opts := DefaultOptions()
		opts.Atomic = atomic
		opts.MaxCycles = 30_000
		if _, err := Record(w, opts, record.ModeKarma, record.ModeGranule); err == nil {
			t.Fatalf("atomic=%v: a run past MaxCycles recorded without error", atomic)
		}
	}
	if sinks, more := leftGoroutines(base); sinks > 0 || more {
		t.Fatalf("after failed recordings: %d recorder goroutines left, more goroutines than before: %v",
			sinks, more)
	}
}

func TestRecorderPanicReachesCaller(t *testing.T) {
	// A recorder panics on the recorders' goroutine; Record must raise it
	// on the caller's, whether the machine learns of it mid-run (it
	// waits for a batch the dead sink never returns) or at the join (a
	// run shorter than the batches in flight), and leave no goroutine.
	p, _ := trace.ProfileByName("radiosity")
	for _, c := range []struct {
		name  string
		w     *trace.Workload
		flush bool // raised from the machine's handoff, mid-run
	}{
		{"at the join", trace.StoreBuffering(), false},
		{"mid-run", p.Generate(8, 2000, 1), true},
	} {
		base := runtime.NumGoroutine()
		func() {
			defer func() {
				r := recover()
				err, ok := r.(error)
				if !ok || !strings.Contains(err.Error(), "record: PW dispatch out of order") {
					t.Fatalf("%s: recovered %v, want the recorder's panic", c.name, r)
				}
				// The deferred call runs on top of the panicking frames.
				if got := strings.Contains(string(debug.Stack()), "(*fanout).flush"); got != c.flush {
					t.Fatalf("%s: raised from the machine's handoff: %v, want %v", c.name, got, c.flush)
				}
			}()
			recordRun(c.w, DefaultOptions(), []record.Mode{record.ModeGranule}, badDispatch)
			t.Fatalf("%s: Record returned despite a recorder panic", c.name)
		}()
		if sinks, more := leftGoroutines(base); sinks > 0 || more {
			t.Fatalf("%s: %d recorder goroutines left, more goroutines than before: %v",
				c.name, sinks, more)
		}
	}
}

// TestFanoutWindowsAnswerAsRecorder drives the fanout and a recorder with
// the same random sequence of the calls that move a pending window —
// dispatch, load value, perform, and the Section 3.2 hold and release —
// and requires the fanout to answer every query, on every core and
// line, after every call, as the recorder does.
func TestFanoutWindowsAnswerAsRecorder(t *testing.T) {
	const cores, lines = 2, 3
	rng := rand.New(rand.NewPCG(1, 2))
	fo := newFanout(cores, false, 4)
	fo.start(sim.NewEngine(), &sink{})
	defer fo.stop()
	ref := record.NewRecorder(record.DefaultConfig(cores, record.ModeGranule), nil, nil)
	type op struct {
		sn   coherence.SN
		kind trace.OpKind
	}
	next := []coherence.SN{1, 1}
	pending := make([][]op, cores) // dispatched, not performed
	var held [cores][]coherence.SN
	queries := 0
	for step := 0; step < 20000; step++ {
		pid := rng.IntN(cores)
		switch rng.IntN(5) {
		case 0, 1:
			kind := trace.Read
			if rng.IntN(3) == 0 {
				kind = trace.Write
			}
			addr := coherence.Addr(rng.IntN(lines) * 32)
			fo.OnDispatch(pid, next[pid], kind, addr)
			ref.OnDispatch(pid, next[pid], kind, addr)
			pending[pid] = append(pending[pid], op{next[pid], kind})
			next[pid]++
		case 2: // perform any pending operation: loads bind out of order
			if len(pending[pid]) == 0 {
				continue
			}
			i := rng.IntN(len(pending[pid]))
			o := pending[pid][i]
			pending[pid] = append(pending[pid][:i], pending[pid][i+1:]...)
			if o.kind == trace.Read {
				val := rng.Uint64()
				fo.OnLoadValue(pid, o.sn, 0, val)
				ref.OnLoadValue(pid, o.sn, 0, val)
			}
			fo.OnPerformed(pid, o.sn)
			ref.OnPerformed(pid, o.sn)
		case 3: // an invalidation holds the load its query found
			q := ref.QueryPWForLine(pid, cache.Line(rng.IntN(lines)))
			if !q.HasPerformedLoad {
				continue
			}
			fo.OnHoldPWEntry(pid, q.LoadSN)
			ref.OnHoldPWEntry(pid, q.LoadSN)
			held[pid] = append(held[pid], q.LoadSN)
		case 4: // the writer's response releases it
			if len(held[pid]) == 0 {
				continue
			}
			sn := held[pid][0]
			held[pid] = held[pid][1:]
			fo.OnReleasePWEntry(pid, sn)
			ref.OnReleasePWEntry(pid, sn)
		}
		for p := 0; p < cores; p++ {
			for l := cache.Line(0); l < lines; l++ {
				got, want := fo.QueryPWForLine(p, l), ref.QueryPWForLine(p, l)
				if got != want {
					t.Fatalf("step %d: core %d line %d: fanout answers %+v, recorder %+v", step, p, l, got, want)
				}
				if want.HasPerformedLoad {
					queries++
				}
			}
		}
	}
	if queries == 0 {
		t.Fatal("no query found a performed load; the script exercises nothing")
	}
}

// TestRecordReusesBatchesAcrossGC: a recording streams through the
// batches the last one left, even after a garbage collection, so it
// allocates none.
func TestRecordReusesBatchesAcrossGC(t *testing.T) {
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(4, 500, 1)
	if _, err := Record(w, DefaultOptions(), record.ModeGranule); err != nil {
		t.Fatal(err)
	}
	runtime.GC()
	allocs, restore := countNewBatches()
	defer restore()
	if _, err := Record(w, DefaultOptions(), record.ModeGranule); err != nil {
		t.Fatal(err)
	}
	if n := allocs(); n != 0 {
		t.Fatalf("a recording after a collection allocated %d stream batches, want 0", n)
	}
}

// TestConcurrentRecordingsShareBatches: recordings running at once, as
// harness workers run them, take and return kept batches concurrently;
// each must still log exactly what a recording on its own logs.
func TestConcurrentRecordingsShareBatches(t *testing.T) {
	p, _ := trace.ProfileByName("radiosity")
	w := p.Generate(4, 2000, 1)
	opts := DefaultOptions()
	opts.Atomic = false
	encode := func() ([]byte, error) {
		rr, err := Record(w, opts, record.ModeKarma, record.ModeGranule)
		if err != nil {
			return nil, err
		}
		return relog.EncodeLog(rr.Recording(record.ModeGranule).Log), nil
	}
	want, err := encode()
	if err != nil {
		t.Fatal(err)
	}
	const workers = 4
	got := make([][]byte, workers)
	errs := make([]error, workers)
	var wg sync.WaitGroup
	for i := 0; i < workers; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			got[i], errs[i] = encode()
		}(i)
	}
	wg.Wait()
	for i := range got {
		if errs[i] != nil {
			t.Fatalf("recording %d: %v", i, errs[i])
		}
		if !bytes.Equal(got[i], want) {
			t.Fatalf("recording %d of %d run at once logged %d bytes unlike the lone recording's %d",
				i, workers, len(got[i]), len(want))
		}
	}
}
