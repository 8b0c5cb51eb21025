package main

import (
	"fmt"
	"runtime"
	rtmetrics "runtime/metrics"
	"strings"
	"time"

	"pacifier/internal/core"
	"pacifier/internal/debug"
	"pacifier/internal/harness"
	"pacifier/internal/machine"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// layerStats collects, in a traced run, the per-layer numbers that spans
// alone do not give: work counts and samples too fine to be spans.
type layerStats struct {
	probes      int
	recordSelf  []time.Duration // core.Record minus machine.New and Run
	recordShare []float64
	nativeRun   []time.Duration // machine.Run of the probes
	nativeCyc   int64
	nativeOps   int64
	counts      map[string]int64 // stats-snapshot counts, summed over probes
	rawBytes    int64            // relog sizes, summed over probes
	blobBytes   int64
	replayOps   int64 // ops replayed under replay.run spans
	steps       []time.Duration
	stateBytes  []float64
	checkpoints []float64
	seekFwd     []time.Duration
	seekBack    []time.Duration
	poolUtil    []float64
}

func newLayerStats() *layerStats { return &layerStats{counts: map[string]int64{}} }

// openSession opens a debug session over dl (nil: rr's own log) and
// runs it to the end, as `pacifier debug` does before a user seeks.
func openSession(sc *scope, parent mark, rr *core.RunResult, dl *relog.Log, ls *layerStats) (*debug.Session, error) {
	m := sc.begin("debug.open", parent)
	s, err := core.NewDebugSession(rr, dl, record.ModeGranule, 0)
	sc.end(m)
	if err != nil {
		return nil, err
	}
	m = sc.begin("debug.continue", parent)
	stop := s.Continue()
	sc.end(m)
	if stop.Reason != "end" {
		return nil, fmt.Errorf("Continue stopped early: %s", stop.Reason)
	}
	if ls != nil {
		ls.checkpoints = append(ls.checkpoints, float64(s.Checkpoints()))
	}
	return s, nil
}

func seek(sc *scope, parent mark, s *debug.Session, pos int64, ls *layerStats) error {
	from := s.Pos()
	m := sc.begin("debug.seek", parent)
	err := s.SeekTo(pos)
	d := sc.end(m)
	if err == nil && s.Pos() != pos {
		err = fmt.Errorf("SeekTo(%d) stopped at %d", pos, s.Pos())
	}
	if ls != nil {
		if pos < from {
			ls.seekBack = append(ls.seekBack, d)
		} else {
			ls.seekFwd = append(ls.seekFwd, d)
		}
	}
	return err
}

// probe calls every layer once on this workload's input, so a traced run
// of any workload gives every per-layer number. It runs between
// iterations, so its own time is in no job's latency.
func (r *run) probe(sc *scope, iter int) error {
	ls := r.layers
	d := r.def
	app := d.app
	if app == "" {
		apps := trace.AppNames()
		app = apps[iter%len(apps)]
	}
	seed := r.vars[iter%len(r.vars)].seed
	pm := sc.begin("probe", mark{})
	defer sc.end(pm)

	w, err := generate(sc, pm, app, d.cores, d.ops, seed)
	if err != nil {
		return err
	}
	opts := d.options(seed)
	mcfg := machine.DefaultConfig(d.cores)
	mcfg.Seed = opts.Seed
	mcfg.Mem.Atomic = opts.Atomic
	m := sc.begin("machine.new", pm)
	mach, err := machine.New(mcfg, w, nil)
	newDur := sc.end(m)
	if err != nil {
		return fmt.Errorf("machine.New: %w", err)
	}
	m = sc.begin("machine.run", pm)
	err = mach.Run(opts.MaxCycles)
	runDur := sc.end(m)
	if err != nil {
		return fmt.Errorf("machine.Run: %w", err)
	}
	m = sc.begin("core.record", pm)
	rr, err := core.Record(w, opts, d.recordModes()...)
	recDur := sc.end(m)
	if err != nil {
		return fmt.Errorf("record: %w", err)
	}
	// record.self_ms subtracts the native run from the recording run; it
	// means nothing unless the two simulate the same execution.
	if rr.NativeCycles != mach.Cycles() || rr.MemOps != mach.TotalMemOps() {
		return fmt.Errorf("native run: %d cycles, %d memops; recorded run: %d cycles, %d memops",
			mach.Cycles(), mach.TotalMemOps(), rr.NativeCycles, rr.MemOps)
	}
	ls.probes++
	self := recDur - newDur - runDur
	ls.recordSelf = append(ls.recordSelf, self)
	ls.recordShare = append(ls.recordShare, float64(self)/float64(recDur))
	ls.nativeRun = append(ls.nativeRun, runDur)
	ls.nativeCyc += int64(mach.Cycles())
	ls.nativeOps += mach.TotalMemOps()
	addCounts(ls.counts, rr.Stats.Snapshot())

	gra := rr.Recording(record.ModeGranule)
	raw := encode(sc, pm, gra.Log)
	blob := compress(sc, pm, raw)
	ls.rawBytes += int64(len(raw))
	ls.blobBytes += int64(len(blob))
	dl, err := load(sc, pm, blob, raw, true)
	if err != nil {
		return err
	}
	if _, err := r.replayLog(sc, pm, rr, dl); err != nil {
		return err
	}
	if err := r.steppedReplay(sc, pm, rr, gra.Log, w); err != nil {
		return err
	}

	if d.kind != "sweep" { // the sweep's own loop already times the harness
		outs, _ := runHarness(sc, pm, []harness.JobSpec{d.jobSpec(app, seed)}, 1, ls)
		if bad := harness.Errs(outs); len(bad) > 0 {
			return fmt.Errorf("harness job: %v", bad[0].Err)
		}
	}

	s, err := openSession(sc, pm, rr, nil, ls)
	if err != nil {
		return err
	}
	hash, err := s.SnapshotHash()
	if err != nil {
		return err
	}
	rng := sim.NewRNG(seed ^ uint64(iter)<<20)
	for i := 0; i < 8; i++ {
		if err := seek(sc, pm, s, int64(rng.Intn(int(s.Total())+1)), ls); err != nil {
			return err
		}
	}
	if err := seek(sc, pm, s, s.Total(), ls); err != nil {
		return err
	}
	if end, err := s.SnapshotHash(); err != nil || end != hash {
		return fmt.Errorf("SeekTo(total) does not return to the state Continue reached (%v)", err)
	}
	return nil
}

// steppedReplay replays log one Stepper.Step at a time, timing each step,
// capturing the state at quarter points and restoring each capture.
func (r *run) steppedReplay(sc *scope, parent mark, rr *core.RunResult, log *relog.Log, w *trace.Workload) error {
	ls := r.layers
	st, err := replay.NewStepper(log, w, rr.Records, replay.Config{Stats: sim.NewStats()})
	if err != nil {
		return err
	}
	total := int64(st.TotalChunks())
	var states [][]byte
	m := sc.begin("replay.stepped", parent)
	for {
		t := time.Now()
		_, ok := st.Step()
		if !ok {
			break
		}
		ls.steps = append(ls.steps, time.Since(t))
		if n := int64(len(states) + 1); n < 4 && st.Pos() >= max(1, total*n/4) {
			cm := sc.begin("replay.capture", m)
			b, err := st.CaptureState().Marshal()
			sc.end(cm)
			if err != nil {
				return fmt.Errorf("capture: %w", err)
			}
			states = append(states, b)
		}
	}
	sc.end(m)
	if res, _ := st.Finish(); exact(res) != nil {
		return fmt.Errorf("stepped replay: %w", exact(res))
	}
	for _, b := range states {
		ls.stateBytes = append(ls.stateBytes, float64(len(b)))
		rm := sc.begin("replay.restore", parent)
		s, err := replay.UnmarshalState(b)
		if err == nil {
			err = st.RestoreState(s)
		}
		sc.end(rm)
		if err != nil {
			return fmt.Errorf("restore: %w", err)
		}
	}
	return nil
}

// counted maps each per-layer count to the stats-snapshot names it sums.
// A name ending in "." sums every counter or histogram with that prefix;
// a histogram contributes its sample count.
var counted = []struct {
	metric, unit string
	names        []string
}{
	{"l1.misses", "count", []string{"l1.load_misses", "l1.store_misses", "l1.rmw_misses"}},
	{"l2.misses", "count", []string{"l2.misses"}},
	{"noc.messages", "count", []string{"noc.messages"}},
	{"noc.hop_cycles", "cycles", []string{"noc.hop_cycles"}},
	{"coherence.inv_acks", "count", []string{"coherence.inv_ack_latency"}},
	{"cpu.sb_drains", "count", []string{"cpu.sb_drain_delay"}},
	{"record.chunks", "count", []string{"record.chunk_ops."}},
	{"record.dset_entries", "count", []string{"record.dset_entries"}},
	{"record.scv_logged", "count", []string{"record.scv_logged"}},
	{"record.vlog_entries", "count", []string{"record.vlog_entries"}},
	{"record.deps", "count", []string{"record.deps."}},
	{"record.cyclic_terminations", "count", []string{"record.cyclic_terminations"}},
}

func addCounts(into map[string]int64, snap *sim.Snapshot) {
	match := func(name string, add int64) {
		for _, c := range counted {
			for _, n := range c.names {
				if name == n || (strings.HasSuffix(n, ".") && strings.HasPrefix(name, n)) {
					into[c.metric] += add
				}
			}
		}
	}
	for _, c := range snap.Counters {
		match(c.Name, c.Value)
	}
	for _, h := range snap.Histograms {
		match(h.Name, h.Count)
	}
}

// goStats samples the Go runtime's allocation and GC counters.
type goStats struct {
	totalAlloc, mallocs uint64
	numGC               uint32
	gcCPU, allCPU       float64
}

func readGoStats() goStats {
	var ms runtime.MemStats
	runtime.ReadMemStats(&ms)
	samples := []rtmetrics.Sample{
		{Name: "/cpu/classes/gc/total:cpu-seconds"},
		{Name: "/cpu/classes/total:cpu-seconds"},
	}
	rtmetrics.Read(samples)
	return goStats{totalAlloc: ms.TotalAlloc, mallocs: ms.Mallocs, numGC: ms.NumGC,
		gcCPU: samples[0].Value.Float64(), allCPU: samples[1].Value.Float64()}
}

// layerMetrics turns the traced loop's spans and counts into the
// per-layer metrics. Set-up spans (iteration < 0) are left out: they
// belong to set-up, which the loop's counts do not cover. The Go runtime
// numbers come from plain, the untraced half of the run.
func layerMetrics(all []span, wl string, ls *layerStats, plain phase, overhead float64) metrics {
	var spans []span
	for _, sp := range all {
		if sp.Workload == wl && sp.Iter >= 0 {
			spans = append(spans, sp)
		}
	}
	p50 := func(name string) float64 { return ms(median(durations(spans, name))) }
	probes := float64(ls.probes)
	out := metrics{}
	for _, n := range []string{"trace.generate", "machine.new", "machine.run", "core.record",
		"relog.encode", "relog.compress", "relog.decompress", "relog.decode", "relog.validate",
		"replay.run", "replay.capture", "replay.restore", "debug.open", "debug.continue"} {
		out.set(n+"_ms", p50(n), "ms")
	}
	out.set("machine.ns_per_cycle", ratio(float64(sum(ls.nativeRun)), float64(ls.nativeCyc)), "ns")
	out.set("machine.ns_per_memop", ratio(float64(sum(ls.nativeRun)), float64(ls.nativeOps)), "ns")
	for _, c := range counted {
		out.set(c.metric, ratio(float64(ls.counts[c.metric]), probes), c.unit)
	}
	out.set("record.self_ms", ms(median(ls.recordSelf)), "ms")
	out.set("record.share", mean(ls.recordShare), "ratio")
	out.set("relog.compress_ratio", ratio(float64(ls.rawBytes), float64(ls.blobBytes)), "ratio")
	out.set("relog.log_kb", ratio(float64(ls.rawBytes)/1024, probes), "KB")
	out.set("replay.ns_per_op", ratio(float64(sum(durations(spans, "replay.run"))), float64(ls.replayOps)), "ns")
	out.set("replay.step_us_p50", float64(percentile(ls.steps, 50).Nanoseconds())/1e3, "us")
	out.set("replay.step_us_p90", float64(percentile(ls.steps, 90).Nanoseconds())/1e3, "us")
	out.set("replay.state_kb", mean(ls.stateBytes)/1024, "KB")
	out.set("debug.checkpoints", mean(ls.checkpoints), "count")
	out.set("debug.seek_fwd_ms_p50", ms(median(ls.seekFwd)), "ms")
	out.set("debug.seek_back_ms_p50", ms(median(ls.seekBack)), "ms")
	out.set("harness.job_ms_p50", p50("harness.job"), "ms")
	out.set("harness.pool_util", mean(ls.poolUtil), "ratio")
	a, b := plain.before, plain.after
	out.set("go.mallocs_per_memop", ratio(float64(b.mallocs-a.mallocs), float64(plain.memops)), "count")
	out.set("go.gc_cycles_per_job", ratio(float64(b.numGC-a.numGC), float64(len(plain.jobs))), "count")
	out.set("go.gc_cpu_frac", ratio(b.gcCPU-a.gcCPU, b.allCPU-a.allCPU), "ratio")
	out.set("bench.trace_overhead", overhead, "ratio")
	out.set("bench.host_speed", hostSpeed(plain), "ratio")
	return out
}
