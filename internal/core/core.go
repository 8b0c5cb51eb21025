// Package core is Pacifier end to end: it wires a workload into the
// simulated machine, attaches one or more recorders (so that Karma, the
// Volition oracle and Granule observe the *same* execution, as the
// paper's comparisons require), runs the recording, and drives replay
// with determinism verification.
package core

import (
	"fmt"
	"sync"

	"pacifier/internal/cpu"
	"pacifier/internal/debug"
	"pacifier/internal/machine"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// Options configures a recording run.
type Options struct {
	Seed        uint64
	Atomic      bool  // write atomicity (the paper's evaluation: true)
	MaxChunkOps int64 // chunk capacity bound
	MaxCycles   sim.Cycle
	// Tracer, when non-nil, receives record-side structured events
	// from every layer of the machine and every attached recorder.
	Tracer *obs.Tracer
	// ProfileCycles enables the cycle-accounting profiler: every layer
	// of the machine and every recorder attributes stall and service
	// cycles to prof.* counters in the run's stats registry (see
	// internal/prof).
	ProfileCycles bool
}

// DefaultOptions returns the evaluation configuration of Section 6.1.
func DefaultOptions() Options {
	return Options{Seed: 1, Atomic: true, MaxChunkOps: 2048, MaxCycles: 200_000_000}
}

// Recording is the output of one recorder mode over a run.
type Recording struct {
	Mode     record.Mode
	Log      *relog.Log
	LogStats relog.Stats
	LHBMax   int
	PWMax    int
	// ProfCycles is the measured recorder-induced cycle total (0 unless
	// Options.ProfileCycles was set): per-event costs accumulated at the
	// live recorder event sites, including squashes the end-of-run cost
	// model never sees.
	ProfCycles int64
}

// RunResult is one recorded execution with one or more recordings.
//
// Replays of one RunResult must not run concurrently: Replay,
// ReplayTraced and ReplayExternal observe their stall histogram into
// Stats, and ReplayExternal and NewDebugSession write chunk durations
// into the external log they are given. The op index they share is
// only read, so sharing it is safe.
type RunResult struct {
	Workload     *trace.Workload
	Cores        int
	NativeCycles sim.Cycle
	MemOps       int64
	Records      [][]cpu.ExecRecord
	Recordings   []*Recording
	Stats        *sim.Stats
	// Profiled records whether the run was made with ProfileCycles; the
	// replay entry points propagate it so replays of a profiled run
	// produce a replay-side attribution report (replay.Result.Prof).
	Profiled bool

	// index is Workload's replay op index. The first replay or debug
	// session of the run builds it and every later one shares it; it lives
	// as long as the RunResult and is never written after it is built.
	indexOnce sync.Once
	index     *replay.OpIndex
}

// Recording returns the recording for the given mode (nil if absent).
func (rr *RunResult) Recording(mode record.Mode) *Recording {
	for _, r := range rr.Recordings {
		if r.Mode == mode {
			return r
		}
	}
	return nil
}

// Record executes the workload once on the Table 4 machine and records
// it simultaneously under every requested mode.
//
// The machine runs on the calling goroutine and the recorders on a
// second one, fed by an ordered event stream (stream.go): the logs,
// stats and trace events are the ones the recorders would produce
// attached to the machine directly. A recorder panic is raised again on
// the calling goroutine.
func Record(w *trace.Workload, opts Options, modes ...record.Mode) (*RunResult, error) {
	return recordRun(w, opts, modes, nil)
}

// recordRun is Record. before, when non-nil, is called with the machine's
// observer just before the machine runs (tests use it to inject
// events).
func recordRun(w *trace.Workload, opts Options, modes []record.Mode,
	before func(machine.Observer)) (*RunResult, error) {

	if len(modes) == 0 {
		return nil, fmt.Errorf("core: no recorder modes requested")
	}
	n := len(w.Threads)
	mcfg := machine.DefaultConfig(n)
	mcfg.Seed = opts.Seed
	mcfg.Mem.Atomic = opts.Atomic
	mcfg.Tracer = opts.Tracer
	mcfg.Profile = opts.ProfileCycles

	fo := newFanout(n, opts.Atomic, record.DefaultConfig(n, modes[0]).PWSize)
	m, err := machine.New(mcfg, w, fo)
	if err != nil {
		return nil, err
	}
	// The recorders run on the sink's goroutine: they read the sink's
	// clock, count into a registry of their own and trace into a buffer
	// of their own. Both are folded into the run's once they finish.
	sk := &sink{recs: make([]*record.Recorder, len(modes))}
	rstats := sim.NewStats()
	rtrace := opts.Tracer.Buffer()
	for i, mode := range modes {
		rcfg := record.DefaultConfig(n, mode)
		if opts.MaxChunkOps > 0 {
			rcfg.MaxChunkOps = opts.MaxChunkOps
		}
		rcfg.Tracer = rtrace
		rcfg.Profile = opts.ProfileCycles
		sk.recs[i] = record.NewRecorder(rcfg, &sk.clock, rstats)
	}

	limit := opts.MaxCycles
	if limit <= 0 {
		limit = 200_000_000
	}
	fo.start(m.Eng, sk)
	defer fo.stop() // a panic out of the machine must not strand the sink
	if before != nil {
		before(fo)
	}
	runErr := m.Run(limit)
	fo.stop()
	sk.rethrow()
	if runErr != nil {
		return nil, runErr
	}

	rr := &RunResult{
		Workload:     w,
		Cores:        n,
		NativeCycles: m.Cycles(),
		MemOps:       m.TotalMemOps(),
		Stats:        m.Stats,
		Profiled:     opts.ProfileCycles,
	}
	for pid := 0; pid < n; pid++ {
		rr.Records = append(rr.Records, m.Records(pid))
	}
	// Finish closes the open chunks at the machine's final cycle, as it
	// would attached to the machine.
	sk.clock.now = m.Eng.Now()
	for i, mode := range modes {
		rec := sk.recs[i]
		log := rec.Finish()
		rr.Recordings = append(rr.Recordings, &Recording{
			Mode:       mode,
			Log:        log,
			LogStats:   log.ComputeStats(),
			LHBMax:     rec.MaxLHBAcrossCores(),
			PWMax:      maxPW(rec, n),
			ProfCycles: rec.ProfiledCycles(),
		})
	}
	m.Stats.Fold(rstats)
	opts.Tracer.Fold(rtrace)
	return rr, nil
}

// opIndex returns the run's shared replay op index, building it on first
// use. When the workload cannot be indexed it returns nil: each replay
// then builds its own index, and NewStepper reports the error after its
// log checks, as an unshared replay would.
func (rr *RunResult) opIndex() *replay.OpIndex {
	rr.indexOnce.Do(func() { rr.index, _ = replay.IndexOps(rr.Workload) })
	return rr.index
}

// ProfReport decodes the run's prof.* counters into a per-core,
// per-layer cycle breakdown. Empty unless Options.ProfileCycles was set.
func (rr *RunResult) ProfReport() *prof.Report { return prof.FromStats(rr.Stats) }

// MeasuredRecordSlowdown returns the measured record-phase slowdown of
// one recording as a fraction (0.02 = 2%): the recorder's live
// attributed stall cycles over the native execution cycles. The modeled
// counterpart is record.RecordSlowdown.
func (rr *RunResult) MeasuredRecordSlowdown(rec *Recording) float64 {
	if rr.NativeCycles == 0 {
		return 0
	}
	return float64(rec.ProfCycles) / float64(rr.NativeCycles)
}

func maxPW(r *record.Recorder, n int) int {
	m := 0
	for pid := 0; pid < n; pid++ {
		if v := r.PWMax(pid); v > m {
			m = v
		}
	}
	return m
}

// Replay replays the recording of the given mode and verifies it against
// the recorded execution. Replay stall histograms accumulate into the
// run's stats registry, so replays of one RunResult must not run
// concurrently.
func Replay(rr *RunResult, mode record.Mode, scanSeed uint64) (*replay.Result, error) {
	return ReplayTraced(rr, mode, scanSeed, nil)
}

// ReplayTraced is Replay with a replay-side event tracer attached (nil
// behaves exactly like Replay). Like Replay, it writes the run's stats
// registry and must not run concurrently with another replay of rr.
func ReplayTraced(rr *RunResult, mode record.Mode, scanSeed uint64, tr *obs.Tracer) (*replay.Result, error) {
	rec := rr.Recording(mode)
	if rec == nil {
		return nil, fmt.Errorf("core: no recording for mode %v", mode)
	}
	return replay.Run(rec.Log, rr.Workload, rr.Records,
		replay.Config{ScanSeed: scanSeed, Tracer: tr, Stats: rr.Stats, Profile: rr.Profiled, Index: rr.opIndex()})
}

// ReplayExternal replays an externally supplied (decoded) log against
// this run's workload and recorded outcomes — the divergence explainer's
// entry point: the log under suspicion replays against a freshly
// recorded reference execution. Chunk durations are not part of the
// wire encoding; they are restored best-effort from the reference
// recording of the given mode (by chunk id) so the timing model works.
//
// It writes those durations into log and its stall histogram into
// rr.Stats, so it must not run concurrently with another replay of rr
// or of log.
func ReplayExternal(rr *RunResult, log *relog.Log, mode record.Mode,
	tr *obs.Tracer) (*replay.Result, error) {

	if ref := rr.Recording(mode); ref != nil && log.Cores == rr.Cores {
		restoreDurations(ref.Log, log)
	}
	return replay.Run(log, rr.Workload, rr.Records,
		replay.Config{Tracer: tr, Stats: rr.Stats, Profile: rr.Profiled, Index: rr.opIndex()})
}

// restoreDurations copies chunk durations, which the wire encoding
// omits, from the reference recording onto an external log of the same
// core count, matching chunks by (core, CID). The recorder numbers each
// core's chunks densely from 0, so CID c is ref's chunk c; a chunk the
// reference does not have gets duration 0.
func restoreDurations(ref, log *relog.Log) {
	for pid := 0; pid < log.Cores; pid++ {
		orig := ref.Chunks(pid)
		for _, c := range log.Chunks(pid) {
			c.Duration = 0
			if c.CID >= 0 && c.CID < int64(len(orig)) {
				c.Duration = orig[c.CID].Duration
			}
		}
	}
}

// NewDebugSession opens a time-travel debugging session (internal/debug)
// over log — or, when log is nil, over the run's own recording of mode.
// For an external log, chunk durations are restored from the reference
// recording exactly like ReplayExternal, so the session's timeline
// matches what a batch replay of the same log would model. The session
// verifies against the recorded outcomes and profiles when the run was
// recorded with ProfileCycles.
func NewDebugSession(rr *RunResult, log *relog.Log, mode record.Mode, interval int64) (*debug.Session, error) {
	ref := rr.Recording(mode)
	if log == nil {
		if ref == nil {
			return nil, fmt.Errorf("core: no recording for mode %v", mode)
		}
		log = ref.Log
	} else if ref != nil && log.Cores == rr.Cores {
		restoreDurations(ref.Log, log)
	}
	// Each session gets a private stats registry: the session's stall
	// histogram is part of its checkpointed state, and sharing the run's
	// registry would leak counts between sessions (and between a session
	// and batch replays), making identical positions hash differently.
	return debug.New(log, rr.Workload, rr.Records,
		replay.Config{Stats: sim.NewStats(), Profile: rr.Profiled, Index: rr.opIndex()}, interval)
}

// Slowdown returns the replay slowdown versus native execution for a
// replay result of this run, as a fraction (0.12 = 12%).
func (rr *RunResult) Slowdown(res *replay.Result) float64 {
	if rr.NativeCycles == 0 {
		return 0
	}
	return float64(res.Makespan)/float64(rr.NativeCycles) - 1
}

// LogOverhead returns the log-size increase of a recording over the
// Karma recording of the same run, as a fraction (Figure 11's metric).
// Both recordings must come from the same RunResult.
func LogOverhead(karma, other *Recording) float64 {
	if karma.LogStats.TotalBytes == 0 {
		return 0
	}
	return float64(other.LogStats.TotalBytes)/float64(karma.LogStats.TotalBytes) - 1
}

// VerifyRoundTrip encodes and decodes a log and confirms the decoded
// form replays identically — the full record → serialize → replay path.
func VerifyRoundTrip(rr *RunResult, mode record.Mode) error {
	rec := rr.Recording(mode)
	if rec == nil {
		return fmt.Errorf("core: no recording for mode %v", mode)
	}
	b := relog.EncodeLog(rec.Log)
	decoded, err := relog.DecodeLog(b)
	if err != nil {
		return fmt.Errorf("core: decode: %w", err)
	}
	// Durations are not encoded; copy them so the timing model works.
	for pid := 0; pid < decoded.Cores; pid++ {
		orig := rec.Log.Chunks(pid)
		dec := decoded.Chunks(pid)
		if len(orig) != len(dec) {
			return fmt.Errorf("core: core %d chunk count changed across encode (%d != %d)",
				pid, len(orig), len(dec))
		}
		for i := range dec {
			dec[i].Duration = orig[i].Duration
		}
	}
	res, err := replay.Run(decoded, rr.Workload, rr.Records, replay.Config{Index: rr.opIndex()})
	if err != nil {
		return err
	}
	if !res.Deterministic() {
		return fmt.Errorf("core: decoded log replay diverged: %d mismatches, %d order breaks, %d leftover SSB",
			res.MismatchCount, res.OrderBreaks, res.LeftoverSSB)
	}
	return nil
}
