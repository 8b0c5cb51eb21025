// Package pacifier is a from-scratch reproduction of "Pacifier: Record
// and Replay for Relaxed-Consistency Multiprocessors with Distributed
// Directory Protocol" (Qian, Sahelices, Qian — ISCA 2014).
//
// It provides:
//
//   - a deterministic multicore simulator with a distributed directory
//     MESI protocol, Release Consistency cores, and (optionally)
//     non-atomic writes;
//   - Pacifier's record phase — Karma-style chunking, the Granule SCV
//     detector, the Volition oracle, and Relog's D_set/P_set/Pred logs;
//   - a deterministic replayer with verification against the recording;
//   - the ten SPLASH-2-like workload generators and the litmus tests the
//     paper's figures are built on.
//
// Quick start:
//
//	w := pacifier.App("radiosity", 16, 2000, 1)
//	run, _ := pacifier.Record(w, pacifier.Options{Seed: 1, Atomic: true},
//	    pacifier.Karma, pacifier.Granule)
//	rep, _ := run.Replay(pacifier.Granule)
//	fmt.Println(rep.Deterministic(), run.Slowdown(rep))
package pacifier

import (
	"fmt"

	"pacifier/internal/core"
	"pacifier/internal/debug"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/record"
	"pacifier/internal/relog"
	"pacifier/internal/replay"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// SchemaVersion is the version stamped into every machine-readable
// JSON artifact: metrics snapshots, Chrome trace files, and
// `pacifier verify -json` reports. Downstream tooling gates on it.
const SchemaVersion = sim.SchemaVersion

// Tracer is the session-scoped structured-event sink (see internal/obs).
// A nil *Tracer disables tracing at zero cost.
type Tracer = obs.Tracer

// TraceEvent is one structured event in a Tracer's buffer.
type TraceEvent = obs.Event

// NewTracer returns an enabled tracer labeled label.
func NewTracer(label string) *Tracer { return obs.New(label) }

// ChromeTrace renders a tracer's events as Chrome trace-event JSON
// (Perfetto-loadable): record and replay as processes, cores as
// threads, cycles as timestamps. Identical runs render byte-identically.
func ChromeTrace(tr *Tracer) []byte {
	return obs.ChromeTrace(tr.Events(), record.ModeNames())
}

// WriteTraceFile writes a tracer's Chrome trace atomically (temp file +
// rename): an interrupt can never leave a truncated JSON file.
func WriteTraceFile(path string, tr *Tracer) error {
	return obs.WriteFileAtomic(path, ChromeTrace(tr))
}

// ValidateChromeTrace checks that data is well-formed trace-event JSON;
// used by tests and the CI trace-smoke job.
func ValidateChromeTrace(data []byte) error { return obs.ValidateChromeTrace(data) }

// ChromeTraceWithCycles renders a tracer's events plus Perfetto counter
// tracks ("prof.<component>" per core) carrying a profiled run's cycle
// attribution, sampled at atCycle (normally the run's native cycles).
func ChromeTraceWithCycles(tr *Tracer, rep *CycleReport, atCycle int64) []byte {
	var samples []obs.CounterSample
	for i := range rep.Cores {
		cb := &rep.Cores[i]
		for _, c := range prof.Components() {
			if v := cb.Cycles[c]; v != 0 {
				samples = append(samples, obs.CounterSample{
					Name: "prof." + c.String(), Core: int32(cb.PID), At: atCycle, Value: v})
			}
		}
	}
	return obs.ChromeTraceWithCounters(tr.Events(), record.ModeNames(), samples)
}

// WriteTraceFileWithCycles writes ChromeTraceWithCycles atomically.
func WriteTraceFileWithCycles(path string, tr *Tracer, rep *CycleReport, atCycle int64) error {
	return obs.WriteFileAtomic(path, ChromeTraceWithCycles(tr, rep, atCycle))
}

// MetricsSnapshot is the versioned, deterministic export form of a
// run's statistics (counters, gauges, log-scaled histograms).
type MetricsSnapshot = sim.Snapshot

// WriteMetricsFile writes a metrics snapshot as JSON, atomically.
func WriteMetricsFile(path string, m *MetricsSnapshot) error {
	blob, err := m.Encode()
	if err != nil {
		return err
	}
	return obs.WriteFileAtomic(path, blob)
}

// Divergence pinpoints the first divergent event of a replay (see
// ReplayResult.Divergence).
type Divergence = replay.Divergence

// Explanation is a divergence cross-correlated against the record-side
// event stream (see Explain).
type Explanation = obs.Explanation

// Mode selects a record-phase policy (SCV-D + logging).
type Mode = record.Mode

// The recorder modes of the paper's evaluation (Section 6) and the
// optimization-space ablations (Table 2).
const (
	// Karma is the chunk-DAG baseline with no SCV support; under RC its
	// replay generally diverges (the problem Pacifier solves).
	Karma = record.ModeKarma
	// RAll logs every local reordering (Figure 7a strawman).
	RAll = record.ModeRAll
	// RBound logs all pending instructions at chunk terminations.
	RBound = record.ModeRBound
	// MoveBound is Karma + Move-Bound + Invisi-Bound.
	MoveBound = record.ModeMoveBound
	// Granule is Pacifier's SCV detector: Karma + PMove-Bound +
	// Invisi-Bound (Section 3.5).
	Granule = record.ModeGranule
	// Volition gates Granule's logging with a precise cycle detector —
	// the paper's hypothetical oracle ("Vol").
	Volition = record.ModeVolition
	// CRD detects races online and logs only the racing accesses —
	// Granule's boundaries with a race-directed logging policy.
	CRD = record.ModeCRD
)

// ParseMode maps a figure-style mode name ("karma", "r-all", "r-bound",
// "move", "gra", "vol", "crd") to its Mode; names are matched
// case-insensitively and DESIGN.md's full names ("granule", "volition",
// ...) are accepted as aliases. Mode's String method is its inverse.
func ParseMode(name string) (Mode, error) { return record.ParseMode(name) }

// ModeNames lists every recorder mode's figure-style name.
func ModeNames() []string { return record.ModeNames() }

// CompressLog wraps an encoded log (or any byte stream) in the
// compressed-log container: 64 KiB blocks of greedy LZ matching over the
// already delta+varint-compact wire encoding. Decompression is total
// over untrusted input (every failure wraps ErrCorruptLog), and
// AuditLog, DecodeLogStats and Run.ReplayLog detect the container
// automatically.
func CompressLog(blob []byte) []byte { return relog.Compress(blob) }

// DecompressLog inverts CompressLog. The returned error wraps
// ErrCorruptLog on any framing damage.
func DecompressLog(blob []byte) ([]byte, error) { return relog.Decompress(blob) }

// IsCompressedLog reports whether blob carries the compressed-log
// container (it can never be confused with a raw encoded log).
func IsCompressedLog(blob []byte) bool { return relog.IsCompressed(blob) }

// maybeDecompress transparently unwraps the compressed-log container so
// every log-consuming entry point accepts both forms.
func maybeDecompress(blob []byte) ([]byte, error) {
	if relog.IsCompressed(blob) {
		return relog.Decompress(blob)
	}
	return blob, nil
}

// DecodeLogStats parses a log in the wire encoding (as written by
// EncodedLog / `pacifier -save`), transparently decompressing the
// compressed container, and returns its statistics. It checks only
// wire-level well-formedness; use AuditLog to also check the recorder's
// semantic invariants.
func DecodeLogStats(blob []byte) (LogStats, error) {
	raw, err := maybeDecompress(blob)
	if err != nil {
		return LogStats{}, err
	}
	log, err := relog.DecodeLog(raw)
	if err != nil {
		return LogStats{}, err
	}
	return log.ComputeStats(), nil
}

// Log-rejection sentinels, re-exported from internal/relog so callers
// can classify why AuditLog (or a replay) refused a log file.
var (
	// ErrCorruptLog marks wire-level damage: truncation, inflated
	// counts, fields that do not round-trip.
	ErrCorruptLog = relog.ErrCorrupt
	// ErrInvalidLog marks a log that decoded cleanly but violates a
	// semantic invariant the recorder guarantees (non-monotone
	// timestamps, unresolvable chunk references, out-of-range set
	// offsets, double-claimed delayed stores, ...).
	ErrInvalidLog = relog.ErrInvalid
)

// LogAudit is AuditLog's structured report over a valid log.
type LogAudit struct {
	Bytes         int      // size as given (compressed size if Compressed)
	Compressed    bool     // blob carried the compressed-log container
	RawBytes      int      // decompressed wire-encoding size
	Cores         int      // recorded core count
	PerCoreChunks []int    // chunk count per core
	Stats         LogStats // wire-encoding statistics
}

// AuditLog decodes blob and checks every invariant of the log pipeline:
// the compressed container (when present), the wire format (bounded,
// typed decoding) and the recorder's semantic guarantees
// (relog.Validate). A nil error means the log will either replay or be
// rejected deterministically — it can never crash the replayer. The
// returned error wraps ErrCorruptLog or ErrInvalidLog.
func AuditLog(blob []byte) (*LogAudit, error) {
	compressed := relog.IsCompressed(blob)
	raw, err := maybeDecompress(blob)
	if err != nil {
		return nil, err
	}
	log, err := relog.DecodeLog(raw)
	if err != nil {
		return nil, err
	}
	if err := relog.Validate(log); err != nil {
		return nil, err
	}
	a := &LogAudit{Bytes: len(blob), Compressed: compressed, RawBytes: len(raw),
		Cores: log.Cores, Stats: log.ComputeStats()}
	for pid := 0; pid < log.Cores; pid++ {
		a.PerCoreChunks = append(a.PerCoreChunks, len(log.Chunks(pid)))
	}
	return a, nil
}

// Options configures a recording run.
type Options struct {
	// Seed drives every random choice in the machine (store-buffer
	// delays, lock backoff). Same seed, same workload: identical run.
	Seed uint64
	// Atomic selects write atomicity. The paper's evaluation models
	// atomic writes; set false for the PowerPC/ARM-style non-atomic
	// behaviour that is Pacifier's headline capability.
	Atomic bool
	// MaxChunkOps bounds chunk size (0 = default 2048).
	MaxChunkOps int64
	// MaxCycles bounds the simulation (0 = default 2e8).
	MaxCycles int64
	// Tracer, when non-nil, receives record-side structured events
	// from every layer (chunks, SCV detections, store-buffer drains,
	// MESI transitions, NoC messages). Nil = tracing off at zero cost.
	Tracer *Tracer
	// ProfileCycles enables the cycle-accounting profiler: every layer
	// (L1, directory homes, NoC, cores, recorders) attributes stall and
	// service cycles to per-core prof.* counters in the run's metrics
	// registry. Disabled (the default), the hot paths pay one nil
	// compare.
	ProfileCycles bool
}

// Workload is a multiprocessor program for the simulated machine.
type Workload = trace.Workload

// Run is a recorded execution with one or more recordings attached.
type Run struct {
	inner *core.RunResult
}

// ReplayResult is the outcome of a deterministic replay.
type ReplayResult = replay.Result

// LogStats summarizes a recording's log (sizes under the wire encoding).
type LogStats = relog.Stats

// App generates one of the ten SPLASH-2-like workloads ("barnes",
// "cholesky", "fft", "fmm", "lu", "ocean", "radiosity", "radix",
// "raytrace", "water-nsq") with nThreads threads of about opsPerThread
// memory operations, deterministically from seed. Both sizes must be at
// least 1.
func App(name string, nThreads, opsPerThread int, seed uint64) (*Workload, error) {
	p, err := trace.ProfileByName(name)
	if err != nil {
		return nil, err
	}
	if nThreads < 1 || opsPerThread < 1 {
		return nil, fmt.Errorf("pacifier: app %q needs at least 1 thread and 1 op per thread (got %d threads, %d ops)",
			name, nThreads, opsPerThread)
	}
	return p.Generate(nThreads, opsPerThread, seed), nil
}

// Apps returns the application names in the order the paper's figures
// list them.
func Apps() []string { return trace.AppNames() }

// Litmus returns a named litmus test: "sb" (Dekker/store buffering),
// "mp" (message passing), "wrc", "iriw", or "mp-fenced".
func Litmus(name string) (*Workload, error) {
	switch name {
	case "sb":
		return trace.StoreBuffering(), nil
	case "mp":
		return trace.MessagePassing(), nil
	case "wrc":
		return trace.WRC(), nil
	case "iriw":
		return trace.IRIW(), nil
	case "mp-fenced":
		return trace.MPFenced(), nil
	}
	return nil, fmt.Errorf("pacifier: unknown litmus test %q", name)
}

// Record executes the workload once on the simulated Table 4 machine
// (len(w.Threads) cores) and records it simultaneously under every
// requested mode, so the recordings are directly comparable.
func Record(w *Workload, opts Options, modes ...Mode) (*Run, error) {
	copts := core.DefaultOptions()
	copts.Seed = opts.Seed
	copts.Atomic = opts.Atomic
	copts.Tracer = opts.Tracer
	copts.ProfileCycles = opts.ProfileCycles
	if opts.MaxChunkOps > 0 {
		copts.MaxChunkOps = opts.MaxChunkOps
	}
	if opts.MaxCycles > 0 {
		copts.MaxCycles = sim.Cycle(opts.MaxCycles)
	}
	rr, err := core.Record(w, copts, modes...)
	if err != nil {
		return nil, err
	}
	return &Run{inner: rr}, nil
}

// Replay deterministically re-executes the recording made under mode and
// verifies every load, store and RMW outcome against the original run.
func (r *Run) Replay(mode Mode) (*ReplayResult, error) {
	return core.Replay(r.inner, mode, 0)
}

// ReplayWithScanSeed perturbs the replay scheduler's choice among ready
// chunks; any seed must reproduce identical values.
func (r *Run) ReplayWithScanSeed(mode Mode, seed uint64) (*ReplayResult, error) {
	return core.Replay(r.inner, mode, seed)
}

// ReplayTraced is Replay with a replay-side event tracer attached. The
// same tracer may also have recorded the run (Options.Tracer): the two
// streams then land in one buffer, tagged by side, which is what the
// divergence explainer correlates.
func (r *Run) ReplayTraced(mode Mode, tr *Tracer) (*ReplayResult, error) {
	return core.ReplayTraced(r.inner, mode, 0, tr)
}

// ReplayLog replays an externally supplied encoded log against this
// run's workload and recorded outcomes — the divergence explainer's
// core: a suspect log file replays against a trusted re-recorded
// reference, and the first divergent event lands in
// ReplayResult.Divergence. The blob is audited first (AuditLog) and may
// carry the compressed-log container; chunk durations, which the wire
// format omits, are restored best-effort from this run's recording of
// mode.
func (r *Run) ReplayLog(blob []byte, mode Mode, tr *Tracer) (*ReplayResult, error) {
	raw, err := maybeDecompress(blob)
	if err != nil {
		return nil, err
	}
	log, err := relog.DecodeLog(raw)
	if err != nil {
		return nil, err
	}
	if err := relog.Validate(log); err != nil {
		return nil, err
	}
	return core.ReplayExternal(r.inner, log, mode, tr)
}

// Metrics snapshots the run's statistics registry (counters, gauges,
// histograms) in the versioned, deterministic export form. Replays of
// this run accumulate their stall histograms into the same registry,
// so snapshot after the last replay of interest.
func (r *Run) Metrics() *MetricsSnapshot { return r.inner.Stats.Snapshot() }

// DebugSession is an interactive time-travel replay session: periodic
// deterministic checkpoints, O(checkpoint-interval) seek to any
// position, reverse stepping, breakpoints on chunks/SNs/addresses and
// watchpoints on memory — the machinery behind `pacifier debug`.
type DebugSession = debug.Session

// DebugREPL is the deterministic command interpreter over a
// DebugSession (interactive prompt and scripted CI mode).
type DebugREPL = debug.REPL

// DebugSession opens a time-travel debugging session over an encoded
// log blob — or over this run's own recording of mode when blob is nil.
// The blob may carry the compressed-log container. Durations, which the
// wire format omits, are restored from this run's recording like
// ReplayLog. interval is the checkpoint spacing in chunks (0 = 64).
func (r *Run) DebugSession(blob []byte, mode Mode, interval int64) (*DebugSession, error) {
	var log *relog.Log
	if blob != nil {
		raw, err := maybeDecompress(blob)
		if err != nil {
			return nil, err
		}
		log, err = relog.DecodeLog(raw)
		if err != nil {
			return nil, err
		}
		if err := relog.Validate(log); err != nil {
			return nil, err
		}
	}
	return core.NewDebugSession(r.inner, log, mode, interval)
}

// CycleReport is the decoded per-core, per-layer cycle attribution of a
// profiled run (see Options.ProfileCycles and internal/prof).
type CycleReport = prof.Report

// CycleReport decodes the run's prof.* counters into a per-core,
// per-layer breakdown. Empty unless the run was recorded with
// Options.ProfileCycles.
func (r *Run) CycleReport() *CycleReport { return r.inner.ProfReport() }

// CycleReportFromMetrics decodes the prof.* counters of a metrics
// snapshot (e.g. one written by `pacifier run -metrics`).
func CycleReportFromMetrics(m *MetricsSnapshot) *CycleReport { return prof.FromSnapshot(m) }

// ModeledRecordSlowdown returns the analytic record-phase slowdown for
// a recording's log statistics over the native cycle count — the
// end-of-run cost model the harness figures print, and the comparison
// column for the measured number below.
func ModeledRecordSlowdown(st LogStats, nativeCycles int64) float64 {
	return record.RecordSlowdown(st, st.TotalBytes, nativeCycles)
}

// MeasuredRecordSlowdown returns mode's measured record-phase slowdown
// as a fraction: the recorder's live attributed stall cycles over the
// native cycles. Zero unless recorded with Options.ProfileCycles. The
// modeled counterpart is RecordSlowdown in the harness figures.
func (r *Run) MeasuredRecordSlowdown(mode Mode) float64 {
	if rec := r.inner.Recording(mode); rec != nil {
		return r.inner.MeasuredRecordSlowdown(rec)
	}
	return 0
}

// Explain cross-correlates a merged record+replay event stream around
// its first divergence (nil when the stream shows none).
func Explain(tr *Tracer) *obs.Explanation { return obs.Correlate(tr.Events()) }

// NativeCycles is the recorded execution time in simulated cycles.
func (r *Run) NativeCycles() int64 { return int64(r.inner.NativeCycles) }

// MemOps is the number of memory operations executed.
func (r *Run) MemOps() int64 { return r.inner.MemOps }

// Slowdown returns a replay's slowdown versus native execution as a
// fraction (0.12 = 12%) — the Figure 12 metric.
func (r *Run) Slowdown(res *ReplayResult) float64 { return r.inner.Slowdown(res) }

// LogStats returns the log statistics for mode (zero value if the mode
// was not recorded).
func (r *Run) LogStats(mode Mode) LogStats {
	if rec := r.inner.Recording(mode); rec != nil {
		return rec.LogStats
	}
	return LogStats{}
}

// LogOverhead returns mode's log-size increase over the Karma recording
// of the same run as a fraction — the Figure 11 metric. Both modes must
// have been recorded together.
func (r *Run) LogOverhead(mode Mode) (float64, error) {
	karma := r.inner.Recording(Karma)
	other := r.inner.Recording(mode)
	if karma == nil || other == nil {
		return 0, fmt.Errorf("pacifier: LogOverhead needs both Karma and %v recordings", mode)
	}
	return core.LogOverhead(karma, other), nil
}

// LHBMax returns the maximum Log History Buffer occupancy observed for
// mode — the Figure 13 metric (the paper configures 16 entries).
func (r *Run) LHBMax(mode Mode) int {
	if rec := r.inner.Recording(mode); rec != nil {
		return rec.LHBMax
	}
	return 0
}

// EncodedLog serializes mode's recording to its wire format.
func (r *Run) EncodedLog(mode Mode) ([]byte, error) {
	rec := r.inner.Recording(mode)
	if rec == nil {
		return nil, fmt.Errorf("pacifier: no recording for %v", mode)
	}
	return relog.EncodeLog(rec.Log), nil
}

// VerifyRoundTrip encodes, decodes and replays mode's recording,
// returning an error unless the decoded log reproduces the execution
// exactly.
func (r *Run) VerifyRoundTrip(mode Mode) error {
	return core.VerifyRoundTrip(r.inner, mode)
}
