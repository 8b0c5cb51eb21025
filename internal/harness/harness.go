// Package harness is the experiment-fleet scheduler behind
// cmd/experiments and `pacifier sweep`: it fans a set of independent
// simulation jobs — each one full pacifier record + replay of a
// (workload, cores, ops, seed, atomicity, modes) configuration — out
// across a worker pool, recovers from per-job panics, enforces per-job
// timeouts, and aggregates everything into a deterministic,
// order-independent result set that the emitters (JSON lines, CSV, the
// paper's figure tables) all render from.
//
// Every figure of the paper (Figs. 11–13, the Table 2 ablations) is a
// reduction over dozens of such independent jobs. A parallel sweep and
// a serial sweep of the same specs produce byte-identical result sets,
// and every sweep simulates every job: the whole evaluation reruns in
// seconds, so no stored result can outlive the code that made it.
package harness

import (
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"log/slog"
	"runtime"
	"sort"
	"strings"
	"sync"
	"time"

	"pacifier/internal/sim"
)

// ErrInterrupted marks jobs that were never dispatched because the sweep
// was interrupted (Options.Interrupt). Test with errors.Is.
var ErrInterrupted = errors.New("harness: sweep interrupted before job ran")

// ErrPanicked marks jobs whose simulation goroutine panicked; the full
// panic value and stack ride in the wrapping error. Test with errors.Is.
var ErrPanicked = errors.New("harness: job panicked")

// ErrTimeout marks jobs that exceeded Options.Timeout. Test with
// errors.Is.
var ErrTimeout = errors.New("harness: job exceeded timeout")

// specHashSalt is folded into every spec hash. It is fixed: the hash
// names a job in JSONL output, trace file names and the bench digests,
// so changing the salt renames every job without changing any result.
const specHashSalt = "pacifier-harness-v2"

// JobSpec identifies one simulation job completely: hashing two equal
// specs yields the same key. The zero values of the optional knobs
// (MaxChunkOps, MaxCycles) select the core package defaults.
type JobSpec struct {
	// Kind selects the workload generator: "app" (a SPLASH-2-like
	// profile; Cores/Ops/Seed apply) or "litmus" (a fixed litmus test;
	// only Name applies).
	Kind string `json:"kind"`
	// Name is the application or litmus-test name.
	Name string `json:"name"`
	// Cores is the machine size (app workloads only; litmus tests fix
	// their own thread count).
	Cores int `json:"cores,omitempty"`
	// Ops is the per-thread memory-operation count (app workloads only).
	Ops int `json:"ops,omitempty"`
	// Seed drives workload generation and the simulated machine.
	Seed uint64 `json:"seed"`
	// Atomic selects write atomicity.
	Atomic bool `json:"atomic"`
	// MaxChunkOps bounds chunk size (0 = core default).
	MaxChunkOps int64 `json:"max_chunk_ops,omitempty"`
	// Modes are the recorder modes, by figure-style name ("karma",
	// "vol", "gra", ...), all recorded simultaneously on one execution
	// so their logs are directly comparable.
	Modes []string `json:"modes"`
	// Replay re-executes and verifies each recorded mode.
	Replay bool `json:"replay"`
	// Compress additionally runs each mode's encoded log through the
	// relog block compressor and reports compressed bytes plus the
	// modeled compressed record slowdown. Omitempty keeps pre-existing
	// spec hashes stable for compression-off jobs.
	Compress bool `json:"compress,omitempty"`
	// CaptureMetrics attaches the run's full Stats snapshot (counters,
	// gauges, histograms) to the Result. Part of the spec hash: a
	// metrics-bearing result and a plain one are different artifacts.
	CaptureMetrics bool `json:"capture_metrics,omitempty"`
	// ProfileCycles runs the job under the cycle-accounting profiler and
	// reports each mode's measured record slowdown next to the modeled
	// one. Omitempty keeps pre-existing spec hashes stable for
	// profiling-off jobs.
	ProfileCycles bool `json:"profile_cycles,omitempty"`
}

// Hash returns the spec's content hash — a hex SHA-256 over the
// canonical JSON encoding of the spec plus a fixed salt. It is the
// job's identity in emitted results and their canonical ordering.
func (s JobSpec) Hash() string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("harness: spec not marshalable: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, specHashSalt)
	h.Write([]byte{0})
	h.Write(blob)
	return hex.EncodeToString(h.Sum(nil))
}

// Label is a short human-readable job name for progress reporting.
func (s JobSpec) Label() string {
	if s.Kind == "litmus" {
		return fmt.Sprintf("litmus:%s", s.Name)
	}
	return fmt.Sprintf("%s/p%d", s.Name, s.Cores)
}

// ReplayOutcome is the verified replay of one recorded mode.
type ReplayOutcome struct {
	OpsReplayed   int64   `json:"ops_replayed"`
	MismatchCount int64   `json:"mismatch_count"`
	OrderBreaks   int64   `json:"order_breaks"`
	Deterministic bool    `json:"deterministic"`
	Slowdown      float64 `json:"slowdown"` // vs native, fraction (Fig. 12)
}

// ModeResult is everything one recorder mode produced for a job.
type ModeResult struct {
	Mode string `json:"mode"`
	// Log statistics under the wire encoding (Fig. 11 raw material).
	Chunks     int   `json:"chunks"`
	DEntries   int   `json:"d_entries"`
	PEntries   int   `json:"p_entries"`
	VEntries   int   `json:"v_entries"`
	PredEdges  int   `json:"pred_edges"`
	BaseBytes  int64 `json:"base_bytes"`
	TotalBytes int64 `json:"total_bytes"`
	// OverheadVsKarma is the Fig. 11 metric; only meaningful when the
	// job also recorded karma (HasOverhead).
	OverheadVsKarma float64 `json:"overhead_vs_karma"`
	HasOverhead     bool    `json:"has_overhead"`
	// LHBMax is the Fig. 13 metric (high-water LHB occupancy).
	LHBMax int `json:"lhb_max"`
	// RecordSlowdown is the modeled record-phase slowdown (fraction of
	// native cycles; see record.RecordSlowdown).
	RecordSlowdown float64 `json:"record_slowdown,omitempty"`
	// MeasuredRecordSlowdown is the measured record-phase slowdown —
	// recorder stall cycles attributed live by the cycle-accounting
	// profiler over native cycles. Present only when the spec set
	// ProfileCycles; HasMeasured distinguishes a genuine zero.
	MeasuredRecordSlowdown float64 `json:"measured_record_slowdown,omitempty"`
	HasMeasured            bool    `json:"has_measured,omitempty"`
	// CompressedBytes / RecordSlowdownCompressed are present only when
	// the spec set Compress: the block-compressed log size and the
	// modeled slowdown with the compression engine on the drain path.
	CompressedBytes          int64          `json:"compressed_bytes,omitempty"`
	RecordSlowdownCompressed float64        `json:"record_slowdown_compressed,omitempty"`
	Replay                   *ReplayOutcome `json:"replay,omitempty"`
}

// Result is the complete, deterministic outcome of one job. It contains
// no wall-clock or host-dependent data, so equal specs always produce
// byte-identical Results regardless of scheduling — the property the
// determinism tests pin down.
type Result struct {
	Spec         JobSpec      `json:"spec"`
	SpecHash     string       `json:"spec_hash"`
	NativeCycles int64        `json:"native_cycles"`
	MemOps       int64        `json:"mem_ops"`
	Modes        []ModeResult `json:"modes"`
	// Metrics is the run's versioned stats snapshot, present only when
	// the spec requested CaptureMetrics. Snapshots are deterministic
	// (name-sorted, no wall-clock), so they keep Results byte-stable.
	Metrics *sim.Snapshot `json:"metrics,omitempty"`
}

// Mode returns the ModeResult for the named mode (nil if absent).
func (r *Result) Mode(name string) *ModeResult {
	for i := range r.Modes {
		if r.Modes[i].Mode == name {
			return &r.Modes[i]
		}
	}
	return nil
}

// Outcome wraps a Result with the scheduling metadata that is NOT part
// of the deterministic result set: wall time and errors.
type Outcome struct {
	Spec   JobSpec
	Hash   string
	Result *Result // nil if the job failed
	Err    error   // non-nil if the job panicked, timed out or errored
	Wall   time.Duration
}

// Options configures a sweep.
type Options struct {
	// Workers is the worker-pool size; <= 0 means GOMAXPROCS.
	Workers int
	// Timeout bounds each job's wall time; 0 means no limit. A job that
	// exceeds it is reported failed (Outcome.Err) without disturbing
	// sibling jobs; its goroutine is abandoned (Go cannot kill it) and
	// its result, if it ever finishes, is discarded.
	Timeout time.Duration
	// Interrupt, if non-nil, stops the sweep early when it becomes
	// readable (closed or sent to): jobs already dispatched finish
	// normally and keep their results; jobs never dispatched come back
	// with Err wrapping ErrInterrupted. The CLIs connect it to SIGINT so
	// a ^C still flushes every completed result.
	Interrupt <-chan struct{}
	// TraceDir, if non-empty, makes every executed job write a Chrome
	// trace-event file <spec-hash>.trace.json of its record and replay
	// event streams into that directory. Trace files are written
	// atomically, so an interrupt never leaves a truncated one.
	TraceDir string
	// Logger, if non-nil, receives one record per finished job with a
	// running count and an ETA (stderr in the CLIs; see NewLogger).
	Logger *slog.Logger

	// Run overrides job execution (nil = Execute, or ExecuteTraced when
	// TraceDir is set). Tests and the bench module's per-job timing
	// use it; everything else should leave it nil.
	Run func(JobSpec) (*Result, error)
}

// NewLogger builds the structured logger behind every CLI's -log-format
// and -log-level flags, which the CLIs pass to sweeps as Options.Logger:
// format is "text" or "json", level is one of debug|info|warn|error.
// The zero values ("", "") mean text at info.
func NewLogger(w io.Writer, format, level string) (*slog.Logger, error) {
	var lv slog.Level
	switch strings.ToLower(level) {
	case "", "info":
		lv = slog.LevelInfo
	case "debug":
		lv = slog.LevelDebug
	case "warn", "warning":
		lv = slog.LevelWarn
	case "error":
		lv = slog.LevelError
	default:
		return nil, fmt.Errorf("harness: unknown log level %q (valid: debug, info, warn, error)", level)
	}
	opts := &slog.HandlerOptions{Level: lv}
	switch strings.ToLower(format) {
	case "", "text":
		return slog.New(slog.NewTextHandler(w, opts)), nil
	case "json":
		return slog.New(slog.NewJSONHandler(w, opts)), nil
	}
	return nil, fmt.Errorf("harness: unknown log format %q (valid: text, json)", format)
}

// Run executes every spec on a worker pool and returns one Outcome per
// spec, in spec order. It never returns an error itself: per-job
// failures (panic, timeout, simulation error) are carried in the
// corresponding Outcome so that one bad job cannot abort a sweep.
func Run(specs []JobSpec, opts Options) []Outcome {
	workers := opts.Workers
	if workers <= 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	if workers > len(specs) && len(specs) > 0 {
		workers = len(specs)
	}
	runJob := opts.Run
	if runJob == nil {
		if dir := opts.TraceDir; dir != "" {
			runJob = func(s JobSpec) (*Result, error) { return ExecuteTraced(s, dir) }
		} else {
			runJob = Execute
		}
	}

	outcomes := make([]Outcome, len(specs))
	idx := make(chan int)
	var wg sync.WaitGroup

	prog := newProgress(opts.Logger, len(specs))

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				start := time.Now()
				res, err := runGuarded(specs[i], opts.Timeout, runJob)
				outcomes[i] = Outcome{Spec: specs[i], Hash: specs[i].Hash(),
					Result: res, Err: err, Wall: time.Since(start)}
				prog.done(outcomes[i])
			}
		}()
	}
dispatch:
	for i := range specs {
		select {
		case <-opts.Interrupt:
			// Stop feeding the pool; everything not yet dispatched is
			// reported as interrupted so the caller can tell "skipped"
			// from "failed in simulation".
			for j := i; j < len(specs); j++ {
				outcomes[j] = Outcome{
					Spec: specs[j], Hash: specs[j].Hash(),
					Err: fmt.Errorf("%w: %s", ErrInterrupted, specs[j].Label()),
				}
			}
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return outcomes
}

// jobReply carries a guarded job's result out of its goroutine.
type jobReply struct {
	res *Result
	err error
}

// runGuarded executes one job in its own goroutine with panic recovery
// and an optional deadline.
func runGuarded(spec JobSpec, timeout time.Duration, runJob func(JobSpec) (*Result, error)) (*Result, error) {
	reply := make(chan jobReply, 1) // buffered: a late finisher must not leak forever blocked
	go func() {
		defer func() {
			if p := recover(); p != nil {
				buf := make([]byte, 4096)
				buf = buf[:runtime.Stack(buf, false)]
				reply <- jobReply{err: fmt.Errorf("%w: job %s panicked: %v\n%s", ErrPanicked, spec.Label(), p, buf)}
			}
		}()
		res, err := runJob(spec)
		reply <- jobReply{res: res, err: err}
	}()

	if timeout <= 0 {
		r := <-reply
		return r.res, r.err
	}
	timer := time.NewTimer(timeout)
	defer timer.Stop()
	select {
	case r := <-reply:
		return r.res, r.err
	case <-timer.C:
		return nil, fmt.Errorf("%w: job %s exceeded timeout %v", ErrTimeout, spec.Label(), timeout)
	}
}

// Results extracts the successful results of a sweep as a deterministic,
// order-independent set: sorted by spec hash, independent of worker
// scheduling and of the order specs were submitted in.
func Results(outcomes []Outcome) []*Result {
	var rs []*Result
	for i := range outcomes {
		if outcomes[i].Result != nil {
			rs = append(rs, outcomes[i].Result)
		}
	}
	sort.Slice(rs, func(i, j int) bool { return rs[i].SpecHash < rs[j].SpecHash })
	return rs
}

// Errs collects the failed outcomes of a sweep.
func Errs(outcomes []Outcome) []Outcome {
	var bad []Outcome
	for _, o := range outcomes {
		if o.Err != nil {
			bad = append(bad, o)
		}
	}
	return bad
}

// EncodeCanonical serializes a result set to its canonical byte form:
// hash-sorted, indented JSON. Two sweeps over the same specs — serial,
// parallel, shuffled — encode to identical bytes.
func EncodeCanonical(results []*Result) ([]byte, error) {
	sorted := make([]*Result, len(results))
	copy(sorted, results)
	sort.Slice(sorted, func(i, j int) bool { return sorted[i].SpecHash < sorted[j].SpecHash })
	return json.MarshalIndent(sorted, "", "  ")
}

// Summary aggregates a sweep's scheduling outcomes — the wall-clock side
// of the run that the deterministic result set deliberately excludes.
// The CLIs print String() as the final progress line and append the JSON
// form as a trailing `{"summary": ...}` record to JSONL output.
type Summary struct {
	Total       int   `json:"total"`
	Succeeded   int   `json:"succeeded"`
	Failed      int   `json:"failed"`
	Interrupted int   `json:"interrupted"`
	WallMS      int64 `json:"wall_ms"` // summed per-job wall time
}

// Summarize reduces a sweep's outcomes to its Summary. Interrupted jobs
// count as neither succeeded nor failed: they never ran.
func Summarize(outcomes []Outcome) Summary {
	var s Summary
	s.Total = len(outcomes)
	for _, o := range outcomes {
		s.WallMS += o.Wall.Milliseconds()
		switch {
		case errors.Is(o.Err, ErrInterrupted):
			s.Interrupted++
		case o.Err != nil:
			s.Failed++
		default:
			s.Succeeded++
		}
	}
	return s
}

// String renders the one-line sweep summary.
func (s Summary) String() string {
	line := fmt.Sprintf("%d jobs: %d ok, %d failed", s.Total, s.Succeeded, s.Failed)
	if s.Interrupted > 0 {
		line += fmt.Sprintf(", %d interrupted", s.Interrupted)
	}
	return line
}

// progress serializes completion reporting across workers: one
// structured record per finished job on the sweep's Logger.
type progress struct {
	mu     sync.Mutex
	log    *slog.Logger
	total  int
	done_  int
	failed int
	start  time.Time
}

func newProgress(logger *slog.Logger, total int) *progress {
	return &progress{log: logger, total: total, start: time.Now()}
}

func (p *progress) done(o Outcome) {
	if p.log == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done_++
	status := "ok"
	if o.Err != nil {
		p.failed++
		status = "FAILED"
	}
	perJob := time.Since(p.start) / time.Duration(p.done_)
	eta := (perJob * time.Duration(p.total-p.done_)).Round(100 * time.Millisecond)
	p.log.Info("harness job finished",
		"progress", fmt.Sprintf("%d/%d", p.done_, p.total),
		"status", status,
		"job", o.Spec.Label(),
		"wall", o.Wall.Round(time.Millisecond).String(),
		"failed", p.failed,
		"eta", eta.String())
}
