// Package harness is the experiment-fleet scheduler behind
// cmd/experiments and `pacifier sweep`: it fans a set of independent
// simulation jobs — each one full pacifier record + replay of a
// (workload, cores, ops, seed, atomicity, modes) configuration — out
// across a worker pool, recovers from per-job panics, enforces per-job
// timeouts, caches finished results on disk keyed by a content hash of
// the spec, and aggregates everything into a deterministic,
// order-independent result set that the emitters (JSON lines, CSV, the
// paper's figure tables) all render from.
//
// Every figure of the paper (Figs. 11–13, the Table 2 ablations) is a
// reduction over dozens of such independent jobs, so the harness is what
// makes regenerating the evaluation cheap: a parallel sweep and a serial
// sweep of the same specs produce byte-identical result sets, and a
// re-run only simulates the specs whose results are not already cached.
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
	"sync"
	"time"

	"pacifier/internal/sim"
	"pacifier/internal/telemetry"
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

// cacheVersion is folded into every spec hash; bump it whenever the
// simulator, the recorders or the Result schema change meaning, so stale
// cache entries from older module versions can never be served.
const cacheVersion = "pacifier-harness-v2"

// JobSpec identifies one simulation job completely: hashing two equal
// specs yields the same key, so a spec is also the cache key for its
// result. The zero values of the optional knobs (MaxChunkOps, MaxCycles)
// select the core package defaults.
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
// canonical JSON encoding of the spec plus the harness cache version.
// It is the job's identity for caching and result-set ordering.
func (s JobSpec) Hash() string {
	blob, err := json.Marshal(s)
	if err != nil {
		panic(fmt.Sprintf("harness: spec not marshalable: %v", err))
	}
	h := sha256.New()
	io.WriteString(h, cacheVersion)
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
	// native cycles; see record.RecordSlowdown). Omitempty keeps results
	// from older cached runs decoding unchanged.
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
// of the deterministic result set: wall time, cache provenance, errors.
type Outcome struct {
	Spec   JobSpec
	Hash   string
	Result *Result // nil if the job failed
	Err    error   // non-nil if the job panicked, timed out or errored
	Cached bool    // served from the on-disk result cache
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
	// Cache, if non-nil, is consulted before running a job and updated
	// after a successful run.
	Cache *Cache
	// Progress, if non-nil, receives one line per finished job with a
	// running count, cache statistics and an ETA (stderr in the CLIs).
	Progress io.Writer
	// Interrupt, if non-nil, stops the sweep early when it becomes
	// readable (closed or sent to): jobs already dispatched finish
	// normally and keep their results; jobs never dispatched come back
	// with Err wrapping ErrInterrupted. The CLIs connect it to SIGINT so
	// a ^C still flushes every completed result.
	Interrupt <-chan struct{}
	// TraceDir, if non-empty, makes every executed (non-cached) job
	// write a Chrome trace-event file <spec-hash>.trace.json of its
	// record and replay event streams into that directory. Trace files
	// are written atomically, so an interrupt never leaves a truncated
	// one. Cache hits skip execution and therefore write no trace.
	TraceDir string
	// Fleet, if non-nil, receives live job-state transitions
	// (queued/running/done/failed/cached/skipped) for the telemetry
	// server's /api/fleet endpoints. Nil-safe: a nil fleet is a no-op.
	Fleet *telemetry.Fleet
	// Logger, if non-nil, receives the per-job progress records instead
	// of a plain text logger built over Progress.
	Logger *slog.Logger

	// Run overrides job execution (nil = Execute, or ExecuteTraced when
	// TraceDir is set). Tests and the bench module's per-job timing
	// use it; everything else should leave it nil.
	Run func(JobSpec) (*Result, error)
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

	prog := newProgress(opts.Progress, opts.Logger, len(specs))
	fleetIDs := make([]int, len(specs))
	for i, s := range specs {
		fleetIDs[i] = opts.Fleet.Add(s.Label(), s.Hash())
	}

	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := range idx {
				outcomes[i] = runOne(specs[i], opts, runJob, fleetIDs[i])
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
				opts.Fleet.Finish(fleetIDs[j], telemetry.StateSkipped, 0, "interrupted")
			}
			break dispatch
		case idx <- i:
		}
	}
	close(idx)
	wg.Wait()
	return outcomes
}

// runOne runs a single job: cache lookup, guarded execution with
// timeout, cache store. It publishes the job's lifecycle to opts.Fleet
// and to the process-global telemetry counters; both are nil-safe no-ops
// when monitoring is off, and neither ever feeds the deterministic
// Outcome, so live monitoring cannot perturb result sets.
func runOne(spec JobSpec, opts Options, runJob func(JobSpec) (*Result, error), fleetID int) Outcome {
	start := time.Now()
	hash := spec.Hash()
	o := Outcome{Spec: spec, Hash: hash}
	opts.Fleet.Start(fleetID)
	telemetry.C("pacifier_harness_jobs_started_total", "Jobs dispatched to the worker pool.").Add(1)

	if opts.Cache != nil {
		if res, ok := opts.Cache.Get(hash); ok {
			o.Result, o.Cached, o.Wall = res, true, time.Since(start)
			opts.Fleet.Finish(fleetID, telemetry.StateCached, o.Wall, "")
			telemetry.C("pacifier_harness_cache_hits_total", "Jobs served from the on-disk result cache.").Add(1)
			return o
		}
		telemetry.C("pacifier_harness_cache_misses_total", "Jobs that had to simulate (no cached result).").Add(1)
	}

	res, err := runGuarded(spec, opts.Timeout, runJob)
	o.Result, o.Err, o.Wall = res, err, time.Since(start)

	switch {
	case err == nil:
		opts.Fleet.Finish(fleetID, telemetry.StateDone, o.Wall, "")
		telemetry.C("pacifier_harness_jobs_completed_total", "Jobs that simulated successfully.").Add(1)
	default:
		opts.Fleet.Finish(fleetID, telemetry.StateFailed, o.Wall, err.Error())
		telemetry.C("pacifier_harness_jobs_failed_total", "Jobs that errored, panicked or timed out.").Add(1)
		if errors.Is(err, ErrPanicked) {
			telemetry.C("pacifier_harness_jobs_panicked_total", "Jobs whose simulation goroutine panicked.").Add(1)
		}
		if errors.Is(err, ErrTimeout) {
			telemetry.C("pacifier_harness_jobs_timedout_total", "Jobs that exceeded the per-job timeout.").Add(1)
		}
	}

	if err == nil && opts.Cache != nil {
		// A cache write failure degrades to a miss on the next run; it
		// must not fail a job that simulated successfully.
		_ = opts.Cache.Put(res)
	}
	return o
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
	CacheHits   int   `json:"cache_hits"`
	CacheMisses int   `json:"cache_misses"`
	WallMS      int64 `json:"wall_ms"` // summed per-job wall time
	// CacheHitRate is hits over completed (hits + misses) jobs. It is
	// defined as 0 — never NaN — when the sweep was interrupted before
	// any job completed, so the JSONL summary record stays valid JSON.
	CacheHitRate float64 `json:"cache_hit_rate"`
}

// Summarize reduces a sweep's outcomes to its Summary. Interrupted jobs
// count as neither failed nor cache misses: they never ran.
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
			s.CacheMisses++
		case o.Cached:
			s.Succeeded++
			s.CacheHits++
		default:
			s.Succeeded++
			s.CacheMisses++
		}
	}
	// Guard the 0/0 path: a sweep cancelled before any job finishes
	// has no completed jobs to take a rate over.
	if completed := s.CacheHits + s.CacheMisses; completed > 0 {
		s.CacheHitRate = float64(s.CacheHits) / float64(completed)
	}
	return s
}

// String renders the one-line sweep summary.
func (s Summary) String() string {
	line := fmt.Sprintf("%d jobs: %d ok, %d failed, cache %d hits / %d misses",
		s.Total, s.Succeeded, s.Failed, s.CacheHits, s.CacheMisses)
	if s.Interrupted > 0 {
		line += fmt.Sprintf(", %d interrupted", s.Interrupted)
	}
	return line
}

// progress serializes completion reporting across workers. Reporting is
// structured: an explicit Logger wins; otherwise a text slog handler is
// built over the Progress writer, preserving the one-line-per-job
// contract on stderr.
type progress struct {
	mu      sync.Mutex
	log     *slog.Logger
	total   int
	done_   int
	cached  int
	failed  int
	start   time.Time
	simWall time.Duration // wall time of non-cached jobs, for the ETA
}

func newProgress(w io.Writer, logger *slog.Logger, total int) *progress {
	p := &progress{total: total, start: time.Now()}
	switch {
	case logger != nil:
		p.log = logger
	case w != nil:
		p.log = slog.New(slog.NewTextHandler(w, nil))
	}
	return p
}

func (p *progress) done(o Outcome) {
	if p.log == nil {
		return
	}
	p.mu.Lock()
	defer p.mu.Unlock()
	p.done_++
	status := "ok"
	switch {
	case o.Err != nil:
		p.failed++
		status = "FAILED"
	case o.Cached:
		p.cached++
		status = "cached"
	}
	if !o.Cached && o.Err == nil {
		p.simWall += o.Wall
	}
	eta := "?"
	if ran := p.done_ - p.cached; ran > 0 {
		perJob := time.Since(p.start) / time.Duration(p.done_)
		remaining := perJob * time.Duration(p.total-p.done_)
		eta = remaining.Round(100 * time.Millisecond).String()
	} else if p.done_ > 0 { // everything cached so far: ETA is effectively zero
		eta = "0s"
	}
	p.log.Info("harness job finished",
		"progress", fmt.Sprintf("%d/%d", p.done_, p.total),
		"status", status,
		"job", o.Spec.Label(),
		"wall", o.Wall.Round(time.Millisecond).String(),
		"cached", p.cached,
		"failed", p.failed,
		"eta", eta)
}
