package dist

import (
	"encoding/json"
	"fmt"
	"log/slog"
	"net/http"
	"sync"
	"time"

	"pacifier/internal/harness"
	"pacifier/internal/telemetry"
)

// CoordinatorOptions configures a coordinator.
type CoordinatorOptions struct {
	// Cache is the shared content-addressed result store. Required:
	// it is what makes sweeps resumable — finished jobs are stored
	// under their spec hash, and submitted specs whose hash is already
	// stored never run.
	Cache *harness.Cache
	// Fleet, if non-nil, receives job-state transitions for the
	// telhttp /api/fleet endpoints (nil-safe).
	Fleet *telemetry.Fleet
	// LeaseTTL bounds how long a lease survives without a heartbeat
	// renewal (0 = DefaultLeaseTTL seconds). It also serves as the
	// worker liveness window.
	LeaseTTL time.Duration
	// MaxAttempts caps how many times a job may be leased before the
	// coordinator gives up and fails it (0 = DefaultMaxAttempts).
	MaxAttempts int
	// Logger, if non-nil, gets one line per registration, lease
	// expiry, and job completion.
	Logger *slog.Logger
}

// workerRec is the coordinator's per-worker state.
type workerRec struct {
	id        int64
	name      string
	lastBeat  time.Time
	leased    map[string]struct{} // spec hashes currently held
	completed int64
	failed    int64
}

// jobRec is the coordinator's per-job state machine: one record per
// unique spec hash, shared by every sweep that submitted the spec.
type jobRec struct {
	spec       harness.JobSpec
	hash       string
	label      string
	state      string // JobPending | JobLeased | JobDone | JobFailed
	cached     bool
	leaseID    int64
	worker     int64
	leasedAt   time.Time
	deadline   time.Time
	attempts   int
	reassigned int
	result     *harness.Result
	errText    string
	wall       time.Duration
	fleetID    int
}

// sweepRec is one submitted sweep: an ordered set of job hashes.
type sweepRec struct {
	id     int64
	hashes []string
}

// Coordinator owns the distributed job queue: registration,
// heartbeats, lease grants, expiry-driven reassignment, and result
// collection into the shared cache. All state lives behind one mutex;
// the request rates involved (worker polls, sweep status polls) are
// far below where that matters.
type Coordinator struct {
	opts CoordinatorOptions

	mu         sync.Mutex
	workers    map[int64]*workerRec
	jobs       map[string]*jobRec
	order      []string // hashes in submission order: the FIFO lease queue
	sweeps     map[int64]*sweepRec
	nextWorker int64
	nextLease  int64
	nextSweep  int64

	// Metric handles, resolved once at construction (nil-safe no-ops
	// while telemetry is disabled).
	mRegistered, mHeartbeats, mLeases, mExpired *telemetry.Counter
	mCompleted, mFailed, mStale, mSubmitted     *telemetry.Counter
	hWall                                       *telemetry.Histogram
}

// NewCoordinator builds a coordinator over a shared result cache.
func NewCoordinator(opts CoordinatorOptions) *Coordinator {
	if opts.Cache == nil {
		panic("dist: coordinator needs a result cache")
	}
	if opts.LeaseTTL <= 0 {
		opts.LeaseTTL = DefaultLeaseTTL * time.Second
	}
	if opts.MaxAttempts <= 0 {
		opts.MaxAttempts = DefaultMaxAttempts
	}
	return &Coordinator{
		opts:    opts,
		workers: make(map[int64]*workerRec),
		jobs:    make(map[string]*jobRec),
		sweeps:  make(map[int64]*sweepRec),

		mRegistered: telemetry.C("pacifier_dist_workers_registered_total", "Worker registrations accepted by the coordinator."),
		mHeartbeats: telemetry.C("pacifier_dist_heartbeats_total", "Worker heartbeats received."),
		mLeases:     telemetry.C("pacifier_dist_leases_granted_total", "Job leases granted to workers."),
		mExpired:    telemetry.C("pacifier_dist_leases_expired_total", "Leases that expired without completion (job reassigned or failed)."),
		mCompleted:  telemetry.C("pacifier_dist_jobs_completed_total", "Distributed jobs completed successfully."),
		mFailed:     telemetry.C("pacifier_dist_jobs_failed_total", "Distributed jobs that failed (worker error or lease exhaustion)."),
		mStale:      telemetry.C("pacifier_dist_stale_completions_total", "Completions rejected because their lease was no longer current."),
		mSubmitted:  telemetry.C("pacifier_dist_jobs_submitted_total", "Unique jobs enqueued by sweep submissions."),
		hWall:       telemetry.H("pacifier_dist_job_wall_ms", "Wall time of completed distributed jobs in milliseconds."),
	}
}

// logf emits one coordinator log line (no-op without a logger).
func (c *Coordinator) logf(msg string, args ...any) {
	if c.opts.Logger != nil {
		c.opts.Logger.Info(msg, args...)
	}
}

// expireLocked is the fault-tolerance core: any leased job whose
// deadline has passed goes back to pending (to be granted to the next
// worker that asks) — unless its lease attempts are exhausted, in
// which case it fails terminally. Called under c.mu at the head of
// every state-reading or state-mutating request.
func (c *Coordinator) expireLocked(now time.Time) {
	for _, hash := range c.order {
		j := c.jobs[hash]
		if j.state != JobLeased || now.Before(j.deadline) {
			continue
		}
		if w, ok := c.workers[j.worker]; ok {
			delete(w.leased, j.hash)
		}
		c.mExpired.Inc()
		if j.attempts >= c.opts.MaxAttempts {
			j.state = JobFailed
			j.errText = fmt.Sprintf("dist: lease expired after %d attempts (last worker %d)", j.attempts, j.worker)
			c.mFailed.Inc()
			c.opts.Fleet.Finish(j.fleetID, telemetry.StateFailed, 0, j.errText)
			c.logf("dist job failed: lease attempts exhausted", "job", j.label, "hash", j.hash[:12], "attempts", j.attempts)
		} else {
			j.state = JobPending
			j.reassigned++
			c.logf("dist lease expired: job requeued", "job", j.label, "hash", j.hash[:12],
				"worker", j.worker, "attempt", j.attempts)
		}
		j.leaseID, j.worker = 0, 0
	}
}

// liveLocked reports whether a worker has heartbeated within the
// liveness window (one lease TTL).
func (c *Coordinator) liveLocked(w *workerRec, now time.Time) bool {
	return now.Sub(w.lastBeat) <= c.opts.LeaseTTL
}

// LiveWorkers counts workers whose last heartbeat is within the
// liveness window — the /readyz gate for coordinator processes.
func (c *Coordinator) LiveWorkers() int {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	n := 0
	for _, w := range c.workers {
		if c.liveLocked(w, now) {
			n++
		}
	}
	return n
}

// Register admits a worker and returns its identity.
func (c *Coordinator) Register(name string) RegisterResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextWorker++
	w := &workerRec{id: c.nextWorker, name: name, lastBeat: time.Now(), leased: make(map[string]struct{})}
	c.workers[w.id] = w
	c.mRegistered.Inc()
	c.logf("dist worker registered", "worker", w.id, "name", name)
	return RegisterResponse{
		WorkerID:    w.id,
		LeaseTTLMS:  c.opts.LeaseTTL.Milliseconds(),
		HeartbeatMS: (c.opts.LeaseTTL / 3).Milliseconds(),
	}
}

// Heartbeat renews a worker's liveness and extends every lease it
// holds by one TTL. Unknown workers (coordinator restarted) get
// Known=false and must re-register.
func (c *Coordinator) Heartbeat(workerID int64) HeartbeatResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		return HeartbeatResponse{Known: false}
	}
	c.mHeartbeats.Inc()
	w.lastBeat = now
	for hash := range w.leased {
		if j := c.jobs[hash]; j.state == JobLeased && j.worker == workerID {
			j.deadline = now.Add(c.opts.LeaseTTL)
		}
	}
	return HeartbeatResponse{Known: true}
}

// Lease grants the oldest pending job to the worker, or a poll-again
// hint when the queue is empty. Expired leases are reaped first, so a
// worker polling an idle coordinator is also what drives reassignment.
func (c *Coordinator) Lease(workerID int64) LeaseResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	w, ok := c.workers[workerID]
	if !ok {
		// Unregistered (or forgotten) worker: make it poll slowly; its
		// next heartbeat will tell it to re-register.
		return LeaseResponse{WaitMS: c.opts.LeaseTTL.Milliseconds()}
	}
	w.lastBeat = now
	for _, hash := range c.order {
		j := c.jobs[hash]
		if j.state != JobPending {
			continue
		}
		c.nextLease++
		j.state = JobLeased
		j.leaseID = c.nextLease
		j.worker = workerID
		j.leasedAt = now
		j.deadline = now.Add(c.opts.LeaseTTL)
		j.attempts++
		w.leased[hash] = struct{}{}
		c.mLeases.Inc()
		c.opts.Fleet.Start(j.fleetID)
		c.logf("dist job leased", "job", j.label, "hash", j.hash[:12], "worker", workerID, "attempt", j.attempts)
		return LeaseResponse{Job: &LeasedJob{
			Spec:    j.spec,
			Hash:    j.hash,
			LeaseID: j.leaseID,
			TTLMS:   c.opts.LeaseTTL.Milliseconds(),
			Attempt: j.attempts,
		}}
	}
	return LeaseResponse{WaitMS: 250}
}

// Complete accepts (or stalely rejects) a finished job. A valid
// result is stored in the shared cache, making the sweep resumable
// from this point even if the coordinator itself is restarted.
func (c *Coordinator) Complete(req CompleteRequest) CompleteResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	j, ok := c.jobs[req.Hash]
	if !ok || j.state != JobLeased || j.leaseID != req.LeaseID || j.worker != req.WorkerID {
		// The lease is no longer current: the job was reassigned after
		// an expiry, already finished, or never existed (coordinator
		// restart). Discarding is safe — results are deterministic and
		// the winner writes identical bytes.
		c.mStale.Inc()
		return CompleteResponse{Stale: true}
	}
	w := c.workers[req.WorkerID]
	if w != nil {
		delete(w.leased, req.Hash)
		w.lastBeat = now
	}
	j.leaseID, j.worker = 0, 0
	j.wall = time.Duration(req.WallMS) * time.Millisecond

	switch {
	case req.Error != "":
		j.state = JobFailed
		j.errText = req.Error
		if w != nil {
			w.failed++
		}
		c.mFailed.Inc()
		c.opts.Fleet.Finish(j.fleetID, telemetry.StateFailed, j.wall, req.Error)
		c.logf("dist job failed", "job", j.label, "hash", j.hash[:12], "err", req.Error)
	case req.Result == nil || req.Result.SpecHash != j.hash:
		j.state = JobFailed
		j.errText = fmt.Sprintf("dist: worker %d returned a result for the wrong spec", req.WorkerID)
		if w != nil {
			w.failed++
		}
		c.mFailed.Inc()
		c.opts.Fleet.Finish(j.fleetID, telemetry.StateFailed, j.wall, j.errText)
	default:
		j.state = JobDone
		j.result = req.Result
		if w != nil {
			w.completed++
		}
		c.mCompleted.Inc()
		c.hWall.Observe(req.WallMS)
		c.opts.Fleet.Finish(j.fleetID, telemetry.StateDone, j.wall, "")
		// A cache write failure degrades resumability, never the sweep.
		_ = c.opts.Cache.Put(req.Result)
		c.logf("dist job done", "job", j.label, "hash", j.hash[:12], "wall_ms", req.WallMS)
	}
	return CompleteResponse{Accepted: j.state == JobDone}
}

// Submit enqueues a sweep. Specs are deduplicated two ways: against
// jobs already queued or running (one execution serves every sweep
// that wants the hash) and against the result store (a stored result
// short-circuits the job entirely — the resume path).
func (c *Coordinator) Submit(specs []harness.JobSpec) SubmitResponse {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.nextSweep++
	sw := &sweepRec{id: c.nextSweep}
	c.sweeps[sw.id] = sw
	resp := SubmitResponse{SweepID: sw.id, Total: len(specs)}

	seen := make(map[string]bool, len(specs))
	for _, spec := range specs {
		hash := spec.Hash()
		if seen[hash] {
			resp.Total--
			continue // duplicate within the submission itself
		}
		seen[hash] = true
		sw.hashes = append(sw.hashes, hash)
		if j, ok := c.jobs[hash]; ok {
			resp.Deduped++
			if j.state == JobDone && j.cached {
				resp.Cached++
			}
			continue
		}
		j := &jobRec{spec: spec, hash: hash, label: spec.Label(), state: JobPending}
		j.fleetID = c.opts.Fleet.Add(j.label, hash)
		if res, ok := c.opts.Cache.Get(hash); ok {
			j.state = JobDone
			j.cached = true
			j.result = res
			resp.Cached++
			c.opts.Fleet.Finish(j.fleetID, telemetry.StateCached, 0, "")
		} else {
			c.mSubmitted.Inc()
		}
		c.jobs[hash] = j
		c.order = append(c.order, hash)
	}
	c.logf("dist sweep submitted", "sweep", sw.id, "jobs", len(sw.hashes),
		"cached", resp.Cached, "deduped", resp.Deduped)
	return resp
}

// SweepStatus reports a sweep's progress; withResults attaches each
// finished job's full Result (the sweep client's final fetch).
func (c *Coordinator) SweepStatus(sweepID int64, withResults bool) (SweepStatus, bool) {
	c.mu.Lock()
	defer c.mu.Unlock()
	c.expireLocked(time.Now())
	sw, ok := c.sweeps[sweepID]
	if !ok {
		return SweepStatus{}, false
	}
	st := SweepStatus{SweepID: sweepID, Total: len(sw.hashes), Done: true}
	for _, hash := range sw.hashes {
		j := c.jobs[hash]
		js := JobStatus{
			Hash: j.hash, Label: j.label, State: j.state, Cached: j.cached,
			Attempts: j.attempts, Reassigned: j.reassigned,
			WallMS: j.wall.Milliseconds(), Error: j.errText,
		}
		switch j.state {
		case JobPending:
			st.Pending++
			st.Done = false
		case JobLeased:
			st.Leased++
			st.Done = false
		case JobDone:
			st.Doneok++
			if withResults {
				js.Result = j.result
			}
		case JobFailed:
			st.Failed++
		}
		st.Jobs = append(st.Jobs, js)
	}
	return st, true
}

// DistSnapshot builds the coordinator's /api/fleet contribution.
func (c *Coordinator) DistSnapshot() *telemetry.DistSnapshot {
	c.mu.Lock()
	defer c.mu.Unlock()
	now := time.Now()
	c.expireLocked(now)
	s := &telemetry.DistSnapshot{Sweeps: len(c.sweeps)}
	for _, hash := range c.order {
		switch c.jobs[hash].state {
		case JobPending:
			s.Pending++
		case JobLeased:
			s.Leased++
		case JobDone:
			s.Done++
		case JobFailed:
			s.Failed++
		}
		s.Reassignments += int64(c.jobs[hash].reassigned)
	}
	for _, w := range c.workers {
		v := telemetry.DistWorkerView{
			ID: w.id, Name: w.name,
			Live:           c.liveLocked(w, now),
			HeartbeatAgeMS: now.Sub(w.lastBeat).Milliseconds(),
			Leased:         len(w.leased),
			Completed:      w.completed,
			Failed:         w.failed,
		}
		for hash := range w.leased {
			if age := now.Sub(c.jobs[hash].leasedAt).Milliseconds(); age > v.LeaseAgeMS {
				v.LeaseAgeMS = age
			}
		}
		if v.Live {
			s.LiveWorkers++
		}
		s.Workers = append(s.Workers, v)
	}
	// Deterministic order for the JSON document.
	for i := 1; i < len(s.Workers); i++ {
		for j := i; j > 0 && s.Workers[j-1].ID > s.Workers[j].ID; j-- {
			s.Workers[j-1], s.Workers[j] = s.Workers[j], s.Workers[j-1]
		}
	}
	return s
}

// ---------------------------------------------------------------------
// HTTP surface
// ---------------------------------------------------------------------

// Handler returns the coordinator's HTTP API, routed under /api/dist/.
// It is designed to be mounted on the telhttp introspection server so
// one address serves metrics, fleet progress, and the job queue.
func (c *Coordinator) Handler() http.Handler {
	mux := http.NewServeMux()
	mux.HandleFunc("POST /api/dist/register", func(w http.ResponseWriter, r *http.Request) {
		var req RegisterRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if req.ProtoVersion != ProtoVersion {
			httpError(w, http.StatusBadRequest, fmt.Sprintf("dist: protocol version %d, coordinator speaks %d", req.ProtoVersion, ProtoVersion))
			return
		}
		writeJSON(w, c.Register(req.Name))
	})
	mux.HandleFunc("POST /api/dist/heartbeat", func(w http.ResponseWriter, r *http.Request) {
		var req HeartbeatRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Heartbeat(req.WorkerID))
	})
	mux.HandleFunc("POST /api/dist/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Lease(req.WorkerID))
	})
	mux.HandleFunc("POST /api/dist/complete", func(w http.ResponseWriter, r *http.Request) {
		var req CompleteRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		writeJSON(w, c.Complete(req))
	})
	mux.HandleFunc("POST /api/dist/submit", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		if !decodeJSON(w, r, &req) {
			return
		}
		if len(req.Specs) == 0 {
			httpError(w, http.StatusBadRequest, "dist: submit needs at least one spec")
			return
		}
		writeJSON(w, c.Submit(req.Specs))
	})
	mux.HandleFunc("GET /api/dist/sweep", func(w http.ResponseWriter, r *http.Request) {
		var id int64
		if _, err := fmt.Sscan(r.URL.Query().Get("id"), &id); err != nil {
			httpError(w, http.StatusBadRequest, "dist: sweep status needs ?id=<sweep id>")
			return
		}
		st, ok := c.SweepStatus(id, r.URL.Query().Get("results") == "1")
		if !ok {
			httpError(w, http.StatusNotFound, fmt.Sprintf("dist: unknown sweep %d", id))
			return
		}
		writeJSON(w, st)
	})
	mux.HandleFunc("GET /api/dist/status", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, c.DistSnapshot())
	})
	return mux
}

// maxBodyBytes bounds request bodies; results with metrics snapshots
// run to a few hundred KB, so 64 MB is generous without being open.
const maxBodyBytes = 64 << 20

func decodeJSON(w http.ResponseWriter, r *http.Request, dst any) bool {
	body := http.MaxBytesReader(w, r.Body, maxBodyBytes)
	if err := json.NewDecoder(body).Decode(dst); err != nil {
		httpError(w, http.StatusBadRequest, "dist: bad request body: "+err.Error())
		return false
	}
	return true
}

func writeJSON(w http.ResponseWriter, v any) {
	w.Header().Set("Content-Type", "application/json")
	_ = json.NewEncoder(w).Encode(v)
}

func httpError(w http.ResponseWriter, code int, msg string) {
	http.Error(w, msg, code)
}
