package telemetry

import (
	"sync"
	"time"
)

// JobState is one stage of a fleet job's lifecycle.
type JobState string

// The job lifecycle: Queued -> Running -> one of the terminal states.
// Cached jobs jump straight from Queued/Running to Cached; Skipped marks
// jobs an interrupted sweep never dispatched.
const (
	StateQueued  JobState = "queued"
	StateRunning JobState = "running"
	StateDone    JobState = "done"
	StateFailed  JobState = "failed"
	StateCached  JobState = "cached"
	StateSkipped JobState = "skipped"
)

// terminal reports whether a state ends a job's lifecycle.
func (s JobState) terminal() bool {
	switch s {
	case StateDone, StateFailed, StateCached, StateSkipped:
		return true
	}
	return false
}

// JobUpdate is one state transition, as published on the SSE stream.
// Seq is a fleet-wide monotone sequence number: subscribers always see
// transitions in Seq order, with no gaps within their subscription.
type JobUpdate struct {
	Seq    int64    `json:"seq"`
	ID     int      `json:"id"`
	Label  string   `json:"label"`
	Hash   string   `json:"hash,omitempty"`
	State  JobState `json:"state"`
	WallMS int64    `json:"wall_ms,omitempty"`
	Error  string   `json:"error,omitempty"`
}

// JobView is one job in a fleet snapshot.
type JobView struct {
	ID    int      `json:"id"`
	Label string   `json:"label"`
	Hash  string   `json:"hash,omitempty"`
	State JobState `json:"state"`
	// WallMS is the job's wall time: final for terminal jobs, elapsed so
	// far for running ones.
	WallMS int64 `json:"wall_ms"`
	// ETAMS estimates the remaining wall time of a running job from the
	// mean executed-job wall time (-1 when no estimate exists yet).
	ETAMS int64  `json:"eta_ms,omitempty"`
	Error string `json:"error,omitempty"`
}

// Snapshot is the /api/fleet JSON document.
type Snapshot struct {
	Total   int `json:"total"`
	Queued  int `json:"queued"`
	Running int `json:"running"`
	Done    int `json:"done"`
	Failed  int `json:"failed"`
	Cached  int `json:"cached"`
	Skipped int `json:"skipped"`
	// CacheHitRate is cached / finished (0 when nothing finished yet).
	CacheHitRate float64 `json:"cache_hit_rate"`
	ElapsedMS    int64   `json:"elapsed_ms"`
	// ETAMS projects the whole fleet's remaining wall time from observed
	// throughput (-1 before anything finishes).
	ETAMS int64     `json:"eta_ms"`
	Jobs  []JobView `json:"jobs"`
}

// jobRec is the fleet's internal per-job record.
type jobRec struct {
	id      int
	label   string
	hash    string
	state   JobState
	started time.Time
	wall    time.Duration
	err     string
}

// Fleet tracks the live state of a set of harness jobs and fans state
// transitions out to SSE subscribers. All methods are safe for
// concurrent use and safe on a nil *Fleet (no-ops), so the harness can
// publish unconditionally.
type Fleet struct {
	mu      sync.Mutex
	jobs    []jobRec
	byID    map[int]int // job id -> index in jobs
	nextID  int
	seq     int64
	start   time.Time
	history []JobUpdate // full transition log, replayed to new subscribers
	subs    map[chan JobUpdate]struct{}
	dropped *Counter
}

// NewFleet returns an empty fleet tracker.
func NewFleet() *Fleet {
	return &Fleet{
		byID:    make(map[int]int),
		subs:    make(map[chan JobUpdate]struct{}),
		start:   time.Now(),
		dropped: C("pacifier_fleet_sse_dropped_total", "SSE updates dropped on slow subscribers."),
	}
}

// Add registers one queued job and returns its fleet-wide id (-1 on a
// nil fleet).
func (f *Fleet) Add(label, hash string) int {
	if f == nil {
		return -1
	}
	f.mu.Lock()
	id := f.nextID
	f.nextID++
	f.jobs = append(f.jobs, jobRec{id: id, label: label, hash: hash, state: StateQueued})
	f.byID[id] = len(f.jobs) - 1
	f.publishLocked(id)
	f.mu.Unlock()
	return id
}

// Start marks a job running.
func (f *Fleet) Start(id int) {
	if f == nil {
		return
	}
	f.mu.Lock()
	if i, ok := f.byID[id]; ok && !f.jobs[i].state.terminal() {
		f.jobs[i].state = StateRunning
		f.jobs[i].started = time.Now()
		f.publishLocked(id)
	}
	f.mu.Unlock()
}

// Finish moves a job to a terminal state with its wall time and, for
// failures, the error text.
func (f *Fleet) Finish(id int, state JobState, wall time.Duration, errText string) {
	if f == nil || !state.terminal() {
		return
	}
	f.mu.Lock()
	if i, ok := f.byID[id]; ok && !f.jobs[i].state.terminal() {
		f.jobs[i].state = state
		f.jobs[i].wall = wall
		f.jobs[i].err = errText
		f.publishLocked(id)
	}
	f.mu.Unlock()
}

// publishLocked appends the job's current state to the history and fans
// it out. Callers hold f.mu.
func (f *Fleet) publishLocked(id int) {
	j := &f.jobs[f.byID[id]]
	f.seq++
	u := JobUpdate{Seq: f.seq, ID: j.id, Label: j.label, Hash: j.hash,
		State: j.state, WallMS: j.wall.Milliseconds(), Error: j.err}
	f.history = append(f.history, u)
	for ch := range f.subs {
		select {
		case ch <- u:
		default:
			// A slow subscriber must never stall the worker pool; it
			// drops updates and can re-sync from /api/fleet.
			f.dropped.Inc()
		}
	}
}

// Subscribe returns a channel that first replays every past transition
// in order, then delivers live ones, plus a cancel function. The
// channel is buffered; a subscriber that falls more than the buffer
// behind loses updates (counted in pacifier_fleet_sse_dropped_total).
func (f *Fleet) Subscribe(buffer int) (<-chan JobUpdate, func()) {
	if f == nil {
		ch := make(chan JobUpdate)
		close(ch)
		return ch, func() {}
	}
	f.mu.Lock()
	if buffer < len(f.history)+64 {
		buffer = len(f.history) + 64
	}
	ch := make(chan JobUpdate, buffer)
	for _, u := range f.history {
		ch <- u
	}
	f.subs[ch] = struct{}{}
	f.mu.Unlock()
	cancel := func() {
		f.mu.Lock()
		delete(f.subs, ch)
		f.mu.Unlock()
	}
	return ch, cancel
}

// Snapshot captures the fleet's current state for /api/fleet.
func (f *Fleet) Snapshot() *Snapshot {
	if f == nil {
		return &Snapshot{ETAMS: -1}
	}
	f.mu.Lock()
	defer f.mu.Unlock()
	now := time.Now()
	s := &Snapshot{Total: len(f.jobs), ElapsedMS: now.Sub(f.start).Milliseconds(), ETAMS: -1}

	// Mean wall time of executed (non-cached, terminal) jobs drives the
	// per-job and fleet ETAs.
	var execWall time.Duration
	executed := 0
	for i := range f.jobs {
		j := &f.jobs[i]
		if (j.state == StateDone || j.state == StateFailed) && j.wall > 0 {
			execWall += j.wall
			executed++
		}
	}
	var meanWall time.Duration
	if executed > 0 {
		meanWall = execWall / time.Duration(executed)
	}

	finished := 0
	for i := range f.jobs {
		j := &f.jobs[i]
		v := JobView{ID: j.id, Label: j.label, Hash: j.hash, State: j.state,
			WallMS: j.wall.Milliseconds(), Error: j.err}
		switch j.state {
		case StateQueued:
			s.Queued++
		case StateRunning:
			s.Running++
			v.WallMS = now.Sub(j.started).Milliseconds()
			if meanWall > 0 {
				eta := meanWall.Milliseconds() - v.WallMS
				if eta < 0 {
					eta = 0
				}
				v.ETAMS = eta
			} else {
				v.ETAMS = -1
			}
		case StateDone:
			s.Done++
		case StateFailed:
			s.Failed++
		case StateCached:
			s.Cached++
		case StateSkipped:
			s.Skipped++
		}
		if j.state.terminal() {
			finished++
		}
		s.Jobs = append(s.Jobs, v)
	}
	if finished > 0 {
		s.CacheHitRate = float64(s.Cached) / float64(finished)
		remaining := s.Total - finished
		if remaining > 0 && s.ElapsedMS > 0 {
			perJob := float64(s.ElapsedMS) / float64(finished)
			s.ETAMS = int64(perJob * float64(remaining))
		} else if remaining == 0 {
			s.ETAMS = 0
		}
	}
	return s
}
