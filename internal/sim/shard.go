package sim

// Conservative parallel discrete-event execution: the machine's tiles
// are partitioned into shards, each owning one Engine stepped by its own
// goroutine. Shards run independently inside a lookahead window bounded
// by the minimum cross-shard message latency: an event posted at cycle T
// on one shard cannot make another shard's state diverge before T+L, so
// every shard may execute the window [W, W+L) without hearing from the
// others. Cross-shard posts collect in per-shard-pair outboxes and
// merge-insert into the destination's calendar at the window barrier, in
// post-site key order (key.go), which reproduces the serial engine's
// (At, seq) execution order exactly.
//
// The group itself knows nothing about cores or coherence. The machine
// layer supplies three hooks: LocalQuiet (is this shard's slice of the
// machine idle), OnSync (apply deferred barrier arrivals, replay
// captured observer calls), and StepLocked (shrink the window to one
// cycle while a core barrier is mid-release, because a release's timing
// is only resolved one cycle at a time).

// ShardGroup owns a set of shard engines and coordinates their windows.
type ShardGroup struct {
	shards    []*shardRunner
	lookahead Cycle

	localQuiet func(shard int) bool
	onSync     func()
	stepLocked func() bool

	// BarrierStalls counts, per shard, the number of sync barriers the
	// shard reached before the slowest shard (a proxy for wall-clock
	// stall); InboxDepth is the machine-visible delivery count per sync.
	final Cycle
}

type shardRunner struct {
	eng        *Engine
	outbox     [][]Event // indexed by destination shard
	quietSince Cycle     // first continuously-quiet cycle; -1 while active
	cmd        chan Cycle
	done       chan struct{}
	delivered  int64 // events injected into this shard (telemetry)
}

// NewShardGroup builds n shard engines with a lookahead of L cycles
// (L >= 1). The engines are fresh; register steppers via RegisterPID.
func NewShardGroup(n int, lookahead Cycle) *ShardGroup {
	if n < 1 {
		panic("sim: shard group needs at least one shard")
	}
	if lookahead < 1 {
		panic("sim: lookahead must be at least one cycle")
	}
	g := &ShardGroup{lookahead: lookahead}
	for i := 0; i < n; i++ {
		e := NewEngine()
		e.sh = &shardCtx{group: g, id: i, phase: phaseOutside}
		e.far.sharded = true
		g.shards = append(g.shards, &shardRunner{
			eng:        e,
			outbox:     make([][]Event, n),
			quietSince: -1,
			cmd:        make(chan Cycle),
			done:       make(chan struct{}),
		})
	}
	return g
}

// Engine returns shard i's engine.
func (g *ShardGroup) Engine(i int) *Engine { return g.shards[i].eng }

// Shards returns the shard count.
func (g *ShardGroup) Shards() int { return len(g.shards) }

// Lookahead returns the window bound.
func (g *ShardGroup) Lookahead() Cycle { return g.lookahead }

// SetLocalQuiet installs the per-shard idleness predicate. It is called
// from the shard's own goroutine and must touch only that shard's state.
func (g *ShardGroup) SetLocalQuiet(f func(shard int) bool) { g.localQuiet = f }

// SetOnSync installs the barrier-time hook, called single-threaded with
// every shard paused.
func (g *ShardGroup) SetOnSync(f func()) { g.onSync = f }

// SetStepLocked installs the window-shrink predicate: while it returns
// true, windows are one cycle long.
func (g *ShardGroup) SetStepLocked(f func() bool) { g.stepLocked = f }

// Truncate makes shard i stop at the end of its current cycle instead of
// running to the window edge. Called from shard i's own goroutine (a
// core on the shard arrived at a machine barrier, so later cycles may
// depend on a release whose timing other shards decide).
func (g *ShardGroup) Truncate(i int) { g.shards[i].eng.sh.truncated = true }

// Send posts fn to run at absolute cycle `at` on dst's shard, keyed with
// src's current post site. Same-shard sends go straight to the calendar;
// cross-shard sends wait in the outbox until the window barrier.
// `at` must be at least lookahead cycles ahead of src's current cycle
// unless both engines are the same shard.
func (g *ShardGroup) Send(src, dst *Engine, at Cycle, fn func()) {
	if src == dst {
		if at < src.now {
			panic("sim: send into the past")
		}
		src.insertKeyed(Event{At: at, Fn: fn, key: src.newPostKey()})
		return
	}
	if at < src.now+g.lookahead {
		panic("sim: cross-shard send violates the lookahead bound")
	}
	sr := g.shards[src.sh.id]
	sr.outbox[dst.sh.id] = append(sr.outbox[dst.sh.id], Event{At: at, Fn: fn, key: src.newPostKey()})
}

// flushOutboxes merge-inserts every pending cross-shard event into its
// destination calendar. Single-threaded (all shards paused). Returns the
// number of events delivered.
func (g *ShardGroup) flushOutboxes() int {
	n := 0
	for _, src := range g.shards {
		for di, box := range src.outbox {
			if len(box) == 0 {
				continue
			}
			dst := g.shards[di]
			for i := range box {
				if box[i].At < dst.eng.now {
					panic("sim: cross-shard event arrived in the past")
				}
				dst.eng.insertKeyed(box[i])
				box[i].Fn = nil
				box[i].key = nil
			}
			n += len(box)
			dst.delivered += int64(len(box))
			dst.quietSince = -1
			src.outbox[di] = box[:0]
		}
	}
	return n
}

// Delivered returns the cumulative number of cross-shard events injected
// into shard i (telemetry).
func (g *ShardGroup) Delivered(i int) int64 { return g.shards[i].delivered }

// PendingTotal sums queued events across all shards.
func (g *ShardGroup) PendingTotal() int {
	n := 0
	for _, s := range g.shards {
		n += s.eng.pending
	}
	return n
}

// Final returns the cycle the run finished at: the exact cycle the
// serial engine's RunUntil would have stopped on.
func (g *ShardGroup) Final() Cycle { return g.final }

// runWindow is the per-shard worker body for one window.
func (s *shardRunner) runWindow(g *ShardGroup, end Cycle) {
	e := s.eng
	for e.now < end && !e.sh.truncated {
		// A quiet shard can only be woken by a cross-shard delivery,
		// and those happen at window barriers (flushOutboxes resets
		// quietSince): with no pending events every remaining tick is a
		// no-op — the only steppers are cores, and a locally-quiet
		// shard's cores are all done and asleep. Skip straight to the
		// window edge.
		if s.quietSince >= 0 && e.pending == 0 {
			e.now = end
			break
		}
		e.tickShard()
		quiet := e.pending == 0 && g.localQuiet(e.sh.id) && s.outboxEmpty()
		if quiet {
			if s.quietSince < 0 {
				s.quietSince = e.now
			}
		} else {
			s.quietSince = -1
		}
	}
	e.sh.truncated = false
}

func (s *shardRunner) outboxEmpty() bool {
	for _, b := range s.outbox {
		if len(b) != 0 {
			return false
		}
	}
	return true
}

// Run executes the shards until pred holds at a window barrier or the
// limit is reached, mirroring Engine.RunUntil. pred is evaluated
// single-threaded. On success Final() is the serial stop cycle.
func (g *ShardGroup) Run(pred func() bool, limit Cycle) bool {
	if pred() && g.PendingTotal() == 0 {
		g.final = g.minNow()
		return true
	}
	// One shard needs no worker goroutines: windows run inline on the
	// caller, so the single-shard configuration pays the window protocol
	// but no scheduler round trips.
	single := len(g.shards) == 1
	if !single {
		stop := make(chan struct{})
		for _, s := range g.shards {
			s := s
			go func() {
				for {
					select {
					case end := <-s.cmd:
						s.runWindow(g, end)
						s.done <- struct{}{}
					case <-stop:
						return
					}
				}
			}()
		}
		defer close(stop)
	}

	for {
		minNow := g.minNow()
		if minNow >= limit {
			g.final = limit
			return pred()
		}
		w := g.lookahead
		if g.stepLocked != nil && g.stepLocked() {
			w = 1
		}
		end := minNow + w
		if end > limit {
			end = limit
		}
		if single {
			g.shards[0].runWindow(g, end)
		} else {
			for _, s := range g.shards {
				s.cmd <- end
			}
			for _, s := range g.shards {
				<-s.done
			}
		}
		g.flushOutboxes()
		if g.onSync != nil {
			g.onSync()
			g.flushOutboxes()
		}
		if g.PendingTotal() == 0 && g.allQuiet() && pred() {
			g.final = g.maxQuietSince()
			return true
		}
	}
}

func (g *ShardGroup) minNow() Cycle {
	m := g.shards[0].eng.now
	for _, s := range g.shards[1:] {
		if s.eng.now < m {
			m = s.eng.now
		}
	}
	return m
}

func (g *ShardGroup) allQuiet() bool {
	for _, s := range g.shards {
		if s.quietSince < 0 {
			return false
		}
	}
	return true
}

func (g *ShardGroup) maxQuietSince() Cycle {
	m := Cycle(0)
	for _, s := range g.shards {
		if s.quietSince > m {
			m = s.quietSince
		}
	}
	return m
}

// OpIdx returns the executing context's operation counter — the number
// of posts and captures the current executor has made this cycle. A
// deferring barrier hub saves it at arrival time so the release can
// later continue the arriving stepper's counter via RunAsStepper.
func (e *Engine) OpIdx() int32 { return e.sh.opIdx }

// RunAsStepper runs f with the engine's clock and executor context
// pinned to (at, pid), as if f were part of stepper pid's Step(at) call.
// The machine uses it at sync barriers to re-run a core's step for a
// cycle its shard already passed (a barrier release resolved at the
// window edge). Event posts made inside f merge-insert and must carry a
// positive delay; the per-executor counter starts at startIdx and the
// final value is returned so a continuation can resume it.
func (e *Engine) RunAsStepper(at Cycle, pid int, startIdx int32, f func()) int32 {
	sh := e.sh
	savedNow := e.now
	savedPhase, savedPID, savedKey, savedIdx := sh.phase, sh.curPID, sh.curKey, sh.opIdx
	savedCatch := sh.catchUp
	e.now = at
	sh.phase, sh.curPID, sh.curKey, sh.opIdx = phaseStepper, int32(pid), nil, startIdx
	sh.catchUp = true
	f()
	end := sh.opIdx
	e.now = savedNow
	sh.phase, sh.curPID, sh.curKey, sh.opIdx = savedPhase, savedPID, savedKey, savedIdx
	sh.catchUp = savedCatch
	return end
}
