package cpu

import (
	"fmt"

	"pacifier/internal/coherence"
	"pacifier/internal/obs"
	"pacifier/internal/prof"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// Config describes one core (Table 4 defaults via DefaultConfig).
type Config struct {
	Width      int // dispatch/retire width per cycle
	Window     int // ROB entries
	SBSize     int // store buffer entries
	SBDelayMax int // extra randomized store drain delay, uniform [0, max]
	MaxSBIssue int // stores concurrently in flight from the SB
	SpinMin    int // acquire retry backoff range
	SpinMax    int
}

// DefaultConfig returns the paper's core parameters: 4-issue, 128-entry
// ROB, 32-entry store buffer with 0-50 cycle randomized delays.
func DefaultConfig() Config {
	return Config{
		Width:      4,
		Window:     128,
		SBSize:     32,
		SBDelayMax: 50,
		MaxSBIssue: 4,
		SpinMin:    40,
		SpinMax:    120,
	}
}

// inst is one window (ROB) entry.
type inst struct {
	op        trace.Op
	sn        SN
	performed bool
	issued    bool
	issuedAt  sim.Cycle // acquire: spin-time accounting
}

// sbEntry is one store-buffer entry.
type sbEntry struct {
	addr      coherence.Addr
	val       uint64
	sn        SN
	release   bool
	readyAt   sim.Cycle
	issued    bool
	completed bool
}

// fwdEntry supports store-to-load forwarding inside the core.
type fwdEntry struct {
	sn  SN
	val uint64
}

// rmwRetry is a pooled spin-retry event: re-arming a busy lock's RMW
// must not allocate a fresh closure on every backoff.
type rmwRetry struct {
	c  *Core
	sn SN
	fn func()
}

func (rt *rmwRetry) fire() {
	c, sn := rt.c, rt.sn
	c.retryFree = append(c.retryFree, rt)
	c.issueRMW(sn)
}

// Core executes one thread's trace against its L1, reordering per RC.
//
// The window and store buffer are fixed-capacity rings of values; memory
// ops are identified by SN in the L1's completion callbacks, so the
// steady-state issue/complete path allocates nothing.
type Core struct {
	pid  int
	cfg  Config
	eng  *sim.Engine
	sid  int // stepper index in eng, the handle for Sleep and Wake
	l1   *coherence.L1
	obs  Observer
	rng  *sim.RNG
	hub  *BarrierHub
	prog trace.Thread

	pc     int
	nextSN SN

	win     []inst // ring: window entries, SN-contiguous oldest-first
	winHead int
	winLen  int

	sb       []sbEntry // ring: store buffer, SN order oldest-first
	sbHead   int
	sbLen    int
	sbIssued int // issued entries form the ring's prefix (FIFO issue)

	sbInFlight  int
	busyUntil   sim.Cycle
	atBarrier   bool
	barrierFrom sim.Cycle

	// sbFullAt is the cycle of the Step the core fell asleep after
	// with retire stalled on a full store buffer, or -1. Every cycle
	// it sleeps through is one more stall cycle to attribute.
	sbFullAt sim.Cycle

	// pendAcq lists the SNs of unperformed acquires in the window, in
	// program order (acquires also perform in program order, so the head
	// is always the oldest). Empty means no issue is acquire-blocked.
	pendAcq []SN

	// forwarding: per word address, values of stores still buffered.
	// fwdIDs interns each address stored to; fwd[id] is its list, kept
	// (possibly empty) once created: the same addresses recur, and
	// retained capacity makes the next append to a word free.
	fwdIDs  sim.Index
	fwd     [][]fwdEntry
	fwdSlab []fwdEntry // backing store per-address forward lists carve from

	// Pre-bound completion callbacks handed to the L1 (one closure each
	// per core for the whole run, instead of one per memory op).
	loadDoneFn   func(SN, uint64)
	storeLocalFn func(SN)
	storeDoneFn  func(SN)
	rmwUpdateFn  func(uint64) (uint64, bool)
	rmwDoneFn    func(SN, uint64, bool)

	retryFree []*rmwRetry

	recs []ExecRecord

	retired        int64
	performedLoads int64

	// Observability (nil when disabled): tr receives store-buffer
	// drain events; hDrainDelay samples the randomized SB delay each
	// buffered store is assigned at retire.
	tr          *obs.Tracer
	hDrainDelay *sim.Histogram

	// Cycle accounting (nil when disabled): lat attributes SB-full
	// retire stalls and barrier waits into stats.
	lat   *prof.Lat
	stats *sim.Stats
}

// Instrument attaches the observability hooks: the drain-delay
// histogram in stats (nil stats = no histogram) and the event tracer
// (nil = tracing off; the hot paths then cost one nil compare).
func (c *Core) Instrument(stats *sim.Stats, tr *obs.Tracer) {
	c.tr = tr
	c.stats = stats
	if stats != nil {
		c.hDrainDelay = stats.Histogram("cpu.sb_drain_delay")
	}
}

// SetProfile enables (or disables) per-component cycle attribution for
// this core. Requires Instrument to have provided a stats registry.
func (c *Core) SetProfile(on bool) {
	if on {
		c.lat = prof.NewLat(c.pid)
	} else {
		c.lat = nil
	}
}

// NewCore builds a core and registers it as one of eng's steppers.
// Cores must be built in ascending pid order per engine. rng must be a
// dedicated stream for this core.
func NewCore(pid int, cfg Config, eng *sim.Engine, l1 *coherence.L1,
	prog trace.Thread, hub *BarrierHub, obs Observer, rng *sim.RNG) *Core {
	if obs == nil {
		obs = NopObserver{}
	}
	if cfg.Window <= 0 {
		cfg.Window = 1
	}
	if cfg.SBSize <= 0 {
		cfg.SBSize = 1
	}
	nops := 0
	for _, op := range prog {
		if op.Kind.IsMem() {
			nops++
		}
	}
	c := &Core{
		pid:  pid,
		cfg:  cfg,
		eng:  eng,
		l1:   l1,
		obs:  obs,
		rng:  rng,
		hub:  hub,
		prog: prog,
		win:  make([]inst, cfg.Window),
		sb:   make([]sbEntry, cfg.SBSize),
		recs: make([]ExecRecord, 0, nops),

		sbFullAt: -1,
	}
	c.loadDoneFn = c.loadDone
	c.storeLocalFn = c.storeLocal
	c.storeDoneFn = c.storeDone
	c.rmwUpdateFn = func(old uint64) (uint64, bool) { return 1, old == 0 }
	c.rmwDoneFn = c.rmwDone
	c.sid = eng.Register(c)
	return c
}

// Done reports whether the core has fully executed and drained.
func (c *Core) Done() bool {
	return c.pc >= len(c.prog) && c.winLen == 0 && c.sbLen == 0
}

// Records returns the functional outcome of every memory operation, in
// SN order (index sn-1).
func (c *Core) Records() []ExecRecord { return c.recs }

// Retired returns the number of retired memory operations.
func (c *Core) Retired() int64 { return c.retired }

// instAt returns the i-th oldest window entry.
func (c *Core) instAt(i int) *inst { return &c.win[(c.winHead+i)%len(c.win)] }

// instBySN locates a window entry by SN. The window is SN-contiguous
// (every window resident got consecutive SNs at dispatch), so this is a
// single index computation. The entry must still be in the window —
// true for every completion callback, since loads and acquires cannot
// retire before they perform.
func (c *Core) instBySN(sn SN) *inst {
	i := int(sn - (c.nextSN - SN(c.winLen) + 1))
	if i < 0 || i >= c.winLen {
		panic(fmt.Sprintf("cpu: completion for SN %d outside the window", sn))
	}
	return &c.win[(c.winHead+i)%len(c.win)]
}

// Step advances the core one cycle: retire from the window head, drain
// the store buffer, and dispatch new operations. The engine steps a core
// only on cycles where it can act: a Step that changes nothing puts the
// core to sleep until time alone could change something (see sleep),
// and every completion callback wakes it. A core waiting out a Compute
// op, parked at a barrier, or finished therefore costs nothing per
// cycle.
func (c *Core) Step(now sim.Cycle) {
	if c.sbFullAt >= 0 {
		// Every skipped cycle would have been one more SB-full stall.
		c.lat.Add(c.stats, prof.SBFull, int64(now-c.sbFullAt-1))
		c.sbFullAt = -1
	}
	retired := c.retire(now)
	drained := c.drainSB(now)
	dispatched := c.dispatch(now)
	if !retired && !drained && !dispatched {
		c.sleep(now)
	}
}

// sleep parks the core after a Step that changed nothing. Until a
// completion callback wakes it, every later Step would change nothing
// either, except where time alone unblocks a stage: dispatch resumes at
// busyUntil, and the oldest unissued store may issue once its drain
// delay expires (if an issue slot is free). The core sleeps until the
// earliest of those, or until woken.
//
// A skipped Step would have had one side effect: the one-cycle SB-full
// stall retire attributes when the window head is a store and the store
// buffer is full. sbFullAt makes the next Step charge those cycles.
func (c *Core) sleep(now sim.Cycle) {
	at := sim.Never
	if c.busyUntil > now && c.pc < len(c.prog) {
		at = c.busyUntil
	}
	if c.sbIssued < c.sbLen && c.sbInFlight < c.cfg.MaxSBIssue {
		if r := c.sb[(c.sbHead+c.sbIssued)%len(c.sb)].readyAt; r > now && r < at {
			at = r
		}
	}
	if c.lat != nil && c.retireStalledOnSB() {
		c.sbFullAt = now
	}
	c.eng.Sleep(c.sid, at)
}

// wake ends the core's sleep: a completion callback changed its state.
func (c *Core) wake() { c.eng.Wake(c.sid) }

// ---------------------------------------------------------------------
// Dispatch
// ---------------------------------------------------------------------

// dispatch consumes up to Width ops from the trace and reports whether
// it consumed any.
func (c *Core) dispatch(now sim.Cycle) bool {
	start := c.pc
	for n := 0; n < c.cfg.Width; n++ {
		if c.atBarrier || now < c.busyUntil || c.pc >= len(c.prog) {
			break
		}
		op := c.prog[c.pc]
		switch op.Kind {
		case trace.Compute:
			c.busyUntil = now + sim.Cycle(op.Cycles)
			c.pc++
			return true
		case trace.Barrier:
			// Full fence: wait for the window and SB to drain, then park.
			if c.winLen != 0 || c.sbLen != 0 {
				return c.pc != start
			}
			c.atBarrier = true
			c.barrierFrom = now
			c.pc++
			id := op.ID
			c.hub.Arrive(id, func() {
				c.atBarrier = false
				c.lat.Add(c.stats, prof.Barrier, int64(c.eng.Now()-c.barrierFrom))
				c.obs.OnIdle(c.pid, int64(c.eng.Now()-c.barrierFrom))
				c.wake()
			})
			return true
		}
		if c.winLen >= c.cfg.Window {
			break
		}
		c.pc++
		c.nextSN++
		sn := c.nextSN
		i := (c.winHead + c.winLen) % len(c.win)
		c.win[i] = inst{op: op, sn: sn}
		c.winLen++
		c.recs = append(c.recs, ExecRecord{SN: sn, Kind: op.Kind, Addr: op.Addr})
		c.obs.OnDispatch(c.pid, sn, op.Kind, op.Addr)
		switch op.Kind {
		case trace.Read:
			c.tryIssueLoad(&c.win[i])
		case trace.Acquire:
			c.pendAcq = append(c.pendAcq, sn)
			c.tryIssueAcquire(&c.win[i])
		case trace.Write:
			// Stores issue from the SB after retirement; register the
			// value for store-to-load forwarding now.
			v := StoreValue(c.pid, sn)
			c.recs[sn-1].Value = v
			id, added := c.fwdIDs.Intern(uint64(op.Addr))
			if added {
				// First store to this word: carve a small array from the
				// slab rather than allocating per address.
				if len(c.fwdSlab) < 4 {
					c.fwdSlab = make([]fwdEntry, 1024)
				}
				c.fwd = append(c.fwd, c.fwdSlab[:0:4])
				c.fwdSlab = c.fwdSlab[4:]
			}
			c.fwd[id] = append(c.fwd[id], fwdEntry{sn, v})
		case trace.Release:
			c.recs[sn-1].Value = 0 // release writes zero (unlock)
		}
	}
	return c.pc != start
}

// blockedByAcquire reports whether an older unperformed Acquire precedes
// sn in the window (acquire semantics: younger ops do not issue).
func (c *Core) blockedByAcquire(sn SN) bool {
	return len(c.pendAcq) > 0 && c.pendAcq[0] < sn
}

func (c *Core) tryIssueLoad(in *inst) {
	if in.issued || in.performed {
		return
	}
	if c.blockedByAcquire(in.sn) {
		return // re-attempted when the acquire performs
	}
	// Store-to-load forwarding: youngest older buffered store to the
	// same word wins.
	if id, ok := c.fwdIDs.Get(uint64(in.op.Addr)); ok {
		list := c.fwd[id]
		var best *fwdEntry
		for i := range list {
			if list[i].sn < in.sn && (best == nil || list[i].sn > best.sn) {
				best = &list[i]
			}
		}
		if best != nil {
			in.issued = true
			c.obs.OnLoadForwarded(c.pid, in.sn, best.sn, best.val)
			c.loadDone(in.sn, best.val)
			return
		}
	}
	in.issued = true
	c.l1.Load(in.op.Addr, in.sn, c.loadDoneFn)
}

func (c *Core) loadDone(sn SN, v uint64) {
	in := c.instBySN(sn)
	in.performed = true
	c.wake()
	c.performedLoads++
	c.recs[sn-1].Value = v
	c.obs.OnLoadValue(c.pid, sn, in.op.Addr, v)
	c.obs.OnPerformed(c.pid, sn)
}

func (c *Core) tryIssueAcquire(in *inst) {
	if in.issued || in.performed {
		return
	}
	if c.blockedByAcquire(in.sn) {
		return
	}
	in.issued = true
	in.issuedAt = c.eng.Now()
	c.issueRMW(in.sn)
}

func (c *Core) issueRMW(sn SN) {
	in := c.instBySN(sn)
	c.l1.RMW(in.op.Addr, sn, c.rmwUpdateFn, c.rmwDoneFn)
}

func (c *Core) rmwDone(sn SN, old uint64, applied bool) {
	if !applied {
		// Lock busy: spin with randomized backoff.
		backoff := sim.Cycle(c.rng.Range(c.cfg.SpinMin, c.cfg.SpinMax))
		c.eng.After(backoff, c.getRetry(sn))
		return
	}
	in := c.instBySN(sn)
	in.performed = true
	c.wake()
	c.acquirePerformed(sn)
	c.recs[sn-1].Value = old
	c.recs[sn-1].Applied = true
	// Report lock-spin time beyond one round trip as idle:
	// replay re-creates the waiting through chunk order, so
	// counting it in chunk durations would serialize what the
	// recording overlapped.
	if waited := c.eng.Now() - in.issuedAt - 100; waited > 0 {
		c.obs.OnIdle(c.pid, int64(waited))
	}
	c.obs.OnPerformed(c.pid, sn)
	// Acquire performed: unblock younger deferred issue.
	c.wakeAfterAcquire(sn)
}

// acquirePerformed drops sn from the pending-acquire list. Acquires
// perform in program order (a younger one cannot issue while an older
// one is unperformed), so sn is the head in all but defensive cases.
func (c *Core) acquirePerformed(sn SN) {
	for i, p := range c.pendAcq {
		if p == sn {
			c.pendAcq = append(c.pendAcq[:i], c.pendAcq[i+1:]...)
			return
		}
	}
}

func (c *Core) getRetry(sn SN) func() {
	var rt *rmwRetry
	if n := len(c.retryFree); n > 0 {
		rt = c.retryFree[n-1]
		c.retryFree = c.retryFree[:n-1]
	} else {
		rt = &rmwRetry{c: c}
		rt.fn = rt.fire
	}
	rt.sn = sn
	return rt.fn
}

// wakeAfterAcquire re-attempts issue for operations that were deferred
// behind the acquire.
func (c *Core) wakeAfterAcquire(sn SN) {
	for i := 0; i < c.winLen; i++ {
		in := c.instAt(i)
		if in.sn <= sn {
			continue
		}
		switch in.op.Kind {
		case trace.Read:
			c.tryIssueLoad(in)
		case trace.Acquire:
			c.tryIssueAcquire(in)
			if !in.performed {
				// Still spinning or blocked: nothing younger may issue.
				return
			}
		}
		if in.op.Kind == trace.Acquire && !in.performed {
			return
		}
	}
}

// ---------------------------------------------------------------------
// Retire
// ---------------------------------------------------------------------

// retire retires up to Width ops from the window head, moving stores
// into the store buffer, and reports whether it retired any.
func (c *Core) retire(now sim.Cycle) bool {
	n := 0
	for ; n < c.cfg.Width && c.winLen > 0; n++ {
		in := &c.win[c.winHead]
		switch in.op.Kind {
		case trace.Read, trace.Acquire:
			if !in.performed {
				return n > 0
			}
		case trace.Write, trace.Release:
			if c.sbLen >= c.cfg.SBSize {
				// SB full: retirement stalls this cycle (retire runs once
				// per cycle, so the blocked attempt is worth one cycle).
				c.lat.Add(c.stats, prof.SBFull, 1)
				return n > 0
			}
			delay := sim.Cycle(0)
			if c.cfg.SBDelayMax > 0 {
				delay = sim.Cycle(c.rng.Intn(c.cfg.SBDelayMax + 1))
			}
			if c.hDrainDelay != nil {
				c.hDrainDelay.Observe(int64(delay))
			}
			j := (c.sbHead + c.sbLen) % len(c.sb)
			c.sb[j] = sbEntry{
				addr:    in.op.Addr,
				val:     c.recs[in.sn-1].Value,
				sn:      in.sn,
				release: in.op.Kind == trace.Release,
				readyAt: now + delay,
			}
			c.sbLen++
		}
		sn := in.sn
		c.winHead = (c.winHead + 1) % len(c.win)
		c.winLen--
		c.retired++
		c.obs.OnRetire(c.pid, sn)
	}
	return n > 0
}

// retireStalledOnSB reports whether retire is blocked on a full store
// buffer: the window head is a store with no SB entry to move into.
func (c *Core) retireStalledOnSB() bool {
	if c.winLen == 0 || c.sbLen < c.cfg.SBSize {
		return false
	}
	k := c.win[c.winHead].op.Kind
	return k == trace.Write || k == trace.Release
}

// ---------------------------------------------------------------------
// Store buffer
// ---------------------------------------------------------------------

// drainSB frees completed entries from the store buffer's head and
// issues at most one more, reporting whether it did either.
func (c *Core) drainSB(now sim.Cycle) bool {
	// Free completed entries from the head (FIFO deallocation).
	freed := false
	for c.sbLen > 0 && c.sb[c.sbHead].completed {
		c.sbHead = (c.sbHead + 1) % len(c.sb)
		c.sbLen--
		c.sbIssued--
		freed = true
	}
	if c.sbInFlight >= c.cfg.MaxSBIssue {
		return freed
	}
	if c.sbIssued >= c.sbLen {
		return freed // everything in flight already
	}
	// Issue the oldest unissued entry (FIFO issue, out-of-order
	// completion: this is where store-store reordering comes from).
	e := &c.sb[(c.sbHead+c.sbIssued)%len(c.sb)]
	if now < e.readyAt {
		return freed
	}
	if e.release && !c.oldersComplete() {
		// Release semantics: wait for all older stores to perform.
		return freed
	}
	e.issued = true
	c.sbIssued++
	c.sbInFlight++
	if c.tr != nil {
		c.tr.SBDrain(c.pid, int64(e.sn), int64(now), int64(e.addr),
			int64(c.sbLen-c.sbIssued))
	}
	c.l1.Store(e.addr, e.val, e.sn, c.storeLocalFn, c.storeDoneFn)
	return true
}

// oldersComplete reports whether every SB entry older than the first
// unissued one has completed (they are exactly the issued prefix).
func (c *Core) oldersComplete() bool {
	for i := 0; i < c.sbIssued; i++ {
		if !c.sb[(c.sbHead+i)%len(c.sb)].completed {
			return false
		}
	}
	return true
}

func (c *Core) storeLocal(SN) {}

func (c *Core) storeDone(sn SN) {
	// Only issued entries can complete; they form the ring's prefix.
	for i := 0; i < c.sbIssued; i++ {
		e := &c.sb[(c.sbHead+i)%len(c.sb)]
		if e.sn == sn {
			e.completed = true
			c.sbInFlight--
			c.wake()
			c.storeGloballyPerformed(e.addr, sn)
			return
		}
	}
	panic(fmt.Sprintf("cpu: completion for SN %d not in the store buffer", sn))
}

func (c *Core) storeGloballyPerformed(addr coherence.Addr, sn SN) {
	// Remove the forwarding entry: the value is now in the memory system.
	if id, ok := c.fwdIDs.Get(uint64(addr)); ok {
		list := c.fwd[id]
		for i := range list {
			if list[i].sn == sn {
				c.fwd[id] = append(list[:i], list[i+1:]...)
				break
			}
		}
	}
	c.obs.OnPerformed(c.pid, sn)
}

// String summarizes core state for debugging deadlocks.
func (c *Core) String() string {
	return fmt.Sprintf("core%d{pc=%d/%d win=%d sb=%d barrier=%v}",
		c.pid, c.pc, len(c.prog), c.winLen, c.sbLen, c.atBarrier)
}
