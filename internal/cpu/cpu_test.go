package cpu

import (
	"testing"

	"pacifier/internal/coherence"
	"pacifier/internal/noc"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

func TestBarrierHubFiresWhenAllArrive(t *testing.T) {
	hub := NewBarrierHub(3)
	fired := 0
	for i := 0; i < 2; i++ {
		hub.Arrive(0, func() { fired++ })
	}
	if fired != 0 {
		t.Fatal("barrier fired early")
	}
	if hub.Waiting(0) != 2 {
		t.Fatalf("waiting %d", hub.Waiting(0))
	}
	hub.Arrive(0, func() { fired++ })
	if fired != 3 {
		t.Fatalf("fired %d, want 3", fired)
	}
	if hub.Waiting(0) != 0 {
		t.Fatal("barrier state not reset")
	}
}

func TestBarrierHubIndependentIDs(t *testing.T) {
	hub := NewBarrierHub(2)
	a, b := 0, 0
	hub.Arrive(0, func() { a++ })
	hub.Arrive(1, func() { b++ })
	if a != 0 || b != 0 {
		t.Fatal("cross-barrier interference")
	}
	hub.Arrive(1, func() { b++ })
	if b != 2 || a != 0 {
		t.Fatalf("a=%d b=%d", a, b)
	}
}

func TestStoreValueUnique(t *testing.T) {
	seen := map[uint64]bool{}
	for pid := 0; pid < 8; pid++ {
		for sn := SN(1); sn <= 64; sn++ {
			v := StoreValue(pid, sn)
			if v == 0 || seen[v] {
				t.Fatalf("StoreValue(%d,%d) collides", pid, sn)
			}
			seen[v] = true
		}
	}
}

// obsLog captures observer callbacks for order assertions.
type obsLog struct {
	NopObserver
	dispatches []SN
	retires    []SN
	performs   []SN
}

func (o *obsLog) OnDispatch(pid int, sn SN, k trace.OpKind, a coherence.Addr) {
	o.dispatches = append(o.dispatches, sn)
}
func (o *obsLog) OnRetire(pid int, sn SN)    { o.retires = append(o.retires, sn) }
func (o *obsLog) OnPerformed(pid int, sn SN) { o.performs = append(o.performs, sn) }

// runCore executes one single-core program to completion.
func runCore(t *testing.T, prog trace.Thread, obs Observer) *Core {
	t.Helper()
	eng := sim.NewEngine()
	st := sim.NewStats()
	mesh := noc.New(eng, noc.DefaultConfig(1), st)
	sys := coherence.NewSystem(eng, mesh, coherence.DefaultConfig(1), st, nil)
	hub := NewBarrierHub(1)
	c := NewCore(0, DefaultConfig(), eng, sys.L1(0), prog, hub, obs, sim.NewRNG(1))
	if !eng.RunUntil(func() bool { return c.Done() && sys.Quiesced() }, 1_000_000) {
		t.Fatalf("core did not finish: %s", c)
	}
	return c
}

func TestCoreDispatchAndRetireInProgramOrder(t *testing.T) {
	var prog trace.Thread
	for i := 0; i < 20; i++ {
		kind := trace.Write
		if i%2 == 0 {
			kind = trace.Read
		}
		prog = append(prog, trace.Op{Kind: kind, Addr: trace.SharedWord(i, 0)})
	}
	obs := &obsLog{}
	c := runCore(t, prog, obs)
	if c.Retired() != 20 {
		t.Fatalf("retired %d", c.Retired())
	}
	for i := range obs.dispatches {
		if obs.dispatches[i] != SN(i+1) {
			t.Fatalf("dispatch order broken at %d", i)
		}
		if obs.retires[i] != SN(i+1) {
			t.Fatalf("retire order broken at %d", i)
		}
	}
	if len(obs.performs) != 20 {
		t.Fatalf("%d performs", len(obs.performs))
	}
}

func TestCoreRecordsCompute(t *testing.T) {
	prog := trace.Thread{
		{Kind: trace.Compute, Cycles: 50},
		{Kind: trace.Write, Addr: trace.SharedWord(0, 0)},
	}
	c := runCore(t, prog, nil)
	recs := c.Records()
	if len(recs) != 1 || recs[0].Kind != trace.Write {
		t.Fatalf("compute leaked into records: %+v", recs)
	}
}

func TestCoreAcquireBlocksYoungerLoads(t *testing.T) {
	// A load after an acquire must not perform before the acquire.
	lock := trace.LockAddr(0)
	x := trace.SharedWord(0, 0)
	prog := trace.Thread{
		{Kind: trace.Acquire, Addr: lock}, // sn 1
		{Kind: trace.Read, Addr: x},       // sn 2
		{Kind: trace.Release, Addr: lock}, // sn 3
	}
	obs := &obsLog{}
	runCore(t, prog, obs)
	var acqIdx, loadIdx int = -1, -1
	for i, sn := range obs.performs {
		if sn == 1 {
			acqIdx = i
		}
		if sn == 2 {
			loadIdx = i
		}
	}
	if acqIdx < 0 || loadIdx < 0 || loadIdx < acqIdx {
		t.Fatalf("load performed before acquire: %v", obs.performs)
	}
}

func TestCoreStoresCanPerformOutOfOrder(t *testing.T) {
	// Two stores to different lines: completion order may differ from
	// program order across seeds (RC). We only require that both
	// complete and the records hold the right values.
	prog := trace.Thread{
		{Kind: trace.Write, Addr: trace.SharedWord(0, 0)},
		{Kind: trace.Write, Addr: trace.SharedWord(1, 0)},
	}
	c := runCore(t, prog, nil)
	recs := c.Records()
	if recs[0].Value != StoreValue(0, 1) || recs[1].Value != StoreValue(0, 2) {
		t.Fatalf("store values wrong: %+v", recs)
	}
}

func TestCoreIdleReportedAtBarrier(t *testing.T) {
	// Two cores, one barrier; the fast core waits and must report idle.
	eng := sim.NewEngine()
	st := sim.NewStats()
	mesh := noc.New(eng, noc.DefaultConfig(2), st)
	sys := coherence.NewSystem(eng, mesh, coherence.DefaultConfig(2), st, nil)
	hub := NewBarrierHub(2)
	idle := map[int]int64{}
	obs := &idleObs{idle: idle}
	fast := trace.Thread{{Kind: trace.Barrier, ID: 0}}
	slow := trace.Thread{{Kind: trace.Compute, Cycles: 500}, {Kind: trace.Barrier, ID: 0}}
	c0 := NewCore(0, DefaultConfig(), eng, sys.L1(0), fast, hub, obs, sim.NewRNG(1))
	c1 := NewCore(1, DefaultConfig(), eng, sys.L1(1), slow, hub, obs, sim.NewRNG(2))
	if !eng.RunUntil(func() bool { return c0.Done() && c1.Done() }, 100000) {
		t.Fatal("barrier never released")
	}
	if idle[0] < 400 {
		t.Fatalf("fast core reported %d idle cycles, want ~500", idle[0])
	}
}

type idleObs struct {
	NopObserver
	idle map[int]int64
}

func (o *idleObs) OnIdle(pid int, cycles int64) { o.idle[pid] += cycles }
