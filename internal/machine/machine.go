// Package machine assembles the full simulated multiprocessor: engine,
// mesh, coherent memory system, and one RC core per tile executing one
// workload thread. It is the substrate every experiment runs on —
// the stand-in for the paper's SESC setup (Table 4).
package machine

import (
	"fmt"

	"pacifier/internal/coherence"
	"pacifier/internal/cpu"
	"pacifier/internal/noc"
	"pacifier/internal/obs"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// Observer is the combined recording interface: core-side events (PW,
// retire, perform) and coherence-side events (dependences, §3.2).
type Observer interface {
	cpu.Observer
	coherence.Observer
}

// nopCore and nopMem give the two embedded no-op observers distinct
// field names.
type (
	nopCore = cpu.NopObserver
	nopMem  = coherence.NopObserver
)

// NopObserver ignores everything.
type NopObserver struct {
	nopCore
	nopMem
}

var _ Observer = NopObserver{}

// Config describes a whole machine.
type Config struct {
	Cores int
	Seed  uint64
	CPU   cpu.Config
	Mem   coherence.Config
	Noc   noc.Config
	// Tracer, when non-nil, receives structured events from every
	// layer (NoC, coherence, cores). Nil = tracing off: the hot paths
	// pay exactly one pointer compare each.
	Tracer *obs.Tracer
	// Profile enables cycle accounting: every layer attributes stall and
	// service cycles to named prof.* counters (see internal/prof). Off,
	// the hot paths pay one nil compare each.
	Profile bool
}

// DefaultConfig returns the Table 4 machine for n cores.
func DefaultConfig(n int) Config {
	return Config{
		Cores: n,
		Seed:  1,
		CPU:   cpu.DefaultConfig(),
		Mem:   coherence.DefaultConfig(n),
		Noc:   noc.DefaultConfig(n),
	}
}

// Machine is one assembled simulation instance.
type Machine struct {
	Cfg   Config
	Eng   *sim.Engine
	Stats *sim.Stats
	Mesh  *noc.Mesh
	Sys   *coherence.System
	Cores []*cpu.Core
	Hub   *cpu.BarrierHub

	workload *trace.Workload
}

// New builds a machine executing workload w, reporting to obs (nil for
// none). The workload must have exactly cfg.Cores threads.
func New(cfg Config, w *trace.Workload, obs Observer) (*Machine, error) {
	if err := w.Validate(); err != nil {
		return nil, err
	}
	if len(w.Threads) != cfg.Cores {
		return nil, fmt.Errorf("machine: workload %q has %d threads, machine has %d cores",
			w.Name, len(w.Threads), cfg.Cores)
	}
	if obs == nil {
		obs = NopObserver{}
	}
	eng := sim.NewEngine()
	stats := sim.NewStats()
	mesh := noc.New(eng, cfg.Noc, stats)
	mesh.SetTracer(cfg.Tracer)
	sys := coherence.NewSystem(eng, mesh, cfg.Mem, stats, obs)
	sys.SetTracer(cfg.Tracer)
	if cfg.Profile {
		mesh.SetProfile(true)
		sys.SetProfile(true)
	}
	hub := cpu.NewBarrierHub(cfg.Cores)
	root := sim.NewRNG(cfg.Seed)
	m := &Machine{
		Cfg:      cfg,
		Eng:      eng,
		Stats:    stats,
		Mesh:     mesh,
		Sys:      sys,
		Hub:      hub,
		workload: w,
	}
	for pid := 0; pid < cfg.Cores; pid++ {
		core := cpu.NewCore(pid, cfg.CPU, eng, sys.L1(pid), w.Threads[pid],
			hub, obs, root.SplitLabeled(uint64(pid)+0x9000))
		core.Instrument(stats, cfg.Tracer)
		core.SetProfile(cfg.Profile)
		m.Cores = append(m.Cores, core)
	}
	return m, nil
}

// Done reports whether every core has finished and the memory system is
// quiet.
func (m *Machine) Done() bool {
	for _, c := range m.Cores {
		if !c.Done() {
			return false
		}
	}
	return m.Sys.Quiesced()
}

// Run executes until completion or limit cycles, returning an error on
// timeout (deadlock or livelock in the workload or protocol).
func (m *Machine) Run(limit sim.Cycle) error {
	if m.Eng.RunUntil(m.Done, limit) {
		return nil
	}
	states := ""
	for _, c := range m.Cores {
		if !c.Done() {
			states += "\n  " + c.String()
		}
	}
	return fmt.Errorf("machine: %q did not finish in %d cycles; stuck cores:%s",
		m.workload.Name, limit, states)
}

// Cycles returns the elapsed simulated time.
func (m *Machine) Cycles() sim.Cycle { return m.Eng.Now() }

// Records returns core pid's functional execution outcomes.
func (m *Machine) Records(pid int) []cpu.ExecRecord { return m.Cores[pid].Records() }

// TotalMemOps returns the number of retired memory operations.
func (m *Machine) TotalMemOps() int64 {
	var n int64
	for _, c := range m.Cores {
		n += c.Retired()
	}
	return n
}

// Workload returns the workload the machine executes.
func (m *Machine) Workload() *trace.Workload { return m.workload }
