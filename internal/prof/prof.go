// Package prof is Pacifier's deterministic cycle-accounting layer: it
// decomposes every memop's end-to-end latency into named components —
// L1 hit/miss service, directory home occupancy and queueing, NoC hop +
// serialization cycles, pending-write (P_set/PW) stalls, store-buffer
// full stalls, barrier wait, and recorder-induced work — and accumulates
// them per core and per layer into the existing sim.Stats registry.
//
// Attribution sites are deterministic protocol points (fills, home
// dequeues, message sends, barrier releases), and every quantity is a
// counter add, so the totals of a run are as reproducible as its logs:
// the determinism fixture pins them next to the log hashes.
//
// Like the obs tracer, the layer is provably zero-cost when disabled: a
// nil *Lat / *RecLat receiver reduces every attribution call to one
// pointer compare and zero allocations (pinned by AllocsPerRun tests).
package prof

import (
	"fmt"
	"io"
	"sort"
	"strconv"
	"strings"

	"pacifier/internal/sim"
)

// Component names one attribution bucket of a memop's latency.
type Component int

const (
	// L1Hit is cycles spent servicing L1 hits (the L1HitLat pipe).
	L1Hit Component = iota
	// L1Miss is MSHR residency: cycles between an L1 miss allocating an
	// MSHR and the fill releasing it (includes the home round trip).
	L1Miss
	// Home is directory home-bank cycles: occupancy of the L2/memory
	// access plus the queue wait of requests arriving at a busy bank.
	Home
	// NoC is interconnect cycles: per-message hop latency, router
	// overhead, and flit serialization, charged to the sending tile.
	NoC
	// PW is pending-write stall cycles: the invalidation-ack epoch a
	// modified-fill with remote sharers waits out (the P_set/PW window).
	PW
	// SBFull is cycles a core's retire stage was blocked on a full
	// store buffer.
	SBFull
	// Barrier is cycles cores spent parked at barriers.
	Barrier
	// Recorder is recorder-induced work: chunk commit cost, per-entry
	// log-policy cost, and chunk-boundary squashes, charged by the same
	// per-event constants as the record/cost.go model but accumulated
	// live at the recorder's event sites (so it also counts squashed
	// chunks and degenerate boundary moves the end-of-run model never
	// sees). Recorder counters carry a trailing ".<mode>" label.
	Recorder

	// NumComponents is the number of attribution components.
	NumComponents = int(Recorder) + 1
)

// compNames are the canonical (snapshot-stable) component names.
var compNames = [NumComponents]string{
	"l1_hit", "l1_miss", "home", "noc", "pw", "sb_full", "barrier", "recorder",
}

// compHelp is the one-line description of each component.
var compHelp = [NumComponents]string{
	"L1 hit service cycles",
	"L1 miss MSHR residency cycles",
	"directory home occupancy + queue wait cycles",
	"NoC hop, router and serialization cycles",
	"pending-write (P_set/PW) invalidation-epoch stall cycles",
	"store-buffer full retire stall cycles",
	"barrier wait cycles",
	"recorder-induced work cycles (chunk commits, log entries, squashes)",
}

// String returns the canonical component name.
func (c Component) String() string {
	if c < 0 || int(c) >= NumComponents {
		return fmt.Sprintf("Component(%d)", int(c))
	}
	return compNames[c]
}

// Help returns the component's one-line description.
func (c Component) Help() string {
	if c < 0 || int(c) >= NumComponents {
		return ""
	}
	return compHelp[c]
}

// Components lists every component in declaration order.
func Components() []Component {
	out := make([]Component, NumComponents)
	for i := range out {
		out[i] = Component(i)
	}
	return out
}

// prefix is the stats namespace of every profiler counter. Counter names
// zero-pad the core id so name-sorted snapshots list cores in order.
const prefix = "prof.c"

// CounterName returns the stats-registry counter name for one core and
// component, e.g. "prof.c003.noc".
func CounterName(pid int, c Component) string {
	return fmt.Sprintf("%s%03d.%s", prefix, pid, c)
}

// RecorderCounterName returns the per-mode recorder counter name, e.g.
// "prof.c003.recorder.gra" (the Recorder component is the only
// mode-split one: several recorders observe the same execution).
func RecorderCounterName(pid int, mode string) string {
	return fmt.Sprintf("%s%03d.recorder.%s", prefix, pid, mode)
}

// ---------------------------------------------------------------------
// Hot-path accumulators
// ---------------------------------------------------------------------

// Lat accumulates machine-layer attribution for one agent (a core, an
// L1, a home bank, a NoC node — anything with a tile id). A nil *Lat is
// the disabled profiler: Add is one pointer compare.
//
// Counters resolve lazily against the stats registry passed to Add and
// re-resolve when a later Add passes a different registry. The replayer
// relies on that: a debug-session rewind (replay.Stepper.RestoreState)
// replaces its registry with one rebuilt from the checkpoint, and the
// next Add must count into the new registry, not the discarded one.
type Lat struct {
	pid   int
	bound *sim.Stats
	comps [NumComponents]*sim.Counter
}

// NewLat returns an enabled accumulator for tile/core pid.
func NewLat(pid int) *Lat { return &Lat{pid: pid} }

// Add attributes cycles to one component. Safe on a nil receiver or nil
// registry; non-positive quantities are ignored.
func (l *Lat) Add(st *sim.Stats, comp Component, cycles int64) {
	if l == nil || st == nil || cycles <= 0 {
		return
	}
	if st != l.bound {
		l.bound = st
		l.comps = [NumComponents]*sim.Counter{}
	}
	c := l.comps[comp]
	if c == nil {
		c = st.Counter(CounterName(l.pid, comp))
		l.comps[comp] = c
	}
	c.Value += cycles
}

// RecLat accumulates the Recorder component for one recorder (one mode)
// across all cores. A nil *RecLat is the disabled profiler.
type RecLat struct {
	stats *sim.Stats
	mode  string
	cs    []*sim.Counter
	total int64
}

// NewRecLat returns an enabled recorder accumulator writing per-core
// "prof.c<pid>.recorder.<mode>" counters into st.
func NewRecLat(st *sim.Stats, cores int, mode string) *RecLat {
	if st == nil {
		return nil
	}
	return &RecLat{stats: st, mode: mode, cs: make([]*sim.Counter, cores)}
}

// Add attributes recorder-induced cycles to core pid.
func (l *RecLat) Add(pid int, cycles int64) {
	if l == nil || cycles <= 0 {
		return
	}
	c := l.cs[pid]
	if c == nil {
		c = l.stats.Counter(RecorderCounterName(pid, l.mode))
		l.cs[pid] = c
	}
	c.Value += cycles
	l.total += cycles
}

// Total returns the cycles attributed so far across all cores.
func (l *RecLat) Total() int64 {
	if l == nil {
		return 0
	}
	return l.total
}

// ---------------------------------------------------------------------
// Report: parse a snapshot back into a per-core / per-layer breakdown
// ---------------------------------------------------------------------

// CoreBreakdown is one core's attributed cycles by component.
type CoreBreakdown struct {
	PID    int
	Cycles [NumComponents]int64
}

// Total returns the core's attributed cycles across all components.
func (cb *CoreBreakdown) Total() int64 {
	var t int64
	for _, v := range cb.Cycles {
		t += v
	}
	return t
}

// Report is the decoded per-core, per-layer cycle attribution of one
// run, plus the recorder component split by mode.
type Report struct {
	Cores           []CoreBreakdown
	Total           [NumComponents]int64
	RecorderByMode  map[string]int64 // mode -> cycles, all cores
	attributedTotal int64
}

// FromSnapshot decodes the "prof.*" counters of a stats snapshot.
// Unknown names under the prefix are ignored (forward compatibility).
func FromSnapshot(snap *sim.Snapshot) *Report {
	r := &Report{RecorderByMode: map[string]int64{}}
	byPID := map[int]*CoreBreakdown{}
	for _, c := range snap.Counters {
		rest, ok := strings.CutPrefix(c.Name, prefix)
		if !ok {
			continue
		}
		dot := strings.IndexByte(rest, '.')
		if dot < 0 {
			continue
		}
		pid, err := strconv.Atoi(rest[:dot])
		if err != nil {
			continue
		}
		comp, mode, ok := parseComponent(rest[dot+1:])
		if !ok {
			continue
		}
		cb := byPID[pid]
		if cb == nil {
			cb = &CoreBreakdown{PID: pid}
			byPID[pid] = cb
		}
		cb.Cycles[comp] += c.Value
		r.Total[comp] += c.Value
		r.attributedTotal += c.Value
		if comp == Recorder && mode != "" {
			r.RecorderByMode[mode] += c.Value
		}
	}
	pids := make([]int, 0, len(byPID))
	for pid := range byPID {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		r.Cores = append(r.Cores, *byPID[pid])
	}
	return r
}

// FromStats is FromSnapshot over a live registry.
func FromStats(st *sim.Stats) *Report { return FromSnapshot(st.Snapshot()) }

// parseComponent maps a counter-name tail ("noc", "recorder.gra") to a
// component and optional mode.
func parseComponent(tail string) (Component, string, bool) {
	if mode, ok := strings.CutPrefix(tail, compNames[Recorder]+"."); ok {
		return Recorder, mode, true
	}
	for i, n := range compNames {
		if tail == n {
			return Component(i), "", true
		}
	}
	return 0, "", false
}

// AttributedTotal returns the attributed cycles across every core and
// component.
func (r *Report) AttributedTotal() int64 { return r.attributedTotal }

// RecorderCycles returns the cycles attributed to one recorder mode
// across all cores.
func (r *Report) RecorderCycles(mode string) int64 { return r.RecorderByMode[mode] }

// Delta returns r - other component-wise (cores matched by PID; cores
// missing on either side contribute zeros). Used by the divergence
// explainer to diff record-side vs replay-side attribution.
func (r *Report) Delta(other *Report) *Report {
	d := &Report{RecorderByMode: map[string]int64{}}
	byPID := map[int]*CoreBreakdown{}
	add := func(src *Report, sign int64) {
		for _, cb := range src.Cores {
			dst := byPID[cb.PID]
			if dst == nil {
				dst = &CoreBreakdown{PID: cb.PID}
				byPID[cb.PID] = dst
			}
			for i, v := range cb.Cycles {
				dst.Cycles[i] += sign * v
				d.Total[i] += sign * v
				d.attributedTotal += sign * v
			}
		}
		for m, v := range src.RecorderByMode {
			d.RecorderByMode[m] += sign * v
		}
	}
	add(r, 1)
	add(other, -1)
	pids := make([]int, 0, len(byPID))
	for pid := range byPID {
		pids = append(pids, pid)
	}
	sort.Ints(pids)
	for _, pid := range pids {
		d.Cores = append(d.Cores, *byPID[pid])
	}
	return d
}

// ---------------------------------------------------------------------
// Renderers
// ---------------------------------------------------------------------

// WriteTable renders the per-layer cycle table: one row per component
// with machine-wide totals and share, then a per-core matrix.
func (r *Report) WriteTable(w io.Writer) error {
	total := r.attributedTotal
	if _, err := fmt.Fprintf(w, "%-10s %16s %7s  %s\n", "component", "cycles", "share", "description"); err != nil {
		return err
	}
	for _, c := range Components() {
		share := 0.0
		if total > 0 {
			share = float64(r.Total[c]) / float64(total) * 100
		}
		if _, err := fmt.Fprintf(w, "%-10s %16d %6.2f%%  %s\n", c, r.Total[c], share, c.Help()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintf(w, "%-10s %16d %6.2f%%\n", "total", total, 100.0); err != nil {
		return err
	}
	if len(r.RecorderByMode) > 1 {
		modes := make([]string, 0, len(r.RecorderByMode))
		for m := range r.RecorderByMode {
			modes = append(modes, m)
		}
		sort.Strings(modes)
		for _, m := range modes {
			if _, err := fmt.Fprintf(w, "%-10s %16d          recorder component, mode %s\n",
				"  "+m, r.RecorderByMode[m], m); err != nil {
				return err
			}
		}
	}
	if len(r.Cores) == 0 {
		return nil
	}
	if _, err := fmt.Fprintf(w, "\n%-6s", "core"); err != nil {
		return err
	}
	for _, c := range Components() {
		if _, err := fmt.Fprintf(w, " %12s", c.String()); err != nil {
			return err
		}
	}
	if _, err := fmt.Fprintln(w); err != nil {
		return err
	}
	for i := range r.Cores {
		cb := &r.Cores[i]
		if _, err := fmt.Fprintf(w, "c%-5d", cb.PID); err != nil {
			return err
		}
		for _, v := range cb.Cycles {
			if _, err := fmt.Fprintf(w, " %12d", v); err != nil {
				return err
			}
		}
		if _, err := fmt.Fprintln(w); err != nil {
			return err
		}
	}
	return nil
}

// WriteFolded renders the attribution as folded stacks
// ("core3;noc 1234" per line), the input format of every flamegraph
// tool. Output is deterministic: cores ascending, components in
// declaration order, zero rows skipped.
func (r *Report) WriteFolded(w io.Writer) error {
	for i := range r.Cores {
		cb := &r.Cores[i]
		for _, c := range Components() {
			v := cb.Cycles[c]
			if v == 0 {
				continue
			}
			if _, err := fmt.Fprintf(w, "core%d;%s %d\n", cb.PID, c, v); err != nil {
				return err
			}
		}
	}
	return nil
}
