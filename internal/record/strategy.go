package record

import "pacifier/internal/trace"

// This file makes the recorder's strategy axis first-class. A Strategy
// is the pairing of two independent policies:
//
//   - BoundaryPolicy: where the closing boundary of a chunk lands at a
//     cyclic termination (Table 2's boundary-movement column).
//   - LogPolicy: which reordered accesses Relog must record (the
//     logging column: nothing, everything, pending-at-bound,
//     boundary-visible, oracle-gated, or racing-only).
//
// The six paper modes and the crd recorder are all built from these
// pieces; the Recorder itself is policy-free and consults r.strat at
// the handful of decision points. The pairing is sealed inside the
// package (hooks receive *coreState), but adding a strategy is three
// local edits: a Mode constant + name (mode.go), and a case in
// strategyFor pairing existing or new policies.
//
// Contract (what a policy may and may not do):
//
//   - Boundary is a pure function of the core's registers (MRR, MRPS,
//     PW occupancy) and the terminating destination; the Recorder —
//     not the policy — pins the result upward to maxSrcSN and
//     startSN-1, so policies never see promised-source constraints.
//   - LogDelayed decides, per cyclic termination, whether a
//     destination that landed in the closed region is recorded. It
//     must be pure: the Recorder traces its outcome (SCVDetect /
//     SCVSuppress) and replays depend on it deterministically.
//   - MarkOnPerform / MarkOnDependence flag an access for logging
//     outside the termination path (R-All's perform-time reordering
//     check, crd's race marking). They may read the PW but not mutate
//     it; the Recorder applies the promised-source guard before
//     honoring a mark.
//   - DelaysStores gates the same-line hazard tracking and SCV
//     detector tracing: true for every policy that stages delayed
//     stores (everything except karma and r-all, whose logs never move
//     a store to a carrier chunk).
//
// The six pre-existing pairings are pinned byte-identical by the
// 20-config golden-hash fixture (fixture_test.go).
type Strategy interface {
	BoundaryPolicy
	LogPolicy
}

// BoundaryPolicy picks the chunk-closing boundary at a cyclic
// termination. dinst is the SN of the terminating destination access.
type BoundaryPolicy interface {
	Boundary(cs *coreState, dinst SN) SN
}

// LogPolicy decides which reordered accesses are recorded.
type LogPolicy interface {
	// LogDelayed reports whether a termination whose destination landed
	// in the closed region (closed) must be logged. volCycle is the
	// Volition oracle's verdict for this dependence (false when the
	// oracle is not running).
	LogDelayed(closed, volCycle bool) bool
	// MarkOnPerform reports whether the entry performing now must be
	// logged once its chunk closes (R-All, crd).
	MarkOnPerform(r *Recorder, pid int, e *pwEntry) bool
	// MarkOnDependence reports whether the destination of an incoming
	// dependence must be logged (crd: the access is racing by
	// construction).
	MarkOnDependence(r *Recorder, pid int, e *pwEntry) bool
	// MarkPendingAtBoundary reports whether every access still pending
	// at a termination boundary is marked for logging (R-Bound).
	MarkPendingAtBoundary() bool
	// DelaysStores reports whether the policy can stage delayed stores
	// (and therefore needs same-line hazard tracking and SCV-detector
	// tracing).
	DelaysStores() bool
	// NeedsVolition reports whether the precise cycle oracle must run.
	NeedsVolition() bool
	// NeedsRaces reports whether the online race set must run (crd).
	NeedsRaces() bool
}

// strategy pairs the two axes. All built-in policies are stateless:
// per-execution state (Volition, RaceSet, registers) lives on the
// Recorder, keyed by the Needs* hooks.
type strategy struct {
	BoundaryPolicy
	LogPolicy
}

// strategyFor returns the built-in Strategy implementing mode.
func strategyFor(mode Mode) Strategy {
	switch mode {
	case ModeKarma:
		return strategy{boundFull{}, logNothing{}}
	case ModeRAll:
		return strategy{boundFull{}, logEveryReordering{}}
	case ModeRBound:
		return strategy{boundFull{}, logPendingAtBound{}}
	case ModeMoveBound:
		return strategy{boundMove{}, logClosed{}}
	case ModeGranule:
		return strategy{boundPMove{}, logClosed{}}
	case ModeVolition:
		return strategy{boundPMove{}, logVolGated{}}
	case ModeCRD:
		return strategy{boundPMove{}, logRacing{}}
	}
	panic("record: no strategy for " + mode.String())
}

// ---------------------------------------------------------------------
// Boundary policies (Table 2)
// ---------------------------------------------------------------------

// boundFull never moves the boundary: cut at MRR, the counting point
// (Karma, R-All, R-Bound).
type boundFull struct{}

func (boundFull) Boundary(cs *coreState, dinst SN) SN { return cs.mrr }

// boundMove is Move-Bound (Section 3.5.2): move the boundary below the
// whole pending window, unless any PW source pins it at MRR.
type boundMove struct{}

func (boundMove) Boundary(cs *coreState, dinst SN) SN {
	if cs.mrps != 0 {
		return cs.mrr // any PW source pins the boundary: no move at all
	}
	if oldest, ok := cs.pw.OldestSN(); ok {
		return oldest - 1
	}
	return cs.mrr
}

// boundPMove is PMove-Bound (Section 3.5.1): partial move up to the
// youngest pinned source, else just below the terminating destination
// (Granule, Vol, crd).
type boundPMove struct{}

func (boundPMove) Boundary(cs *coreState, dinst SN) SN {
	if cs.mrps != 0 {
		return cs.mrps // partial move up to the youngest pinned source
	}
	return dinst - 1
}

// ---------------------------------------------------------------------
// Log policies
// ---------------------------------------------------------------------

// logPolicyBase supplies the no-op defaults every concrete policy
// embeds, so each one states only what it does differently.
type logPolicyBase struct{}

func (logPolicyBase) MarkOnPerform(*Recorder, int, *pwEntry) bool    { return false }
func (logPolicyBase) MarkOnDependence(*Recorder, int, *pwEntry) bool { return false }
func (logPolicyBase) MarkPendingAtBoundary() bool                    { return false }
func (logPolicyBase) NeedsVolition() bool                            { return false }
func (logPolicyBase) NeedsRaces() bool                               { return false }

// logNothing is Karma: the chunk DAG is the whole log.
type logNothing struct{ logPolicyBase }

func (logNothing) LogDelayed(closed, volCycle bool) bool { return false }
func (logNothing) DelaysStores() bool                    { return false }

// logEveryReordering is R-All (Figure 7a): any access performing while
// an older one is still pending is logged, at perform time.
type logEveryReordering struct{ logPolicyBase }

func (logEveryReordering) LogDelayed(closed, volCycle bool) bool { return false }
func (logEveryReordering) DelaysStores() bool                    { return false }
func (logEveryReordering) MarkOnPerform(r *Recorder, pid int, e *pwEntry) bool {
	return r.cores[pid].pw.HasOlderUnperformed(e.sn)
}

// logPendingAtBound is R-Bound (Figure 7b): at each termination,
// everything still pending at the boundary is logged, and closed
// destinations log like Granule (no Invisi filtering).
type logPendingAtBound struct{ logPolicyBase }

func (logPendingAtBound) LogDelayed(closed, volCycle bool) bool { return closed }
func (logPendingAtBound) DelaysStores() bool                    { return true }
func (logPendingAtBound) MarkPendingAtBoundary() bool           { return true }

// logClosed is the Invisi-Bound filter (Move-Bound, Granule): log a
// destination only when it landed in the closed region — the boundary
// proof shows every other reordering invisible.
type logClosed struct{ logPolicyBase }

func (logClosed) LogDelayed(closed, volCycle bool) bool { return closed }
func (logClosed) DelaysStores() bool                    { return true }

// logVolGated is Vol: Granule's trigger, gated by the precise cycle
// oracle — log only reorderings that close a real SCV cycle.
type logVolGated struct{ logPolicyBase }

func (logVolGated) LogDelayed(closed, volCycle bool) bool { return closed && volCycle }
func (logVolGated) DelaysStores() bool                    { return true }
func (logVolGated) NeedsVolition() bool                   { return true }

// logRacing is crd: Granule's boundary-visible logging, plus any racing
// access (one named by a cross-core dependence) that performs or is
// targeted while an older access is still pending. The race set makes
// the "racing" predicate online and windowed to the PW.
type logRacing struct{ logPolicyBase }

func (logRacing) LogDelayed(closed, volCycle bool) bool { return closed }
func (logRacing) DelaysStores() bool                    { return true }
func (logRacing) NeedsRaces() bool                      { return true }
func (logRacing) MarkOnPerform(r *Recorder, pid int, e *pwEntry) bool {
	if e.isSource && e.kind != trace.Read {
		return false // promised source: it must execute within its chunk
	}
	return r.races.Racing(pid, e.sn) && r.cores[pid].pw.HasOlderUnperformed(e.sn)
}
func (logRacing) MarkOnDependence(r *Recorder, pid int, e *pwEntry) bool {
	if e.isSource && e.kind != trace.Read {
		return false
	}
	return r.cores[pid].pw.HasOlderUnperformed(e.sn)
}
