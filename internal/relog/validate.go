package relog

import "fmt"

// Validate checks the semantic invariants the recorder guarantees over
// a log, so that downstream consumers (the replayer above all) can
// treat a validated log as internally consistent. DecodeLog output and
// programmatically built logs are both accepted. The first violation
// found is returned as a *ValidationError wrapping ErrInvalid; nil
// means the log is semantically well-formed.
//
// Invariants (per core):
//
//  1. chunks are non-nil, their PID matches the core, and CIDs are
//     dense and ordered (chunk i has CID i — what DecodeLog and the
//     recorder both produce);
//  2. chunks tile the SN space: the first chunk starts at SN 1, each
//     chunk starts where its predecessor ended, and EndSN >= StartSN-1
//     (zero-size carrier chunks, emitted at Finish for trailing
//     P_set/V_log entries, are legal);
//  3. timestamps are non-negative and strictly increase along a core
//     (Karma's scalar Lamport clock always advances at a chunk cut);
//  4. every ChunkRef — chunk preds and D_set entry preds — resolves to
//     an existing chunk, and a same-core reference points strictly
//     backwards (a forward or self reference could never be satisfied
//     during replay);
//  5. D_set offsets are unique and inside the chunk;
//  6. every P_set entry references an earlier chunk of the same core
//     whose D_set holds a delayed store at that offset, and no delayed
//     store is claimed by more than one P_set entry;
//  7. V_log offsets are inside the chunk.
//
// Validate deliberately does not reject two defect classes the
// replayer reports instead of crashing on: cross-core cycles in the
// chunk DAG (a Karma log of an execution with SCVs is the expected
// case — Result.OrderBreaks) and delayed stores never claimed by a
// P_set (Result.LeftoverSSB).
func Validate(l *Log) error {
	if l == nil {
		return &ValidationError{PID: -1, CID: -1, Msg: "nil log"}
	}
	if l.Cores < 1 || len(l.PerCore) != l.Cores {
		return &ValidationError{PID: -1, CID: -1,
			Msg: fmt.Sprintf("core table has %d entries for %d cores", len(l.PerCore), l.Cores)}
	}
	v := &validator{log: l, lim: make([]int64, l.Cores)}
	for pid, seq := range l.PerCore {
		v.lim[pid] = int64(len(seq))
	}
	for pid, seq := range l.PerCore {
		if err := v.core(pid, seq); err != nil {
			return err
		}
	}
	return nil
}

// validator carries the per-source-chunk delayed-store index, built
// lazily so validation stays O(total entries) even for hostile inputs
// with large P_sets.
type validator struct {
	log *Log
	// lim[q] is the bound on the CIDs a ref from the chunk being checked
	// may name on core q: q's chunk count, or on the chunk's own core its
	// CID, since a same-core ref must point strictly backwards. So a ref
	// p resolves iff 0 <= p.PID < len(lim) and 0 <= p.CID < lim[p.PID],
	// the test okRef makes inline; ref builds the error when it fails.
	lim []int64
	// stores maps a source CID (current core only) to the offsets of
	// its delayed (non-load) D_set entries.
	stores map[int64]map[int32]bool
}

type claimKey struct {
	srcCID int64
	offset int32
}

func (v *validator) core(pid int, seq []*Chunk) error {
	nextSN := SN(1)
	prevTS := int64(-1)
	v.stores = nil
	var claimed map[claimKey]bool
	for i, c := range seq {
		cid := int64(i)
		if c == nil {
			return &ValidationError{PID: pid, CID: cid, Msg: "nil chunk"}
		}
		if c.PID != pid {
			return &ValidationError{PID: pid, CID: cid,
				Msg: fmt.Sprintf("chunk PID %d on core %d's stream", c.PID, pid)}
		}
		if c.CID != cid {
			return &ValidationError{PID: pid, CID: cid,
				Msg: fmt.Sprintf("CID %d where dense numbering requires %d", c.CID, cid)}
		}
		if c.StartSN != nextSN {
			return &ValidationError{PID: pid, CID: cid,
				Msg: fmt.Sprintf("starts at SN %d, predecessor ended at %d", int64(c.StartSN), int64(nextSN)-1)}
		}
		if c.EndSN < c.StartSN-1 {
			return &ValidationError{PID: pid, CID: cid,
				Msg: fmt.Sprintf("negative span [%d,%d]", int64(c.StartSN), int64(c.EndSN))}
		}
		if c.TS <= prevTS {
			return &ValidationError{PID: pid, CID: cid,
				Msg: fmt.Sprintf("TS %d not above predecessor's %d (timestamps must strictly increase)", c.TS, prevTS)}
		}
		prevTS = c.TS
		nextSN = c.EndSN + 1
		size := c.Size()

		v.lim[pid] = cid
		for _, p := range c.Preds {
			if !v.okRef(p) {
				if err := v.ref(pid, cid, "pred", p); err != nil {
					return err
				}
			}
		}
		var seen map[int32]bool
		if len(c.DSet) > 0 {
			seen = make(map[int32]bool, len(c.DSet))
		}
		for _, e := range c.DSet {
			if int64(e.Offset) < 0 || int64(e.Offset) >= size {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("D_set offset %d outside the %d-op chunk", e.Offset, size)}
			}
			if seen[e.Offset] {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("duplicate D_set offset %d", e.Offset)}
			}
			seen[e.Offset] = true
			for _, p := range e.Pred {
				if !v.okRef(p) {
					if err := v.ref(pid, cid, "D_set pred", p); err != nil {
						return err
					}
				}
			}
		}
		for _, pe := range c.PSet {
			if pe.SrcCID < 0 || pe.SrcCID >= cid {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("P_set references chunk %d, not an earlier chunk of this core", pe.SrcCID)}
			}
			if !v.storeAt(seq, pe.SrcCID, pe.Offset) {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("P_set entry (src chunk %d, offset %d) matches no delayed store", pe.SrcCID, pe.Offset)}
			}
			k := claimKey{pe.SrcCID, pe.Offset}
			if claimed[k] {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("delayed store (src chunk %d, offset %d) claimed twice", pe.SrcCID, pe.Offset)}
			}
			if claimed == nil {
				claimed = make(map[claimKey]bool)
			}
			claimed[k] = true
		}
		for _, ve := range c.VLog {
			if int64(ve.Offset) < 0 || int64(ve.Offset) >= size {
				return &ValidationError{PID: pid, CID: cid,
					Msg: fmt.Sprintf("V_log offset %d outside the %d-op chunk", ve.Offset, size)}
			}
		}
	}
	v.lim[pid] = int64(len(seq))
	return nil
}

// okRef reports, inline, whether p resolves from the chunk being
// checked: ref would return nil.
func (v *validator) okRef(p ChunkRef) bool {
	return uint(p.PID) < uint(len(v.lim)) && uint64(p.CID) < uint64(v.lim[p.PID])
}

// ref checks that a ChunkRef resolves to an existing chunk and, when it
// stays on the same core, points strictly backwards.
func (v *validator) ref(pid int, cid int64, what string, p ChunkRef) error {
	if p.PID < 0 || p.PID >= v.log.Cores {
		return &ValidationError{PID: pid, CID: cid,
			Msg: fmt.Sprintf("%s names core %d of %d", what, p.PID, v.log.Cores)}
	}
	if p.CID < 0 || p.CID >= int64(len(v.log.PerCore[p.PID])) {
		return &ValidationError{PID: pid, CID: cid,
			Msg: fmt.Sprintf("%s names chunk %d/%d which does not exist", what, p.PID, p.CID)}
	}
	if p.PID == pid && p.CID >= cid {
		return &ValidationError{PID: pid, CID: cid,
			Msg: fmt.Sprintf("%s names chunk %d of the same core, which is not strictly earlier", what, p.CID)}
	}
	return nil
}

// storeAt reports whether seq[srcCID] holds a delayed store at offset,
// indexing each source chunk's D_set once on first use.
func (v *validator) storeAt(seq []*Chunk, srcCID int64, offset int32) bool {
	m, ok := v.stores[srcCID]
	if !ok {
		m = make(map[int32]bool)
		for _, e := range seq[srcCID].DSet {
			if !e.IsLoad {
				m[e.Offset] = true
			}
		}
		if v.stores == nil {
			v.stores = make(map[int64]map[int32]bool)
		}
		v.stores[srcCID] = m
	}
	return m[offset]
}
