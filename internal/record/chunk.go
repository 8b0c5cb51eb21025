package record

import (
	"sort"

	"pacifier/internal/cache"
	"pacifier/internal/relog"
	"pacifier/internal/sim"
)

// chunkMeta is the immutable view of a closed chunk (for SN lookups and
// snapshots after emission).
type chunkMeta struct {
	cid     int64
	startSN SN
	endSN   SN
	ts      int64
}

// chunkState is a chunk still being assembled (the open chunk or a
// closed chunk in the LHB).
type chunkState struct {
	cid     int64
	startSN SN
	endSN   SN // 0 while open
	ts      int64
	frozen  bool // became the source of a dependence: TS is promised
	// preds is a small dedup slice (was a map): chunks typically order
	// after a handful of predecessors, and repeated adds name a recent
	// one, so a backwards scan beats hashing.
	preds   []relog.ChunkRef
	dset    []relog.DEntry
	dindex  map[int32]int // offset -> dset index (merge preds); lazy
	pset    []relog.PEntry
	vlog    []relog.VEntry
	retired int64
	start   sim.Cycle
	end     sim.Cycle
	idle    sim.Cycle // barrier-park time, excluded from Duration
	// maxSrcSN pins the closing boundary: every access served from this
	// chunk as a dependence source promised consumers it would execute
	// within this chunk, so the boundary may never cut below it.
	maxSrcSN SN
}

func (c *chunkState) addPred(r relog.ChunkRef) {
	for i := len(c.preds) - 1; i >= 0; i-- {
		if c.preds[i] == r {
			return
		}
	}
	c.preds = append(c.preds, r)
}

// fwdPair is one store-to-load forwarding event.
type fwdPair struct {
	load, store SN
	val         uint64
}

// stagedDelayed accumulates Relog information for a delayed instruction
// until it (globally) performs — the incomp_P_set of Listing 1.
type stagedDelayed struct {
	chunk *chunkState
	preds map[relog.ChunkRef]struct{}
	// carrier is the open chunk at (the latest) staging: the delayed
	// instruction executes in that chunk's P_set. Committing it at
	// staging time (rather than at finalize) keeps same-line stores in
	// SN order: a younger store absorbed by a later chunk can never
	// execute before this one.
	carrier *chunkState
}

// coreState is all per-core recording hardware.
type coreState struct {
	pw     *PendingWindow
	mrr    SN
	mrps   SN
	cc     *chunkState
	lhb    []*chunkState // closed, not yet emitted (FIFO)
	meta   []chunkMeta   // every closed chunk ever, indexed by CID (so in SN order)
	staged map[SN]*stagedDelayed
	// preCarrier pre-commits the carrier chunk for a store that serves
	// as a dependence source while it could still be delayed (any store
	// still in the PW: even a performed one can be extracted by a late
	// invalidation-ack WAR). Consumers are promised this chunk.
	preCarrier map[SN]*chunkState
	// delayedSrc maps a delayed store to its carrier chunk (the chunk
	// whose P_set executes it). If the store later serves as a
	// dependence source, the consumer must be ordered after the
	// carrier, not after the store's original chunk.
	delayedSrc map[SN]relog.ChunkRef
	// fwd maps a buffered store SN to the loads that forwarded from it
	// (with their values); needed if the store is later delayed.
	fwd map[SN][]relog.VEntrySN
	// pendingVLog holds value logs whose chunk placement is not yet
	// decided (the owning chunk is still open).
	pendingVLog []relog.VEntrySN
	// lineHazard tracks, per line, the largest carrier CID of any
	// delayed store: a later same-line store in a chunk at or before
	// that carrier must also be delayed to keep same-word program order.
	lineHazard map[cache.Line]int64
	// fwdPairs are store-to-load forwardings awaiting chunk placement:
	// if the load ends up in a later chunk than the store, remote writer
	// chunks can be ordered between them in replay, so the load's value
	// must come from the log.
	fwdPairs []fwdPair
	vlogged  map[SN]struct{}
	nextCID  int64
	lhbMax   int
}

// ---------------------------------------------------------------------
// Lookup helpers
// ---------------------------------------------------------------------

// liveChunkByCID finds an unemitted chunk by id (the open chunk or an
// LHB resident).
func (r *Recorder) liveChunkByCID(cs *coreState, cid int64) *chunkState {
	if cs.cc.cid == cid {
		return cs.cc
	}
	for i := len(cs.lhb) - 1; i >= 0; i-- {
		if cs.lhb[i].cid == cid {
			return cs.lhb[i]
		}
	}
	return nil
}

// chunkStateOf returns the live chunkState containing sn: the open chunk,
// an LHB resident, or nil if the chunk was already emitted.
func (r *Recorder) chunkStateOf(cs *coreState, sn SN) *chunkState {
	if sn >= cs.cc.startSN {
		return cs.cc
	}
	// LHB is small (Figure 13: <= 7 in practice); linear scan from the
	// youngest.
	for i := len(cs.lhb) - 1; i >= 0; i-- {
		c := cs.lhb[i]
		if sn >= c.startSN && sn <= c.endSN {
			return c
		}
		if sn > c.endSN {
			return nil
		}
	}
	return nil
}

// metaByCID finds closed-chunk metadata by chunk id. A core numbers its
// chunks densely from 0 and closes them in that order, so meta[cid] is
// chunk cid once it has closed.
func (r *Recorder) metaByCID(cs *coreState, cid int64) (chunkMeta, bool) {
	if cid < 0 || cid >= int64(len(cs.meta)) {
		return chunkMeta{}, false
	}
	return cs.meta[cid], true
}

// metaOf finds the closed-chunk metadata containing sn.
func (r *Recorder) metaOf(cs *coreState, sn SN) (chunkMeta, bool) {
	i := sort.Search(len(cs.meta), func(i int) bool { return cs.meta[i].endSN >= sn })
	if i < len(cs.meta) && sn >= cs.meta[i].startSN {
		return cs.meta[i], true
	}
	return chunkMeta{}, false
}
