// Package trace defines the workloads the simulated machine executes:
// per-thread sequences of memory operations with synchronization. It
// provides deterministic synthetic generators modeling the sharing
// signatures of the ten SPLASH-2 applications used in the paper's
// evaluation, and the classic litmus tests (SB/Dekker, MP, WRC, IRIW)
// used to demonstrate SCV recording and replay.
package trace

import (
	"fmt"

	"pacifier/internal/coherence"
)

// OpKind classifies one trace operation.
type OpKind uint8

const (
	// Read loads a shared or private word.
	Read OpKind = iota
	// Write stores a unique value to a word.
	Write
	// Acquire spins on an atomic test-and-set of a lock word until it
	// obtains the lock. Acquire semantics: younger operations do not
	// issue until it performs.
	Acquire
	// Release stores zero to a lock word. Release semantics: it does not
	// issue until all older operations have performed.
	Release
	// Barrier synchronizes all threads (trace-level; see DESIGN.md).
	Barrier
	// Compute models non-memory work: the frontend stalls for Cycles.
	Compute
)

// String returns a short mnemonic.
func (k OpKind) String() string {
	switch k {
	case Read:
		return "R"
	case Write:
		return "W"
	case Acquire:
		return "ACQ"
	case Release:
		return "REL"
	case Barrier:
		return "BAR"
	case Compute:
		return "C"
	}
	return fmt.Sprintf("Op(%d)", uint8(k))
}

// IsMem reports whether k is a memory operation: one that gets a
// sequence number and can be recorded and replayed.
func (k OpKind) IsMem() bool { return k <= Release }

// Op is one operation in a thread's program.
type Op struct {
	Kind   OpKind
	Addr   coherence.Addr // Read/Write/Acquire/Release target (word aligned)
	Cycles int            // Compute duration
	ID     int            // Barrier id (must match across threads)
}

// Thread is the program of one core.
type Thread []Op

// Workload is a complete multiprocessor program.
type Workload struct {
	Name    string
	Threads []Thread
}

// MemOps returns the total number of memory operations (everything but
// Barrier and Compute) across all threads.
func (w *Workload) MemOps() int {
	n := 0
	for _, th := range w.Threads {
		for _, op := range th {
			if op.Kind.IsMem() {
				n++
			}
		}
	}
	return n
}

// Validate checks cross-thread consistency: barrier sequences must be
// identical in every thread and lock addresses must be distinct from
// data addresses.
func (w *Workload) Validate() error {
	if len(w.Threads) == 0 {
		return fmt.Errorf("workload %q has no threads", w.Name)
	}
	var ref []int
	for tid, th := range w.Threads {
		var seq []int
		acq := map[coherence.Addr]int{}
		for i, op := range th {
			switch op.Kind {
			case Barrier:
				seq = append(seq, op.ID)
			case Acquire:
				acq[op.Addr]++
			case Release:
				acq[op.Addr]--
				if acq[op.Addr] < 0 {
					return fmt.Errorf("%s thread %d op %d: release without acquire", w.Name, tid, i)
				}
			}
		}
		for a, n := range acq {
			if n != 0 {
				return fmt.Errorf("%s thread %d: lock %#x acquired %d times more than released", w.Name, tid, a, n)
			}
		}
		if tid == 0 {
			ref = seq
			continue
		}
		if len(seq) != len(ref) {
			return fmt.Errorf("%s thread %d: %d barriers, thread 0 has %d", w.Name, tid, len(seq), len(ref))
		}
		for i := range seq {
			if seq[i] != ref[i] {
				return fmt.Errorf("%s thread %d: barrier %d is id %d, thread 0 has %d",
					w.Name, tid, i, seq[i], ref[i])
			}
		}
	}
	return nil
}

// Address-space layout. Word-aligned (8-byte) addresses; 32-byte lines.
const (
	sharedBase  coherence.Addr = 0x0001_0000
	lockBase    coherence.Addr = 0x0100_0000
	privateBase coherence.Addr = 0x1000_0000
	privStride  coherence.Addr = 0x0010_0000 // per-thread private region
	lineBytes                  = 32
)

// SharedWord returns the address of word w (0..3) of shared line i.
func SharedWord(i, w int) coherence.Addr {
	return sharedBase + coherence.Addr(i)*lineBytes + coherence.Addr(w)*8
}

// LockAddr returns the address of lock i (one lock per line, avoiding
// false sharing between locks).
func LockAddr(i int) coherence.Addr {
	return lockBase + coherence.Addr(i)*lineBytes
}

// PrivateWord returns the address of private word w of thread tid.
func PrivateWord(tid, w int) coherence.Addr {
	return privateBase + coherence.Addr(tid)*privStride + coherence.Addr(w)*8
}
