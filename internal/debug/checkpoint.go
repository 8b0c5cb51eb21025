// Package debug is the time-travel layer over replay: periodic
// deterministic checkpoints, an O(interval) seek engine, reverse
// stepping, breakpoints/watchpoints, and the REPL behind the
// `pacifier debug` subcommand. It turns the batch replayer into a
// navigable timeline: any position between two chunk executions can be
// restored exactly, so "go to p" — backwards or forwards — is "restore
// the nearest checkpoint at or before p and re-execute forward".
package debug

import "pacifier/internal/replay"

// store holds a session's checkpoints: immutable replay.States kept in
// memory, one slot per interval boundary. Slot i is the state at
// position i·interval, nil until the session first reaches it. A state
// is captured at most once — every later visit to the position reuses
// it — and is JSON-encoded only when hashed or exported.
type store struct {
	interval int64
	slots    []*replay.State
	n        int // non-nil slots
}

func newStore(interval, total int64) store {
	return store{interval: interval, slots: make([]*replay.State, total/interval+1)}
}

// due reports whether pos is a checkpoint position not yet captured.
func (s *store) due(pos int64) bool {
	return pos%s.interval == 0 && s.slots[pos/s.interval] == nil
}

// put stores st at its position, which must be due.
func (s *store) put(st *replay.State) {
	s.slots[st.Steps/s.interval] = st
	s.n++
}

// latest returns the stored state with the greatest position for which
// before holds, or position 0's state when before holds for none.
// before must be monotone in position: true up to some position and
// false after it.
func (s *store) latest(before func(*replay.State) bool) *replay.State {
	for i := len(s.slots) - 1; i > 0; i-- {
		if st := s.slots[i]; st != nil && before(st) {
			return st
		}
	}
	return s.slots[0]
}

// count returns the number of stored checkpoints.
func (s *store) count() int { return s.n }
