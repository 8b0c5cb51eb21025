package replay

import (
	"fmt"
	"math/bits"
	"slices"

	"pacifier/internal/coherence"
	"pacifier/internal/sim"
)

// The replayed memory image is word-addressed like the simulator's line
// arrays (coherence.System.wordIdx): the low three address bits are
// ignored. Words live in 64-word pages keyed by addr>>pageShift; a
// page's presence mask marks the words ever stored to, which is what the
// state encoding lists (a load of an absent word reads zero and does not
// make it present).
const (
	pageShift = 9 // 64 words of 8 bytes
	pageWords = 1 << (pageShift - 3)
)

type page struct {
	present uint64 // bit w: word w has been stored to
	words   [pageWords]uint64
}

// memory is the paged image plus a one-entry cache of the last page
// touched: consecutive ops of a chunk mostly stay on one page. The zero
// memory is empty and ready to use.
type memory struct {
	// keys interns page keys as dense ids in first-store order;
	// pages[id] is the page keyed keys.Key(id).
	keys  sim.Index
	pages []*page
	// pageSlab is the backing store new pages are carved from: one
	// allocation per 32 pages instead of one each.
	pageSlab []page
	lastKey  uint64
	last     *page
}

func wordOf(a coherence.Addr) uint { return uint(a>>3) & (pageWords - 1) }

// lookup returns the page holding key, nil when no word of it exists.
func (m *memory) lookup(key uint64) *page {
	if m.last != nil && m.lastKey == key {
		return m.last
	}
	id, ok := m.keys.Get(key)
	if !ok {
		return nil
	}
	p := m.pages[id]
	m.lastKey, m.last = key, p
	return p
}

func (m *memory) load(a coherence.Addr) uint64 {
	if p := m.lookup(uint64(a) >> pageShift); p != nil {
		return p.words[wordOf(a)]
	}
	return 0
}

func (m *memory) store(a coherence.Addr, v uint64) {
	key := uint64(a) >> pageShift
	p := m.lookup(key)
	if p == nil {
		if len(m.pageSlab) == 0 {
			m.pageSlab = make([]page, 32)
		}
		p = &m.pageSlab[0]
		m.pageSlab = m.pageSlab[1:]
		m.keys.Intern(key) // a new key's id is len(m.pages)
		m.pages = append(m.pages, p)
		m.lastKey, m.last = key, p
	}
	w := wordOf(a)
	p.present |= 1 << w
	p.words[w] = v
}

// capture lists the present words in address order. Only the page keys
// need sorting: words within a page come out in order from its mask.
func (m *memory) capture() []MemState {
	keys := make([]uint64, len(m.pages))
	n := 0
	for id, p := range m.pages {
		keys[id] = m.keys.Key(int32(id))
		n += bits.OnesCount64(p.present)
	}
	slices.Sort(keys)
	out := make([]MemState, 0, n)
	for _, k := range keys {
		id, _ := m.keys.Get(k)
		p := m.pages[id]
		for set := p.present; set != 0; set &= set - 1 {
			w := bits.TrailingZeros64(set)
			out = append(out, MemState{Addr: k<<pageShift | uint64(w)<<3, Val: p.words[w]})
		}
	}
	return out
}

// restore replaces the image with words. Pages are cleared and reused
// rather than reallocated, so seeking back and forth does not churn them.
func (m *memory) restore(words []MemState) {
	for _, p := range m.pages {
		*p = page{}
	}
	for _, w := range words {
		m.store(coherence.Addr(w.Addr), w.Val)
	}
}

// checkWords rejects a memory listing the image cannot hold exactly.
func checkWords(words []MemState) error {
	for _, w := range words {
		if w.Addr&7 != 0 {
			return fmt.Errorf("replay: state memory word %#x is not word-aligned", w.Addr)
		}
	}
	return nil
}

// final returns the image as a map of the present words.
func (m *memory) final() FinalMemory {
	words := m.capture()
	out := make(FinalMemory, len(words))
	for _, w := range words {
		out[coherence.Addr(w.Addr)] = w.Val
	}
	return out
}
