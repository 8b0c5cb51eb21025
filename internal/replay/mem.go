package replay

import (
	"fmt"
	"math/bits"

	"pacifier/internal/coherence"
	"pacifier/internal/sim"
	"pacifier/internal/trace"
)

// The replayed memory image is word-addressed like the simulator's line
// arrays (coherence.System.wordIdx): the low three address bits are
// ignored. Words are grouped in 64-word pages keyed by addr>>pageShift.
//
// IndexOps resolves every memory op's address once per recording, into a
// slot: the page's id << wordBits | the word's place in the page. Page
// ids number the workload's pages in address order, so slot order is
// address order. A replay's image is a flat array of words by slot plus
// one presence mask per page, marking the words ever stored to, which is
// what the state encoding lists (a load of an absent word reads zero and
// does not make it present). An address on no page of the workload has
// no slot: no op can store to it, so it reads zero.
const (
	pageShift = 9 // 64 words of 8 bytes
	wordBits  = pageShift - 3
	pageWords = 1 << wordBits
	// kindShift places an op entry's kind above its slot.
	kindShift = 30
	slotMask  = 1<<kindShift - 1
)

// maxPages is the most pages a workload's memory ops may touch: the
// slot field of an op entry holds 24 bits of page id. It is a variable
// so tests can lower it.
var maxPages = 1 << (kindShift - wordBits)

// opEntry is one memory op as the replayer executes it: the op's kind
// (Read, Write, Acquire or Release) in the top two bits and its slot in
// the rest.
type opEntry uint32

func makeEntry(k trace.OpKind, page, word uint32) opEntry {
	return opEntry(uint32(k)<<kindShift | page<<wordBits | word)
}

func (e opEntry) kind() trace.OpKind { return trace.OpKind(e >> kindShift) }

func (e opEntry) slot() uint32 { return uint32(e) & slotMask }

func wordOf(a coherence.Addr) uint32 { return uint32(a>>3) & (pageWords - 1) }

// memory is one replay's image. The zero memory over a page index is
// empty and allocates its arrays at the first store, so a stepper that
// never executes a store costs nothing per word.
type memory struct {
	// pages is the op index's page-key index, shared and only read.
	pages *sim.Index
	// words[slot] is the word's value; a word never stored to reads 0.
	words []uint64
	// present[id]: bit w is set once word w of page id has been stored to.
	present []uint64
	// lastKey is the page key slotOf last looked up plus one (0: none),
	// and lastID, lastOK its answer.
	lastKey uint64
	lastID  int32
	lastOK  bool
}

// slotOf resolves an address to its slot, false when it is on no page
// of the workload. Execution never needs it: it reads slots from the op
// index. It remembers the last page it looked up, so restoring a state,
// whose words are sorted by address, costs one lookup per page.
func (m *memory) slotOf(a coherence.Addr) (uint32, bool) {
	if key := uint64(a)>>pageShift + 1; key != m.lastKey {
		m.lastKey = key
		m.lastID, m.lastOK = m.pages.Get(key - 1)
	}
	return uint32(m.lastID)<<wordBits | wordOf(a), m.lastOK
}

func (m *memory) load(slot uint32) uint64 {
	if int(slot) < len(m.words) {
		return m.words[slot]
	}
	return 0
}

func (m *memory) store(slot uint32, v uint64) {
	if m.words == nil {
		n := m.pages.Len()
		m.words = make([]uint64, n<<wordBits)
		m.present = make([]uint64, n)
	}
	m.words[slot] = v
	m.present[slot>>wordBits] |= 1 << (slot & (pageWords - 1))
}

// capture lists the present words in address order: pages in id order,
// which is address order, and words within a page from its mask.
func (m *memory) capture() []MemState {
	n := 0
	for _, set := range m.present {
		n += bits.OnesCount64(set)
	}
	out := make([]MemState, 0, n)
	for id, set := range m.present {
		base := m.pages.Key(int32(id)) << pageShift
		words := m.words[id<<wordBits : (id+1)<<wordBits]
		for ; set != 0; set &= set - 1 {
			w := bits.TrailingZeros64(set)
			out = append(out, MemState{Addr: base | uint64(w)<<3, Val: words[w]})
		}
	}
	return out
}

// restore replaces the image with words, which checkWords has accepted.
// Only stored words are ever non-zero, so clearing the pages with a
// present word empties the image; its arrays are reused rather than
// reallocated, so seeking back and forth does not churn them.
func (m *memory) restore(words []MemState) {
	for id, set := range m.present {
		if set != 0 {
			clear(m.words[id<<wordBits : (id+1)<<wordBits])
			m.present[id] = 0
		}
	}
	for _, w := range words {
		slot, _ := m.slotOf(coherence.Addr(w.Addr))
		m.store(slot, w.Val)
	}
}

// checkWords rejects a memory listing the image cannot hold exactly: a
// word not word-aligned, or on no page of the workload.
func (m *memory) checkWords(words []MemState) error {
	for _, w := range words {
		if w.Addr&7 != 0 {
			return fmt.Errorf("replay: state memory word %#x is not word-aligned", w.Addr)
		}
		if _, ok := m.slotOf(coherence.Addr(w.Addr)); !ok {
			return fmt.Errorf("replay: state memory word %#x is on no page of the workload", w.Addr)
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
