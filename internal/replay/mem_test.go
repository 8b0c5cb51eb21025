package replay

import (
	"slices"
	"testing"

	"pacifier/internal/coherence"
)

// TestMemoryPageTable: pages are found through the interned page table
// whatever order they were first stored in, capture lists words in
// address order, and restore clears and reuses the pages it has.
func TestMemoryPageTable(t *testing.T) {
	var m memory
	addrs := []coherence.Addr{0x9000, 0x10, 0x9008, 1 << 40, 0x200, 0x18, 0}
	for i, a := range addrs {
		m.store(a, uint64(i+1))
	}
	if m.load(0x9000) != 1 || m.load(0x18) != 6 || m.load(0x208) != 0 || m.load(1<<41) != 0 {
		t.Fatal("load does not read back the stored words")
	}
	words := m.capture()
	want := []MemState{{0, 7}, {0x10, 2}, {0x18, 6}, {0x200, 5}, {0x9000, 1}, {0x9008, 3}, {1 << 40, 4}}
	if !slices.Equal(words, want) {
		t.Fatalf("capture = %v, want %v", words, want)
	}
	pages := slices.Clone(m.pages)
	m.restore(want[:2])
	if !slices.Equal(m.pages, pages) {
		t.Fatal("restore replaced pages instead of reusing them")
	}
	if got := m.capture(); !slices.Equal(got, want[:2]) {
		t.Fatalf("capture after restore = %v, want %v", got, want[:2])
	}
	m.restore(want)
	if got := m.capture(); !slices.Equal(got, want) || len(m.pages) != len(pages) {
		t.Fatalf("restore of the full image = %v over %d pages, want %v over %d", got, len(m.pages), want, len(pages))
	}
}
