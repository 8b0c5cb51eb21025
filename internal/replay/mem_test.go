package replay

import (
	"slices"
	"testing"

	"pacifier/internal/coherence"
	"pacifier/internal/trace"
)

// TestMemoryFlatImage: every op entry IndexOps writes holds the op's
// kind and its address's slot; the image over the workload's page index
// lists its words in address order whatever order they were stored in,
// a word never stored reads 0 and is not listed, and restore clears the
// image and reuses its arrays instead of reallocating them.
func TestMemoryFlatImage(t *testing.T) {
	addrs := []coherence.Addr{0x9000, 0x10, 0x9008, 1 << 40, 0x200, 0x18, 0}
	// The loads come first, so first use does not number the pages in
	// address order; 0x208 and 1<<41 are loaded but never stored.
	th := trace.Thread{{Kind: trace.Read, Addr: 0x208}, {Kind: trace.Read, Addr: 1 << 41}}
	for _, a := range addrs {
		th = append(th, trace.Op{Kind: trace.Write, Addr: a})
	}
	idx, err := IndexOps(&trace.Workload{Name: "pages", Threads: []trace.Thread{th}})
	if err != nil {
		t.Fatal(err)
	}
	m := memory{pages: &idx.pages}
	slot := func(a coherence.Addr) uint32 {
		t.Helper()
		s, ok := m.slotOf(a)
		if !ok {
			t.Fatalf("address %#x of the workload has no slot", uint64(a))
		}
		return s
	}
	if _, ok := m.slotOf(0x400); ok {
		t.Fatal("an address on no page of the workload has a slot")
	}
	for sn, e := range idx.slots[0] {
		if op := th[idx.ops[0][sn]]; e.kind() != op.Kind || e.slot() != slot(op.Addr) {
			t.Fatalf("op %d entry has kind %v slot %d, want the op's kind %v and its address's slot %d",
				sn+1, e.kind(), e.slot(), op.Kind, slot(op.Addr))
		}
	}
	if m.load(slot(0x10)) != 0 || len(m.capture()) != 0 || m.words != nil {
		t.Fatal("an image before its first store is not empty and unallocated")
	}
	for i, a := range addrs {
		m.store(slot(a), uint64(i+1))
	}
	if m.load(slot(0x9000)) != 1 || m.load(slot(0x18)) != 6 || m.load(slot(0x208)) != 0 || m.load(slot(1<<41)) != 0 {
		t.Fatal("load does not read back the stored words")
	}
	want := []MemState{{0, 7}, {0x10, 2}, {0x18, 6}, {0x200, 5}, {0x9000, 1}, {0x9008, 3}, {1 << 40, 4}}
	if got := m.capture(); !slices.Equal(got, want) {
		t.Fatalf("capture = %v, want %v", got, want)
	}
	words, present := &m.words[0], &m.present[0]
	m.restore(want[:2])
	if &m.words[0] != words || &m.present[0] != present {
		t.Fatal("restore reallocated the image instead of reusing it")
	}
	if got := m.capture(); !slices.Equal(got, want[:2]) {
		t.Fatalf("capture after restore = %v, want %v", got, want[:2])
	}
	if m.load(slot(0x9000)) != 0 || m.load(slot(1<<40)) != 0 {
		t.Fatal("restore left a word it did not list")
	}
	m.restore(want)
	if got := m.capture(); !slices.Equal(got, want) || &m.words[0] != words {
		t.Fatalf("restore of the full image = %v, want %v in the same arrays", got, want)
	}
}
