package sim

import "testing"

// checkIndex compares x against ref (key -> id) and the insertion order,
// in both directions: Get maps each key to its id, Key maps it back.
func checkIndex(t *testing.T, x *Index, ref map[uint64]int32, order []uint64) {
	t.Helper()
	if x.Len() != len(ref) || len(order) != len(ref) {
		t.Fatalf("index holds %d keys, reference %d (%d inserted)", x.Len(), len(ref), len(order))
	}
	for want, k := range order {
		id, ok := x.Get(k)
		if !ok || id != int32(want) || ref[k] != id {
			t.Fatalf("Get(%#x) = %d, %v; want id %d (first-insertion order)", k, id, ok, want)
		}
		if got := x.Key(id); got != k {
			t.Fatalf("Key(%d) = %#x, want %#x", id, got, k)
		}
	}
}

// TestIndexMatchesMap interns random keys, the extremes and repeats,
// enough to grow the table several times, and checks every answer
// against a map.
func TestIndexMatchesMap(t *testing.T) {
	var x Index
	if _, ok := x.Get(0); ok {
		t.Fatal("empty index reports key 0 present")
	}
	ref := map[uint64]int32{}
	var order []uint64
	intern := func(k uint64) {
		id, added := x.Intern(k)
		want, seen := ref[k]
		if !seen {
			want = int32(len(order))
			ref[k] = want
			order = append(order, k)
		}
		if id != want || added == seen {
			t.Fatalf("Intern(%#x) = %d, %v; want %d, %v", k, id, added, want, !seen)
		}
	}
	rng := NewRNG(11)
	intern(0)
	intern(^uint64(0))
	for i := 0; i < 5000; i++ {
		switch rng.Intn(4) {
		case 0: // a key seen before (or a new small one)
			intern(order[rng.Intn(len(order))])
		case 1: // dense keys, like line numbers
			intern(uint64(rng.Intn(3000)))
		default:
			intern(rng.Uint64())
		}
	}
	intern(0)
	intern(^uint64(0))
	if len(x.slots) < 16<<4 {
		t.Fatalf("table has %d slots after %d keys: it did not grow several times", len(x.slots), len(x.keys))
	}
	checkIndex(t, &x, ref, order)
	for i := 0; i < 2000; i++ {
		k := rng.Uint64()
		if _, in := ref[k]; in {
			continue
		}
		if id, ok := x.Get(k); ok {
			t.Fatalf("Get(%#x) = %d for a key never interned", k, id)
		}
	}
}

// TestIndexCollidingKeys interns keys that all hash to one home slot, so
// every probe after the first walks a cluster, and the cluster wraps the
// end of the table.
func TestIndexCollidingKeys(t *testing.T) {
	var x Index
	x.grow() // the 16-slot first table, so the hash below is fixed
	size := uint64(len(x.slots))
	home := size - 2 // two slots before the end: the cluster wraps
	var keys []uint64
	for k := uint64(0); len(keys) < 7; k++ {
		if k*fibHash>>x.shift == home {
			keys = append(keys, k)
		}
	}
	ref := map[uint64]int32{}
	for i, k := range keys {
		if id, added := x.Intern(k); id != int32(i) || !added {
			t.Fatalf("Intern(%#x) = %d, %v; want %d, true", k, id, added, i)
		}
		ref[k] = int32(i)
	}
	if uint64(len(x.slots)) != size {
		t.Fatalf("table grew to %d slots at %d keys; the probes were not exercised", len(x.slots), len(x.keys))
	}
	checkIndex(t, &x, ref, keys)
	for k := keys[len(keys)-1] + 1; ; k++ {
		if k*fibHash>>x.shift == home {
			if _, ok := x.Get(k); ok {
				t.Fatalf("Get(%#x): absent colliding key reported present", k)
			}
			break
		}
	}
	// Growing rehashes the cluster apart; every id must survive.
	for i := 0; i < 64; i++ {
		k := uint64(1<<40 + i)
		id, _ := x.Intern(k)
		ref[k] = id
		keys = append(keys, k)
	}
	checkIndex(t, &x, ref, keys)
}

// TestIndexPresentKeysDoNotAllocate: looking up or re-interning a key
// already present is a probe, never an allocation. 1024 keys fill the
// 2048-slot table to exactly half: one more key would grow it.
func TestIndexPresentKeysDoNotAllocate(t *testing.T) {
	var x Index
	for k := uint64(0); k < 1024; k++ {
		x.Intern(k * 64)
	}
	var sink int32
	allocs := testing.AllocsPerRun(100, func() {
		for k := uint64(0); k < 1024; k++ {
			id, _ := x.Get(k * 64)
			id2, _ := x.Intern(k * 64)
			sink += id + id2
		}
	})
	if allocs != 0 {
		t.Fatalf("Get/Intern of present keys allocated %.1f times per run", allocs)
	}
	_ = sink
}
