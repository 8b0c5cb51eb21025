package sim

// Index interns uint64 keys as dense int32 ids, numbered from 0 in
// first-insertion order. Keys are never removed, so a caller keeps its
// per-key state in a slice the ids index. Every key is valid, 0 and
// ^uint64(0) included.
//
// The table is open-addressed with linear probing, a power-of-two size,
// a multiplicative (Fibonacci) hash and growth at half load. A slot
// holds only id+1 (0 marks it empty); the keys themselves sit densely
// in id order, so the table costs 4 bytes a slot and growing it needs
// no pass over the old one. The zero Index is empty and ready to use.
type Index struct {
	slots []int32  // id+1 of the key hashed here, 0 if empty
	keys  []uint64 // keys[id]
	shift uint     // 64 - log2(len(slots))
}

const (
	fibHash        = 0x9e3779b97f4a7c15 // 2^64 / golden ratio, odd
	indexFirstBits = 4                  // 16 slots at first insert
)

// Get returns key's id, or false when key was never interned.
func (x *Index) Get(key uint64) (int32, bool) {
	if len(x.keys) == 0 {
		return 0, false
	}
	mask := len(x.slots) - 1
	for i := int(key * fibHash >> x.shift); ; i = (i + 1) & mask {
		id := x.slots[i] - 1
		if id < 0 {
			return 0, false
		}
		if x.keys[id] == key {
			return id, true
		}
	}
}

// Key returns the key interned as id; id must be one Intern returned.
func (x *Index) Key(id int32) uint64 { return x.keys[id] }

// Len returns the number of keys interned, which is the next id.
func (x *Index) Len() int { return len(x.keys) }

// Intern returns key's id, assigning the next one when key is new;
// added reports that it was. Only a new key can grow the table.
func (x *Index) Intern(key uint64) (id int32, added bool) {
	if id, ok := x.Get(key); ok {
		return id, false
	}
	if 2*(len(x.keys)+1) > len(x.slots) {
		x.grow()
	}
	mask := len(x.slots) - 1
	i := int(key * fibHash >> x.shift)
	for x.slots[i] != 0 {
		i = (i + 1) & mask
	}
	id = int32(len(x.keys))
	x.keys = append(x.keys, key)
	x.slots[i] = id + 1
	return id, true
}

// grow doubles the table (or allocates the first one) and rehashes
// every key from the dense key list.
func (x *Index) grow() {
	bits := uint(indexFirstBits)
	if len(x.slots) > 0 {
		bits = 64 - x.shift + 1
	}
	x.slots = make([]int32, 1<<bits)
	x.shift = 64 - bits
	mask := len(x.slots) - 1
	for id, k := range x.keys {
		i := int(k * fibHash >> x.shift)
		for x.slots[i] != 0 {
			i = (i + 1) & mask
		}
		x.slots[i] = int32(id) + 1
	}
}
