package storage

import "slices"

// A keyTable finds rows by key without holding any key: it is one flat
// open-addressing hash table of row IDs, one per primary key and one per
// hash index. Each slot packs the low 32 bits of the key's hash above the
// row ID plus one; 0 marks an empty slot. A probe walks the slots from the
// hash's home slot and confirms each candidate whose hash bits match
// against the key cells the heap holds for that row (Table.findKey,
// Table.chainOf), so a key of any size costs one word per slot. The slot
// count is a power of two, probing is linear and the table doubles at ¾
// load. A deletion shifts the later entries of its run back instead of
// leaving a tombstone. Growth and deletion read only the stored hash bits,
// never the heap.
//
// A unique table (the primary key) files one row per key. A non-unique
// table (a hash index) files one chain per key. The slot holds the
// chain's head, its highest row ID, and next links each row to the next
// lower one. A lookup walks one chain, and filing a new row, which always
// has the highest ID, is O(1).
//
// Row IDs must fit 32 bits; Insert refuses a table's maxSlots-th slot.
type keyTable struct {
	slots []uint64
	n     int // filled slots
	// next is a non-unique table's chains, indexed by row ID: next[id] is
	// the chain's next row ID plus one, 0 at the chain's end.
	next []uint32
}

// maxSlots bounds a table's row slots so that every row ID plus one fits
// the 32 bits a slot gives it.
const maxSlots = 1<<32 - 1

// newKeyTable returns an empty table that files n keys without growing.
func newKeyTable(n int) *keyTable {
	size := 8
	for size*3 < n*4 {
		size *= 2
	}
	return &keyTable{slots: make([]uint64, size)}
}

func slotEntry(h uint64, id RowID) uint64 { return h<<32 | uint64(id+1) }

func entryRow(e uint64) RowID { return RowID(uint32(e)) - 1 }

// home is the first slot of the probe sequence of e's hash bits.
func (k *keyTable) home(e uint64) int { return int(e>>32) & (len(k.slots) - 1) }

// probe is a walk along one hash's probe sequence.
type probe struct {
	k  *keyTable
	h  uint32
	s  int // the next slot to look at
	at int // the slot of the candidate next returned last
}

func (k *keyTable) probe(h uint64) probe {
	p := probe{k: k, h: uint32(h)}
	if len(k.slots) > 0 {
		p.s = int(p.h) & (len(k.slots) - 1)
	}
	return p
}

// next returns the next row filed under the probe's hash bits; ok is false
// once the empty slot that ends the sequence is reached. The table is
// never full, so a sequence always ends.
func (p *probe) next() (id RowID, ok bool) {
	slots := p.k.slots
	if len(slots) == 0 {
		return 0, false
	}
	mask := len(slots) - 1
	for {
		e := slots[p.s]
		if e == 0 {
			return 0, false
		}
		s := p.s
		p.s = (p.s + 1) & mask
		if uint32(e>>32) == p.h {
			p.at = s
			return entryRow(e), true
		}
	}
}

// add files id under hash h as a new key; the caller has found no entry
// for the key.
func (k *keyTable) add(h uint64, id RowID) {
	if (k.n+1)*4 > len(k.slots)*3 {
		k.resize(max(8, 2*len(k.slots)))
	}
	k.place(slotEntry(uint64(uint32(h)), id))
	k.n++
}

// place puts e in the first empty slot of its probe sequence.
func (k *keyTable) place(e uint64) {
	mask := len(k.slots) - 1
	s := k.home(e)
	for k.slots[s] != 0 {
		s = (s + 1) & mask
	}
	k.slots[s] = e
}

func (k *keyTable) resize(size int) {
	old := k.slots
	k.slots = make([]uint64, size)
	for _, e := range old {
		if e != 0 {
			k.place(e)
		}
	}
}

// set files id in slot s in place of its row, keeping the hash bits.
func (k *keyTable) set(s int, id RowID) {
	k.slots[s] = k.slots[s]&^(1<<32-1) | uint64(id+1)
}

// removeAt empties slot s. Each later entry of the run whose home slot
// does not lie after the hole moves back into it, so every entry stays
// reachable from its home without tombstones.
func (k *keyTable) removeAt(s int) {
	mask := len(k.slots) - 1
	for j := (s + 1) & mask; k.slots[j] != 0; j = (j + 1) & mask {
		if e := k.slots[j]; (j-k.home(e))&mask >= (j-s)&mask {
			k.slots[s] = e
			s = j
		}
	}
	k.slots[s] = 0
	k.n--
}

// remove removes row id, filed under hash h, from a unique table.
func (k *keyTable) remove(h uint64, id RowID) {
	p := k.probe(h)
	for got, ok := p.next(); ok; got, ok = p.next() {
		if got == id {
			k.removeAt(p.at)
			return
		}
	}
}

// addChain files id under hash h as the one row of a new key's chain.
func (k *keyTable) addChain(h uint64, id RowID) {
	k.growNext(id)
	k.next[id] = 0
	k.add(h, id)
}

// link files id in the chain at slot s, which keeps descending row-ID
// order. A new row becomes the head; an updated row walks to its place.
func (k *keyTable) link(s int, id RowID) {
	k.growNext(id)
	head := entryRow(k.slots[s])
	if id > head {
		k.next[id] = uint32(head + 1)
		k.set(s, id)
		return
	}
	prev := head
	for n := k.next[prev]; n != 0 && RowID(n-1) > id; n = k.next[prev] {
		prev = RowID(n - 1)
	}
	k.next[id], k.next[prev] = k.next[prev], uint32(id+1)
}

// unlink removes id from the chain at slot s, and the chain's slot with
// its last row.
func (k *keyTable) unlink(s int, id RowID) {
	if head := entryRow(k.slots[s]); head == id {
		if n := k.next[id]; n != 0 {
			k.set(s, RowID(n-1))
		} else {
			k.removeAt(s)
		}
	} else {
		prev := head
		for k.next[prev] != uint32(id+1) {
			if k.next[prev] == 0 {
				return
			}
			prev = RowID(k.next[prev] - 1)
		}
		k.next[prev] = k.next[id]
	}
	k.next[id] = 0
}

// chain returns the rows of the chain at slot s in ascending order. The
// primary key's table, shared by a hash index, chains nothing: its chains
// are their heads.
func (k *keyTable) chain(s int) []RowID {
	var out []RowID
	for id := entryRow(k.slots[s]); ; {
		out = append(out, id)
		if int(id) >= len(k.next) || k.next[id] == 0 {
			break
		}
		id = RowID(k.next[id] - 1)
	}
	slices.Reverse(out)
	return out
}

func (k *keyTable) growNext(id RowID) {
	if int(id) >= len(k.next) {
		k.next = append(k.next, make([]uint32, max(int(id)+1, 2*len(k.next))-len(k.next))...)
	}
}
