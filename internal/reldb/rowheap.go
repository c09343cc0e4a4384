package reldb

import (
	"hash/maphash"
	"sync/atomic"
)

// rowHeap is a table's row store: a persistent vector of rows indexed by
// rowID. RowIDs are dense, assigned in increasing order and never reused,
// so the vector is cut into fixed chunks addressed by id>>chunkBits and an
// in-order walk of the chunks IS rowID order — a scan sorts nothing and
// allocates nothing, and a lookup is two index operations.
//
// The chunk is the unit of sharing between table versions. clone copies
// only the chunk-pointer slice; a chunk itself is copied the first time
// the clone writes into it, so a commit that touches one row copies one
// chunk however large the table is. Which chunks a heap may write in place
// is recorded in the heap (owned), never in the chunk: a chunk is reachable
// from every version cloned before it was replaced, and a flag stored in
// it would be seen — and trusted — by all of them.
//
// Beside its rows a chunk may carry the same rows in scan form (chunkKeys),
// which a predicate scan narrows with before it runs the row matcher.
type rowHeap struct {
	// chunks[i] holds the rows with id>>chunkBits == i; nil when none of
	// them is live.
	chunks []*rowChunk
	// owned[i] reports that chunks[i] was created or copied by this heap
	// and is reachable from no other, so it may be written in place. A
	// frozen table's heap owns nothing.
	owned []bool
	// n is the number of live rows.
	n int
}

const (
	chunkBits = 8
	chunkSize = 1 << chunkBits
	slotMask  = chunkSize - 1
)

// rowChunk is chunkSize consecutive rowID slots; a nil slot is an absent
// row (stored rows are never nil: Insert and Update store Row.Clone()).
type rowChunk struct {
	rows [chunkSize]Row
	// keys is nil until the chunk is first scanned. A frozen chunk's keys
	// are installed once, by whichever of its concurrent readers gets
	// there first (every build of them is the same), and never written
	// again; an owned chunk's keys follow each put and remove.
	keys atomic.Pointer[chunkKeys]
}

// chunkKeys is a chunk in scan form: column by column, each slot's value
// kind and a 64-bit key. A key is exact for an INT (its value, sign bit
// flipped so that unsigned order is signed order) and a fingerprint for a
// TEXT (keySeed's maphash of it), so key equality may be a collision but
// key inequality never is; other kinds key 0. An absent slot is KindNull.
type chunkKeys []colKeys

type colKeys struct {
	kind [chunkSize]uint8
	key  [chunkSize]uint64
}

// keySeed fingerprints TEXT keys; per process, as keys are never stored.
var keySeed = maphash.MakeSeed()

// intKey is the key of an INT: its bits, reordered so that unsigned key
// order is the integers' order.
func intKey(i int64) uint64 { return uint64(i) ^ 1<<63 }

// textKey is the key of a TEXT.
func textKey(s string) uint64 { return maphash.String(keySeed, s) }

// set records row r (nil: absent) as slot s of the keys.
func (k chunkKeys) set(s int, r Row) {
	for c := range k {
		col := &k[c]
		col.kind[s], col.key[s] = uint8(KindNull), 0
		if r == nil {
			continue
		}
		switch v := &r[c]; v.Kind {
		case KindInt:
			col.kind[s], col.key[s] = uint8(KindInt), intKey(v.I)
		case KindString:
			col.kind[s], col.key[s] = uint8(KindString), textKey(v.S)
		default:
			col.kind[s] = uint8(v.Kind)
		}
	}
}

// scanKeys returns the chunk's keys for rows of width columns, building and
// installing them on the chunk's first scan.
func (c *rowChunk) scanKeys(width int) chunkKeys {
	if k := c.keys.Load(); k != nil {
		return *k
	}
	k := make(chunkKeys, width)
	for s, r := range c.rows {
		if r != nil {
			k.set(s, r)
		}
	}
	if !c.keys.CompareAndSwap(nil, &k) {
		return *c.keys.Load()
	}
	return k
}

// clone returns a heap sharing every chunk with h and owning none.
func (h *rowHeap) clone() rowHeap {
	return rowHeap{
		chunks: append([]*rowChunk(nil), h.chunks...),
		owned:  make([]bool, len(h.chunks)),
		n:      h.n,
	}
}

// get returns the stored row with the given id (shared, not a copy), or
// nil when there is none.
func (h *rowHeap) get(id int64) Row {
	ci := uint64(id) >> chunkBits
	if ci >= uint64(len(h.chunks)) || h.chunks[ci] == nil {
		return nil
	}
	return h.chunks[ci].rows[id&slotMask]
}

// writable returns chunk ci for writing in place, creating or copying it
// on this heap's first write to it. A copy takes the original's keys along
// (a private copy of them), so a read after a one-row commit builds none.
func (h *rowHeap) writable(ci int) *rowChunk {
	c := h.chunks[ci]
	if h.owned[ci] {
		return c
	}
	cp := new(rowChunk)
	if c != nil {
		cp.rows = c.rows
		if k := c.keys.Load(); k != nil {
			kc := append(chunkKeys(nil), *k...)
			cp.keys.Store(&kc)
		}
	}
	h.chunks[ci], h.owned[ci] = cp, true
	return cp
}

// put stores r (not nil) under id, replacing any row already there.
func (h *rowHeap) put(id int64, r Row) {
	ci := int(id >> chunkBits)
	if grow := ci + 1 - len(h.chunks); grow > 0 {
		h.chunks = append(h.chunks, make([]*rowChunk, grow)...)
		h.owned = append(h.owned, make([]bool, grow)...)
	}
	c := h.writable(ci)
	slot := int(id & slotMask)
	if c.rows[slot] == nil {
		h.n++
	}
	c.rows[slot] = r
	if k := c.keys.Load(); k != nil {
		k.set(slot, r)
	}
}

// remove deletes the row stored under id, which must exist. A chunk left
// without live rows is dropped, so scans skip it.
func (h *rowHeap) remove(id int64) {
	ci := int(id >> chunkBits)
	c := h.writable(ci)
	slot := int(id & slotMask)
	c.rows[slot] = nil
	if k := c.keys.Load(); k != nil {
		k.set(slot, nil)
	}
	h.n--
	for _, r := range c.rows {
		if r != nil {
			return
		}
	}
	h.chunks[ci], h.owned[ci] = nil, false
}

// scan calls fn for every (id, row) pair in ascending id order until fn
// returns false. The rows are the stored ones; fn must not modify them.
func (h *rowHeap) scan(fn func(id int64, r Row) bool) {
	for ci, c := range h.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << chunkBits
		for slot, r := range c.rows {
			if r != nil && !fn(base+int64(slot), r) {
				return
			}
		}
	}
}

// scanNarrowed calls fn, in ascending id order, for every row of width
// columns whose slot passes every test in f — a superset of the rows f's
// predicate matches, which fn is left to decide — until fn returns false.
// Chunks are narrowed on their keys, built on first use.
func (h *rowHeap) scanNarrowed(width int, f *keyFilter, fn func(id int64, r Row) bool) {
	var sel [chunkSize]uint8
	for ci, c := range h.chunks {
		if c == nil {
			continue
		}
		base := int64(ci) << chunkBits
		for _, s := range sel[:f.narrow(c.scanKeys(width), &sel)] {
			if r := c.rows[s]; r != nil && !fn(base+int64(s), r) {
				return
			}
		}
	}
}

// narrow writes into sel, in ascending order, the slots of the chunk whose
// keys pass every test of f (which has at least one), and returns how many
// there are. key-lo <= hi-lo is lo <= key <= hi in one unsigned comparison;
// it goes first because it rejects far more slots than the kind does.
func (f *keyFilter) narrow(k chunkKeys, sel *[chunkSize]uint8) int {
	t := &f.tests[0]
	col, kind, lo, span := &k[t.col], t.kind, t.lo, t.hi-t.lo
	n := 0
	for s := range col.key {
		sel[n&slotMask] = uint8(s) // n <= s: the mask only spares a bounds check
		if col.key[s]-lo <= span && col.kind[s] == kind {
			n++
		}
	}
	for _, t := range f.tests[1:f.n] {
		col, kind, lo, span := &k[t.col], t.kind, t.lo, t.hi-t.lo
		m := 0
		for _, s := range sel[:n] {
			sel[m] = s
			if col.key[s]-lo <= span && col.kind[s] == kind {
				m++
			}
		}
		n = m
	}
	return n
}
