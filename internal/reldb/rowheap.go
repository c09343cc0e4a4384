package reldb

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
type rowChunk [chunkSize]Row

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
	return h.chunks[ci][id&slotMask]
}

// writable returns chunk ci for writing in place, creating or copying it
// on this heap's first write to it.
func (h *rowHeap) writable(ci int) *rowChunk {
	c := h.chunks[ci]
	if h.owned[ci] {
		return c
	}
	if c == nil {
		c = new(rowChunk)
	} else {
		cp := *c
		c = &cp
	}
	h.chunks[ci], h.owned[ci] = c, true
	return c
}

// put stores r (not nil) under id, replacing any row already there.
func (h *rowHeap) put(id int64, r Row) {
	ci := int(id >> chunkBits)
	if grow := ci + 1 - len(h.chunks); grow > 0 {
		h.chunks = append(h.chunks, make([]*rowChunk, grow)...)
		h.owned = append(h.owned, make([]bool, grow)...)
	}
	c := h.writable(ci)
	if c[id&slotMask] == nil {
		h.n++
	}
	c[id&slotMask] = r
}

// remove deletes the row stored under id, which must exist. A chunk left
// without live rows is dropped, so scans skip it.
func (h *rowHeap) remove(id int64) {
	ci := int(id >> chunkBits)
	c := h.writable(ci)
	c[id&slotMask] = nil
	h.n--
	for _, r := range c {
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
		for slot, r := range c {
			if r != nil && !fn(base+int64(slot), r) {
				return
			}
		}
	}
}
