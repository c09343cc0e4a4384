package reldb

import "fmt"

// Table is a heap of rows. Rows are addressed by a stable rowID (never
// reused), which the transaction layer uses for write sets and locks.
//
// A table is the MVCC unit of versioning: one reachable from a published
// dbVersion is frozen — immutable forever — and all reads on it are
// lock-free. Mutation happens only on private working copies (a
// transaction's write set, recovery staging, a follower's apply overlay)
// that exactly one goroutine owns; committing freezes the copy and installs
// it into a new version. The frozen flag turns a violation of that
// ownership discipline into a panic instead of a data race.
//
// The unit of sharing is smaller than the table. A working copy shares its
// rows with the version it was cloned from chunk by chunk (rowheap.go) and
// copies a chunk of 256 rowID slots on its first write into it, so taking
// the copy costs the chunk-pointer slice and a one-row commit costs one
// chunk, whatever the table's size. The record of which chunks a copy has
// made its own lives in the copy and ends when it is frozen: chunks outlive
// the copies that made them, inside every later version that still shares
// them, so nothing stored in a chunk can say who may write it.
type Table struct {
	Name   string
	Schema Schema

	// frozen marks the table immutable: it is reachable from a published
	// version and may be read by any number of goroutines, but never
	// written again.
	frozen bool

	rows   rowHeap
	nextID int64
}

// NewTable creates an empty, unfrozen table.
func NewTable(name string, schema Schema) *Table {
	return &Table{Name: name, Schema: schema}
}

// freeze marks the table immutable and returns it. Its claim on the chunks
// it wrote ends here: from now on they are shared with every clone.
func (t *Table) freeze() *Table {
	t.frozen = true
	t.rows.owned = nil
	return t
}

// clone returns a private, unfrozen copy of a frozen table that the caller
// may mutate. Rows are shared with the original chunk by chunk — safe,
// because a stored row is never mutated in place (Insert/Update store
// fresh clones) and a shared chunk is copied before its first write — so a
// clone costs the chunk-pointer slice whatever the table's size. Cloning a
// table that is still being written would leave two writers trusting the
// same chunks, so it panics like any other breach of the ownership
// discipline.
func (t *Table) clone() *Table {
	if !t.frozen {
		panic("reldb: clone of unfrozen table " + t.Name + " (freeze it first)")
	}
	return &Table{Name: t.Name, Schema: t.Schema, rows: t.rows.clone(), nextID: t.nextID}
}

// mutable panics when the table is frozen — the copy-on-write discipline
// guard (a frozen table may be shared by any number of readers).
func (t *Table) mutable() {
	if t.frozen {
		panic("reldb: write to frozen table " + t.Name + " (mutate a working copy instead)")
	}
}

// Insert adds a row and returns its rowID. Only legal on a private working
// copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Insert(r Row) (int64, error) {
	t.mutable()
	if err := t.Schema.CheckRow(r); err != nil {
		return 0, err
	}
	t.nextID++
	id := t.nextID
	t.rows.put(id, r.Clone())
	return id, nil
}

// redo applies one logged change to a private working copy — the
// recovery and replica counterpart of Insert, Update and Delete. It refuses
// what the live path cannot have logged: a row the schema rejects, a delete
// or update of a row that is not there, and a new row under any id but the
// next one (rowIDs are dense and never reused).
func (t *Table) redo(c Change) error {
	switch {
	case c.Row == nil:
		_, err := t.Delete(c.RowID)
		return err
	case t.rows.get(c.RowID) != nil:
		_, err := t.Update(c.RowID, c.Row)
		return err
	case c.RowID != t.nextID+1:
		return fmt.Errorf("reldb: table %s: new row id %d, want %d", t.Name, c.RowID, t.nextID+1)
	}
	_, err := t.Insert(c.Row)
	return err
}

// insertAt restores a row under a specific id (checkpoint restore).
func (t *Table) insertAt(id int64, r Row) {
	t.mutable()
	t.rows.put(id, r.Clone())
	if id > t.nextID {
		t.nextID = id
	}
}

// Get returns a copy of the row with the given id. Lock-free.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Get(id int64) (Row, bool) {
	r := t.rows.get(id)
	if r == nil {
		return nil, false
	}
	return r.Clone(), true
}

// Update replaces the row with the given id, returning the old row. Only
// legal on a private working copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Update(id int64, r Row) (Row, error) {
	t.mutable()
	if err := t.Schema.CheckRow(r); err != nil {
		return nil, err
	}
	old := t.rows.get(id)
	if old == nil {
		return nil, fmt.Errorf("reldb: table %s has no row %d", t.Name, id)
	}
	t.rows.put(id, r.Clone())
	return old, nil
}

// Delete removes the row with the given id, returning the old row. Only
// legal on a private working copy.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Delete(id int64) (Row, error) {
	t.mutable()
	old := t.rows.get(id)
	if old == nil {
		return nil, fmt.Errorf("reldb: table %s has no row %d", t.Name, id)
	}
	t.rows.remove(id)
	return old, nil
}

// Len returns the number of rows. Lock-free.
func (t *Table) Len() int {
	return t.rows.n
}

// Scan calls fn for every (rowID, row) pair in rowID order until fn
// returns false. The row is the stored one, shared with every version that
// holds it: fn must not mutate it. Lock-free: on a frozen table the
// iteration sees exactly the version's state no matter what commits
// concurrently.
//
// seclint:exempt physical row storage; grants and row policies are enforced by SecureDB above the engine
func (t *Table) Scan(fn func(id int64, r Row) bool) {
	t.rows.scan(fn)
}
