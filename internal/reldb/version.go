package reldb

import (
	"sort"

	"webdbsec/internal/mvcc"
)

// Multi-version concurrency control for the relational engine.
//
// The committed state of a Database is an immutable dbVersion: a map from
// table name to frozen *Table, stamped with the WAL LSN of the record that
// installed it (the committing transaction's one Commit record, or a DDL
// record). Writers build new frozen tables privately and install a new
// version under db.mu; readers Load the current version pointer and run
// entirely lock-free — a query never takes a mutex, and a version, once
// loaded, can never change underneath the reader.
//
// Versions are stamped with the committing WAL LSN, and installs happen in
// the same db.mu critical section that assigns the LSN, so MVCC order and
// replication/log order are the same total order: version V.lsn covers
// exactly the commits and DDL with LSN <= V.lsn.
//
// The publication, pin and reclamation protocol itself is mvcc.Cell's —
// the same cell xmldoc.Store publishes through.

// dbVersion is one immutable committed state of the database.
type dbVersion struct {
	// lsn is the WAL LSN of the record that installed this version: the
	// highest commit/DDL LSN whose effects the version contains.
	lsn int64
	// tables maps table name to its frozen state. The map and every table
	// in it are immutable.
	tables map[string]*Table
}

func (v *dbVersion) table(name string) (*Table, bool) {
	t, ok := v.tables[name]
	return t, ok
}

func (v *dbVersion) tableNames() []string {
	out := make([]string, 0, len(v.tables))
	for n := range v.tables {
		out = append(out, n)
	}
	sort.Strings(out)
	return out
}

// cloneTables shallow-copies the name → table map; the tables themselves
// are shared (they are immutable).
func (v *dbVersion) cloneTables() map[string]*Table {
	out := make(map[string]*Table, len(v.tables)+1)
	for n, t := range v.tables {
		out[n] = t
	}
	return out
}

// Snapshot is a pinned read view of the database: every read through it
// sees the single committed version that was current when the snapshot was
// taken, regardless of how many commits install afterwards. Snapshots are
// cheap (two atomic operations) and must be Released when done so the
// version can be reclaimed; a leaked snapshot delays bookkeeping but never
// blocks writers.
type Snapshot struct {
	pin mvcc.Pin[dbVersion]
}

// Snapshot pins the current committed version and returns a read view of
// it. It never blocks: pinning is lock-free even while commits, DDL and
// checkpoints run.
func (db *Database) Snapshot() *Snapshot {
	s := &Snapshot{}
	db.versions.Pin(&s.pin)
	return s
}

// Release unpins the snapshot. Idempotent.
func (s *Snapshot) Release() { s.pin.Release() }

// LSN returns the WAL LSN the snapshot's version was installed at: the
// snapshot contains exactly the commits and DDL with LSN <= LSN().
func (s *Snapshot) LSN() int64 { return s.pin.Value().lsn }

// Table returns the snapshot's frozen state of the named table.
func (s *Snapshot) Table(name string) (*Table, bool) { return s.pin.Value().table(name) }

// Tables returns the snapshot's table names, sorted.
func (s *Snapshot) Tables() []string { return s.pin.Value().tableNames() }

// ExecSelect runs a read-only query against the pinned version.
//
// seclint:exempt storage engine below the access-control gate; SecureDB authorizes and rewrites before queries reach a snapshot
// seclint:sink
func (s *Snapshot) ExecSelect(stmt *SelectStmt) (*Result, error) {
	return execSelectVersion(s.pin.Value(), stmt)
}

// VersionStats snapshots the MVCC bookkeeping counters.
func (db *Database) VersionStats() mvcc.Stats { return db.versions.Stats() }

// installLocked publishes a new version: the current tables overlaid with
// the (already frozen) tables in work, stamped at lsn. Caller holds db.mu;
// lsn is the WAL LSN assigned in the same critical section, so versions
// install in LSN order.
//
// seclint:locked caller holds db.mu
func (db *Database) installLocked(lsn int64, work map[string]*Table) {
	cur := db.versions.Load()
	tables := cur.cloneTables()
	for name, t := range work {
		if !t.frozen {
			panic("reldb: installing unfrozen table " + name)
		}
		tables[name] = t
	}
	if lsn < cur.lsn {
		lsn = cur.lsn
	}
	db.versions.Install(dbVersion{lsn: lsn, tables: tables})
}
