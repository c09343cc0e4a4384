package reldb

import (
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"webdbsec/internal/mvcc"
)

// Result is the outcome of executing a statement.
type Result struct {
	Columns []string
	// Attrs, when set, names each column's source attribute — the table
	// column its values were computed from, "" for none (COUNT(*)). Only an
	// aggregate result sets it; every other result's columns are attributes.
	Attrs    []string
	Rows     []Row
	Affected int
	// LSN is the log position of the Commit (or DDL) record a write
	// statement appended — the position a replicated deployment waits on
	// before acknowledging it. Zero for reads.
	LSN int64
}

// Attributes returns the source attribute of each result column: what the
// privacy and inference layers reason about.
func (r *Result) Attributes() []string {
	if r.Attrs != nil {
		return r.Attrs
	}
	return r.Columns
}

// Database is the engine: a multi-versioned table heap, the metadata
// catalog, and the recovery log. Statement execution is autocommit via
// Exec; multi-statement transactions go through Begin (txn.go).
//
// Concurrency model (version.go has the full story): the committed state
// is an immutable dbVersion published through an mvcc.Cell. Readers Load it
// and never block — SELECTs, catalog lookups and snapshots take no mutex,
// and checkpoints do not take db.mu. db.mu is a writer-side lock only: it
// serializes version installs with the LSNs they are stamped with, and DDL.
type Database struct {
	// mu serializes writers (LSN assignment with the install it stamps,
	// DDL). The read path never takes it.
	mu  sync.Mutex
	log *Log

	// versions publishes the committed version; readers Load or Pin it
	// lock-free, writers Install a successor under mu.
	versions mvcc.Cell[dbVersion]

	lockMgr *lockManager
	cons    constraintSet
	// readOnly marks a follower's materialization: only the replay path
	// (Follower.Apply) installs versions into it, so DDL and Begin — and
	// with Begin every INSERT, UPDATE and DELETE — fail until Promote. It
	// only ever goes from true to false, so a writer that saw false may
	// carry on without holding anything.
	readOnly atomic.Bool
}

// errReadOnly refuses a write to a follower's database.
var errReadOnly = errors.New("reldb: database is a read-only replica; writes go to the leader")

// NewDatabase returns an empty in-memory database.
func NewDatabase() *Database {
	return newDatabaseAt(dbVersion{tables: make(map[string]*Table)}, false)
}

// newDatabaseAt returns an in-memory database whose committed state is v;
// readOnly is a follower's materialization.
//
// seclint:locked db is not yet published; no other goroutine holds a reference before newDatabaseAt returns
func newDatabaseAt(v dbVersion, readOnly bool) *Database {
	db := &Database{
		log:     &Log{nextLSN: v.lsn},
		lockMgr: newLockManager(),
	}
	db.readOnly.Store(readOnly)
	db.versions.Init(&db.mu, v)
	return db
}

// Log returns the database's recovery log.
func (db *Database) Log() *Log { return db.log }

// Table returns the committed version of a table by name. Lock-free; the
// returned table is frozen and safe for concurrent reads, but a caller
// making several calls sees potentially different versions — pin a
// Snapshot for a consistent multi-table view.
func (db *Database) Table(name string) (*Table, bool) {
	return db.versions.Load().table(name)
}

// Tables returns the table names, sorted — the catalog listing. Lock-free.
func (db *Database) Tables() []string {
	return db.versions.Load().tableNames()
}

// Exec parses and executes one statement in autocommit mode.
//
// seclint:exempt storage engine below the access-control gate; SecureDB.Exec authorizes and rewrites first
func (db *Database) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return db.ExecStmt(st)
}

// ExecStmt executes a parsed statement in autocommit mode: DML runs inside
// an implicit transaction.
//
// seclint:exempt storage engine below the access-control gate; SecureDB.Exec authorizes and rewrites first
// seclint:sink
func (db *Database) ExecStmt(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return db.execDDL(s)
	case *SelectStmt:
		return db.execSelect(s)
	default:
		txn := db.Begin()
		res, err := txn.ExecStmt(st)
		if err != nil {
			txn.Abort()
			return nil, err
		}
		if res.LSN, err = txn.commit(); err != nil {
			return nil, err
		}
		return res, nil
	}
}

// execDDL creates a table: the one DDL statement.
func (db *Database) execDDL(s *CreateTableStmt) (*Result, error) {
	if db.readOnly.Load() {
		return nil, errReadOnly
	}
	if err := s.Schema.check(s.Table); err != nil {
		return nil, err
	}
	db.mu.Lock()
	defer db.mu.Unlock()
	if _, exists := db.versions.Load().table(s.Table); exists {
		return nil, fmt.Errorf("reldb: table %s already exists", s.Table)
	}
	lsn, _ := db.log.appendAsync(LogRecord{Op: OpCreateTable, Table: s.Table, Schema: &s.Schema})
	db.installLocked(lsn, map[string]*Table{s.Table: NewTable(s.Table, s.Schema).freeze()})
	return &Result{LSN: lsn}, nil
}

// execSelect plans and runs a read-only query against the current
// committed version. Lock-free: the version is loaded once, so the query
// sees one consistent state no matter what commits concurrently.
func (db *Database) execSelect(s *SelectStmt) (*Result, error) {
	return execSelectVersion(db.versions.Load(), s)
}

// execSelectVersion runs a SELECT against one pinned version.
func execSelectVersion(v *dbVersion, s *SelectStmt) (*Result, error) {
	t, ok := v.table(s.Table)
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", s.Table)
	}
	return execSelectTable(t, s)
}

// execSelectTable runs a SELECT against one table state (a frozen version
// table, or a transaction's private working copy for read-your-writes).
//
// This is the only SELECT executor: one scan, then either the aggregate
// fold or ORDER BY / LIMIT / projection. Every name the statement mentions
// is resolved before the first row is read, so an unknown column is an error
// on every table state, the empty one included. Stored rows are immutable,
// so filter, ORDER BY and LIMIT work on the table's own rows and only those
// that survive LIMIT are copied out.
func execSelectTable(t *Table, s *SelectStmt) (*Result, error) {
	plan, err := planScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	if len(s.Aggs) > 0 {
		return aggregate(plan, s)
	}
	order, err := bindOrder(&t.Schema, s.OrderBy)
	if err != nil {
		return nil, err
	}
	names, cols, err := bindColumns(&t.Schema, s.Columns, s.hidden)
	if err != nil {
		return nil, err
	}
	var rows []Row
	plan.run(func(_ int64, r Row) { rows = append(rows, r) })
	if order != nil {
		// Stable over the scan's rowID order, so ties come out by rowID and
		// truncating afterwards is ORDER BY ... LIMIT.
		slices.SortStableFunc(rows, order)
	}
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	return project(rows, names, cols), nil
}

// bindOrder resolves ORDER BY keys into a row comparison (multi-key
// lexicographic, per-key direction); nil when there are no keys.
func bindOrder(schema *Schema, keys []OrderKey) (func(a, b Row) int, error) {
	if len(keys) == 0 {
		return nil, nil
	}
	type orderCol struct {
		idx  int
		desc bool
	}
	cols := make([]orderCol, len(keys))
	for i, k := range keys {
		ci := schema.ColIndex(k.Col)
		if ci < 0 {
			return nil, fmt.Errorf("reldb: unknown ORDER BY column %s", k.Col)
		}
		cols[i] = orderCol{ci, k.Desc}
	}
	return func(a, b Row) int {
		for _, k := range cols {
			if c := compareTo(&a[k.idx], &b[k.idx]); c != 0 {
				if k.desc {
					return -c
				}
				return c
			}
		}
		return 0
	}, nil
}

// bindColumns resolves a select list (nil = every column, in schema order)
// into the result's column names and their positions in a table row; a
// hidden column's position is -1, which project reads as NULL.
func bindColumns(schema *Schema, cols []string, hidden map[string]bool) (names []string, idx []int, err error) {
	if cols == nil {
		names = make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			names[i] = c.Name
		}
	} else {
		names = append(names, cols...)
	}
	idx = make([]int, len(names))
	for i, c := range names {
		if idx[i] = schema.ColIndex(c); idx[i] < 0 {
			return nil, nil, fmt.Errorf("reldb: unknown column %s", c)
		}
		if hidden[c] {
			idx[i] = -1
		}
	}
	return names, idx, nil
}

// project copies columns idx (named names) out of rows; position -1 is a
// column the subject's view hides and stays NULL. The result never aliases
// table storage, SELECT * included: callers own their result rows and write
// into them (privacy.FilterResult NULLs masked columns in place). All
// result rows are cut from one backing array, each capped at its own length
// so an append cannot reach its neighbour.
func project(rows []Row, names []string, idx []int) *Result {
	width := len(idx)
	vals := make([]Value, len(rows)*width)
	out := make([]Row, len(rows))
	for i, r := range rows {
		pr := vals[i*width : (i+1)*width : (i+1)*width]
		for j, ci := range idx {
			if ci >= 0 {
				pr[j] = r[ci]
			}
		}
		out[i] = pr
	}
	return &Result{Columns: names, Rows: out, Affected: len(out)}
}

// scanPlan is a predicate bound to a table: the matcher, and the key tests
// that narrow the scan feeding it.
type scanPlan struct {
	t     *Table
	match matcher
	keys  keyFilter
}

// planScan binds the predicate (nil matches every row) to the table. It
// reads no row, so an unknown column or operator is reported whatever the
// table holds.
func planScan(t *Table, where Expr) (scanPlan, error) {
	p := scanPlan{t: t, match: matchAll}
	if where != nil {
		var err error
		if p.match, err = where.bind(&t.Schema); err != nil {
			return scanPlan{}, err
		}
		bindKeys(where, &t.Schema, &p.keys)
	}
	return p, nil
}

// run calls emit, in rowID order, for every row the predicate accepts. A
// predicate with key tests scans the slots of each chunk that pass them,
// and one without scans every row; the matcher decides every candidate.
// Emitted rows are the stored ones — shared, never to be modified.
func (p *scanPlan) run(emit func(id int64, r Row)) {
	if p.keys.n > 0 {
		p.t.rows.scanNarrowed(len(p.t.Schema.Columns), &p.keys, func(id int64, r Row) {
			if p.match(r) {
				emit(id, r)
			}
		})
		return
	}
	p.t.rows.scan(func(id int64, r Row) bool {
		if p.match(r) {
			emit(id, r)
		}
		return true
	})
}
