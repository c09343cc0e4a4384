package reldb

import (
	"cmp"
	"errors"
	"fmt"
	"slices"
	"sync"
	"sync/atomic"

	"webdbsec/internal/mvcc"
)

// Result is the outcome of executing a statement. A SELECT's result is
// either owned — its Rows copied out of the table (project) or folded, the
// caller's to keep and write — or bound: the statement planned against one
// frozen table version with no row read yet, which Each reads. Every entry
// point that returns a SELECT's rows returns them owned, bar
// SecureDB.ExecBound.
type Result struct {
	Columns []string
	// Attrs, when set, names each column's source attribute — the table
	// column its values were computed from, "" for none (COUNT(*)). Only an
	// aggregate result sets it; every other result's columns are attributes.
	Attrs []string
	// Rows holds an owned result's rows; a bound result's are read by Each.
	Rows     []Row
	Affected int
	// LSN is the log position of the Commit (or DDL) record a write
	// statement appended — the position a replicated deployment waits on
	// before acknowledging it. Zero for reads.
	LSN int64
	// sel is a bound result's selection; the zero selection (no table) for
	// an owned one.
	sel selection
}

// bound reports whether the result's rows are still to be read.
func (r *Result) bound() bool { return r.sel.plan.t != nil }

// Each calls fn for every row of the result, in answer order, with the
// result's column map: result column j is row[cols[j]], or NULL where
// cols[j] is -1. Neither row nor cols may be modified. A bound result hands
// over the stored rows, shared with every version that holds them, and
// reads them anew on each call, from the version it was bound to; an owned
// result hands over its Rows under the identity map.
func (r *Result) Each(fn func(row Row, cols []int)) {
	s := &r.sel
	switch {
	case s.agg != nil:
		for _, row := range s.agg.fold(&s.plan) {
			fn(row, s.cols)
		}
	case r.bound():
		s.each(func(row Row) { fn(row, s.cols) })
	default:
		cols := identity(len(r.Columns))
		for _, row := range r.Rows {
			fn(row, cols)
		}
	}
}

// Hide makes result column col read NULL. On a bound result that is its
// column-map entry going to -1, the mechanism a column policy's hidden
// column already is (bindColumns); an owned result's cells are NULLed in
// place.
func (r *Result) Hide(col int) {
	if r.bound() {
		r.sel.cols = slices.Clone(r.sel.cols)
		r.sel.cols[col] = -1
		return
	}
	nullColumn(r.Rows, col)
}

// nullColumn sets column col of every row to NULL.
func nullColumn(rows []Row, col int) {
	for _, row := range rows {
		row[col] = Null()
	}
}

// own reads a bound result into owned Rows and returns it; an owned result
// is returned as it is. A row selection is copied out by project; an
// aggregate's fold is owned already, and its hidden columns are NULLed in
// it.
func (r *Result) own() *Result {
	if !r.bound() {
		return r
	}
	s := &r.sel
	if s.agg != nil {
		r.Rows = s.agg.fold(&s.plan)
		for j, c := range s.cols {
			if c < 0 {
				nullColumn(r.Rows, j)
			}
		}
	} else {
		r.Rows = project(s.collect(), s.cols)
	}
	r.Affected, r.sel = len(r.Rows), selection{}
	return r
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
// an implicit transaction. A SELECT's rows come back owned.
//
// seclint:exempt storage engine below the access-control gate; SecureDB.Exec authorizes and rewrites first
// seclint:sink
func (db *Database) ExecStmt(st Stmt) (*Result, error) {
	res, err := db.execBound(st)
	if err != nil {
		return nil, err
	}
	return res.own(), nil
}

// execBound is ExecStmt leaving a SELECT's result bound to the version
// current now: planned, its every error decided, no row read.
//
// seclint:sink
func (db *Database) execBound(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		return db.execDDL(s)
	case *SelectStmt:
		return bindVersion(db.versions.Load(), s)
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

// bindVersion binds a SELECT to one version's table. A loaded version is
// immutable and the result keeps its table alive, so the rows read later
// are the ones the version held at bind.
func bindVersion(v *dbVersion, s *SelectStmt) (*Result, error) {
	t, ok := v.table(s.Table)
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", s.Table)
	}
	return bindSelect(t, s)
}

// bindSelect binds a SELECT to one table state (a frozen version table, or
// a transaction's private working copy for read-your-writes) and returns
// the bound result. This is the only SELECT executor, and it reads no row:
// every name the statement mentions is resolved here, so an unknown column
// is an error on every table state, the empty one included, and whether a
// statement errs never depends on what is read later. Reading the result
// runs the one scan, then the aggregate fold or ORDER BY / LIMIT
// (selection); a working copy changes under its transaction's next
// statement, so its result must be owned before that.
func bindSelect(t *Table, s *SelectStmt) (*Result, error) {
	plan, err := planScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	if len(s.Aggs) > 0 {
		agg, names, attrs, err := bindAggregate(&t.Schema, s)
		if err != nil {
			return nil, err
		}
		return &Result{Columns: names, Attrs: attrs, sel: selection{plan: plan, cols: identity(len(names)), agg: agg}}, nil
	}
	order, err := bindOrder(&t.Schema, s.OrderBy)
	if err != nil {
		return nil, err
	}
	names, cols, err := bindColumns(&t.Schema, s.Columns, s.hidden)
	if err != nil {
		return nil, err
	}
	return &Result{Columns: names, sel: selection{plan: plan, cols: cols, order: order, limit: s.Limit}}, nil
}

// selection is a SELECT bound to its table: the scan, then either the
// aggregate fold or ORDER BY and LIMIT, and the column map that reads each
// result column out of a row.
type selection struct {
	plan scanPlan
	// cols maps result column j to its position in a row (a table row, or
	// a folded aggregate row); -1 reads NULL.
	cols  []int
	order func(a, b Row) int // nil: rowID order
	limit int                // -1: no LIMIT
	// agg, when set, folds the scanned rows into the result's rows.
	agg *aggPlan
}

// each calls fn with the selection's stored rows, in answer order. Without
// ORDER BY the scan hands them over as it finds them and stops at LIMIT.
func (s *selection) each(fn func(Row)) {
	if s.order != nil {
		for _, r := range s.collect() {
			fn(r)
		}
		return
	}
	if s.limit == 0 {
		return
	}
	n := 0
	s.plan.run(func(_ int64, r Row) bool {
		fn(r)
		n++
		return n != s.limit
	})
}

// collect returns the selection's stored rows in answer order. ORDER BY
// without LIMIT is a stable sort of the scan, which is in rowID order, so
// ties come out by rowID; ORDER BY ... LIMIT k keeps the first k of that
// order (topK); LIMIT without ORDER BY stops the scan after k rows, and
// LIMIT 0 reads nothing.
func (s *selection) collect() []Row {
	switch {
	case s.limit == 0:
		return nil
	case s.order != nil && s.limit > 0:
		return s.topK()
	}
	var rows []Row
	s.plan.run(func(_ int64, r Row) bool {
		rows = append(rows, r)
		return len(rows) != s.limit
	})
	if s.order != nil {
		slices.SortStableFunc(rows, s.order)
	}
	return rows
}

// ranked is a row with its rowID, the tie-break of ORDER BY.
type ranked struct {
	id  int64
	row Row
}

// topK returns the first s.limit rows by (ORDER BY, rowID) — a stable sort
// truncated to k — holding no more than k rows: a max-heap whose root is
// the last of the k best so far. The scan comes in rowID order, so a row
// that ties the root comes after it and is no better.
func (s *selection) topK() []Row {
	rank := func(a, b *ranked) int {
		if c := s.order(a.row, b.row); c != 0 {
			return c
		}
		return cmp.Compare(a.id, b.id)
	}
	after := func(a, b *ranked) bool { return rank(a, b) > 0 }
	heap := make([]ranked, 0, min(s.limit, s.plan.t.Len()))
	s.plan.run(func(id int64, r Row) bool {
		if len(heap) < s.limit {
			heap = append(heap, ranked{id, r})
			for i := len(heap) - 1; i > 0; {
				p := (i - 1) / 2
				if !after(&heap[i], &heap[p]) {
					break
				}
				heap[i], heap[p] = heap[p], heap[i]
				i = p
			}
			return true
		}
		if s.order(r, heap[0].row) >= 0 {
			return true
		}
		heap[0] = ranked{id, r}
		for i := 0; ; {
			m, l := i, 2*i+1
			if l < len(heap) && after(&heap[l], &heap[m]) {
				m = l
			}
			if l+1 < len(heap) && after(&heap[l+1], &heap[m]) {
				m = l + 1
			}
			if m == i {
				break
			}
			heap[i], heap[m] = heap[m], heap[i]
			i = m
		}
		return true
	})
	slices.SortFunc(heap, func(a, b ranked) int { return rank(&a, &b) })
	rows := make([]Row, len(heap))
	for i := range heap {
		rows[i] = heap[i].row
	}
	return rows
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

// identity returns the column map of rows that are the result's columns,
// in order.
func identity(n int) []int {
	c := make([]int, n)
	for i := range c {
		c[i] = i
	}
	return c
}

// project copies columns idx out of rows: the one copy-out of stored rows;
// position -1 reads NULL. The result never aliases table storage, SELECT *
// included: callers own their result rows and write into them
// (privacy.FilterResult NULLs masked columns in place). All result rows are
// cut from one backing array, each capped at its own length so an append
// cannot reach its neighbour.
func project(rows []Row, idx []int) []Row {
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
	return out
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

// run calls emit, in rowID order, for every row the predicate accepts,
// until emit returns false. A predicate with key tests scans the slots of
// each chunk that pass them, and one without scans every row; the matcher
// decides every candidate. Emitted rows are the stored ones — shared, never
// to be modified.
func (p *scanPlan) run(emit func(id int64, r Row) bool) {
	if p.keys.n > 0 {
		p.t.rows.scanNarrowed(len(p.t.Schema.Columns), &p.keys, func(id int64, r Row) bool {
			return !p.match(r) || emit(id, r)
		})
		return
	}
	p.t.rows.scan(func(id int64, r Row) bool {
		return !p.match(r) || emit(id, r)
	})
}
