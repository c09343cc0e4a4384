package reldb

import (
	"fmt"
	"sort"
	"sync"

	"webdbsec/internal/mvcc"
)

// Result is the outcome of executing a statement.
type Result struct {
	Columns  []string
	Rows     []Row
	Affected int
	// LSN is the log position of the Commit (or DDL) record a write
	// statement appended — the position a replicated deployment waits on
	// before acknowledging it. Zero for reads.
	LSN int64
}

// Database is the engine: a multi-versioned table heap, the metadata
// catalog, and the recovery log. Statement execution is autocommit via
// Exec; multi-statement transactions go through Begin (txn.go).
//
// Concurrency model (version.go has the full story): the committed state
// is an immutable dbVersion published through an mvcc.Cell. Readers Load it
// and never block — SELECTs, catalog lookups and snapshots take no mutex.
// db.mu is a writer-side lock only: it serializes version installs,
// transaction bookkeeping, DDL and checkpoint fencing.
type Database struct {
	// mu serializes writers (installs, txn bookkeeping, DDL, checkpoint
	// fencing). The read path never takes it.
	mu  sync.Mutex
	log *Log

	// versions publishes the committed version; readers Load or Pin it
	// lock-free, writers Install a successor under mu.
	versions mvcc.Cell[dbVersion]

	lockMgr *lockManager
	txnSeq  int64 // seclint:guardedby mu
	// activeTxns maps each in-flight transaction id to the LSN of its Begin
	// record. Fuzzy Checkpoint truncates the WAL at
	// min(fence, min(activeTxns)-1) so no in-flight transaction's records
	// are lost (durable.go).
	activeTxns map[int64]int64 // seclint:guardedby mu
	cons       *constraintSet  // seclint:guardedby mu
}

// NewDatabase returns an empty in-memory database.
func NewDatabase() *Database {
	return newDatabaseAt(dbVersion{tables: make(map[string]*Table)})
}

// newDatabaseAt returns an in-memory database whose committed state is v.
//
// seclint:locked db is not yet published; no other goroutine holds a reference before newDatabaseAt returns
func newDatabaseAt(v dbVersion) *Database {
	db := &Database{
		log:        &Log{nextLSN: v.lsn},
		lockMgr:    newLockManager(),
		txnSeq:     v.txnSeq,
		activeTxns: make(map[int64]int64),
	}
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
	case *CreateTableStmt, *CreateIndexStmt:
		return db.execDDL(st)
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

func (db *Database) execDDL(st Stmt) (*Result, error) {
	switch s := st.(type) {
	case *CreateTableStmt:
		if len(s.Schema.Columns) == 0 {
			return nil, fmt.Errorf("reldb: table %s needs at least one column", s.Table)
		}
		db.mu.Lock()
		defer db.mu.Unlock()
		if _, exists := db.versions.Load().table(s.Table); exists {
			return nil, fmt.Errorf("reldb: table %s already exists", s.Table)
		}
		lsn, _ := db.log.appendAsync(LogRecord{Op: OpCreateTable, Table: s.Table, Schema: &s.Schema})
		db.installLocked(lsn, map[string]*Table{s.Table: NewTable(s.Table, s.Schema).freeze()})
		return &Result{LSN: lsn}, nil

	case *CreateIndexStmt:
		// Serialize against transactional writers through the lock manager:
		// a writer holding the table lock has a private working copy this
		// index build must not race (its commit would otherwise install a
		// table version without the index). The lock is taken BEFORE db.mu —
		// the writer may be blocked in Commit waiting for db.mu, and taking
		// the table lock second would stall every commit behind the wait.
		db.mu.Lock()
		db.txnSeq++
		owner := db.txnSeq
		db.mu.Unlock()
		if err := db.lockMgr.acquireExclusive(owner, s.Table); err != nil {
			return nil, err
		}
		defer db.lockMgr.releaseAll(owner)

		db.mu.Lock()
		defer db.mu.Unlock()
		cur, ok := db.versions.Load().table(s.Table)
		if !ok {
			return nil, fmt.Errorf("reldb: unknown table %s", s.Table)
		}
		work := cur.clone()
		var err error
		if s.Ordered {
			err = work.CreateOrderedIndex(s.Column)
		} else {
			err = work.CreateHashIndex(s.Column)
		}
		if err != nil {
			return nil, err
		}
		lsn, _ := db.log.appendAsync(LogRecord{Op: OpCreateIndex, Table: s.Table, Column: s.Column, Ordered: s.Ordered})
		db.installLocked(lsn, map[string]*Table{s.Table: work.freeze()})
		return &Result{LSN: lsn}, nil
	}
	return nil, fmt.Errorf("reldb: not DDL")
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
func execSelectTable(t *Table, s *SelectStmt) (*Result, error) {
	_, rows, err := planScan(t, s.Where)
	if err != nil {
		return nil, err
	}
	// Order: multi-key lexicographic, per-key direction.
	if len(s.OrderBy) > 0 {
		keys := make([]int, len(s.OrderBy))
		for i, k := range s.OrderBy {
			ci := t.Schema.ColIndex(k.Col)
			if ci < 0 {
				return nil, fmt.Errorf("reldb: unknown ORDER BY column %s", k.Col)
			}
			keys[i] = ci
		}
		sort.SliceStable(rows, func(i, j int) bool {
			for ki, ci := range keys {
				c := Compare(rows[i][ci], rows[j][ci])
				if c == 0 {
					continue
				}
				if s.OrderBy[ki].Desc {
					return c > 0
				}
				return c < 0
			}
			return false
		})
	}
	// Limit.
	if s.Limit >= 0 && len(rows) > s.Limit {
		rows = rows[:s.Limit]
	}
	// Project.
	return project(&t.Schema, rows, s.Columns)
}

// project selects the named columns (nil = all) out of rows.
func project(schema *Schema, rows []Row, cols []string) (*Result, error) {
	if cols == nil {
		names := make([]string, len(schema.Columns))
		for i, c := range schema.Columns {
			names[i] = c.Name
		}
		return &Result{Columns: names, Rows: rows, Affected: len(rows)}, nil
	}
	idx := make([]int, len(cols))
	for i, c := range cols {
		ci := schema.ColIndex(c)
		if ci < 0 {
			return nil, fmt.Errorf("reldb: unknown column %s", c)
		}
		idx[i] = ci
	}
	out := make([]Row, len(rows))
	for i, r := range rows {
		pr := make(Row, len(idx))
		for j, ci := range idx {
			pr[j] = r[ci]
		}
		out[i] = pr
	}
	return &Result{Columns: append([]string(nil), cols...), Rows: out, Affected: len(out)}, nil
}

// planScan chooses an access path for the predicate: an equality on a
// hash-indexed column or a comparison on an ordered-indexed column is
// served from the index; everything else is a full scan. The full
// predicate is always re-applied to the candidates.
func planScan(t *Table, where Expr) ([]int64, []Row, error) {
	var candIDs []int64
	usedIndex := false
	if cmp := indexableCmp(t, where); cmp != nil {
		switch cmp.Op {
		case "=":
			if ids, ok := t.LookupEq(cmp.Col, cmp.Val); ok {
				candIDs, usedIndex = ids, true
			}
		case "<", "<=":
			hi := cmp.Val
			if ids, ok := t.LookupRange(cmp.Col, nil, &hi); ok {
				candIDs, usedIndex = ids, true
			}
		case ">", ">=":
			lo := cmp.Val
			if ids, ok := t.LookupRange(cmp.Col, &lo, nil); ok {
				candIDs, usedIndex = ids, true
			}
		}
	}
	var ids []int64
	var rows []Row
	check := func(id int64, r Row) (bool, error) {
		if where == nil {
			return true, nil
		}
		return where.Eval(&t.Schema, r)
	}
	if usedIndex {
		for _, id := range candIDs {
			r, ok := t.Get(id)
			if !ok {
				continue
			}
			ok2, err := check(id, r)
			if err != nil {
				return nil, nil, err
			}
			if ok2 {
				ids = append(ids, id)
				rows = append(rows, r)
			}
		}
		return ids, rows, nil
	}
	var scanErr error
	t.Scan(func(id int64, r Row) bool {
		ok, err := check(id, r)
		if err != nil {
			scanErr = err
			return false
		}
		if ok {
			ids = append(ids, id)
			rows = append(rows, r.Clone())
		}
		return true
	})
	if scanErr != nil {
		return nil, nil, scanErr
	}
	return ids, rows, nil
}

// indexableCmp digs a comparison usable as an access path out of the
// predicate: the expression itself, or a conjunct of a top-level AND
// chain, whose column carries a suitable index. Strict operators <, <=,
// >, >= need an ordered index; = needs a hash index.
func indexableCmp(t *Table, where Expr) *CmpExpr {
	switch e := where.(type) {
	case *CmpExpr:
		if e.Op == "=" && t.HasHashIndex(e.Col) {
			return e
		}
		if e.Op != "=" && e.Op != "!=" && t.HasOrderedIndex(e.Col) {
			return e
		}
	case *AndExpr:
		if c := indexableCmp(t, e.L); c != nil {
			return c
		}
		return indexableCmp(t, e.R)
	}
	return nil
}
