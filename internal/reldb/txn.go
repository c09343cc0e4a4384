package reldb

import (
	"fmt"
	"sync"
	"sync/atomic"
	"time"
)

// lockManager implements table-granularity exclusive locking for writers
// with a wait timeout as the deadlock breaker (two-phase locking:
// transactions acquire as they go and release everything at commit/abort).
//
// Only writers lock. Reads — inside or outside transactions — run against
// a pinned MVCC snapshot and never touch the lock manager, so a writer
// holding a table for the length of a group-commit fsync blocks other
// writers of that table and nobody else.
type lockManager struct {
	mu    sync.Mutex
	cond  *sync.Cond
	locks map[string]*lockState
	// Timeout bounds lock waits; a transaction that cannot acquire within
	// it aborts with ErrLockTimeout (deadlock victim).
	Timeout time.Duration
	// owners numbers lock owners, one per transaction. The numbers live in
	// memory only — no log record names an owner.
	owners atomic.Int64
}

type lockState struct {
	writer int64 // 0 = none
}

// ErrLockTimeout is returned when a lock cannot be acquired in time —
// the engine's deadlock resolution.
var ErrLockTimeout = fmt.Errorf("reldb: lock wait timeout (possible deadlock)")

func newLockManager() *lockManager {
	lm := &lockManager{locks: make(map[string]*lockState), Timeout: 2 * time.Second}
	lm.cond = sync.NewCond(&lm.mu)
	return lm
}

// newOwner returns a lock-owner id no other transaction of this process
// holds.
func (lm *lockManager) newOwner() int64 { return lm.owners.Add(1) }

func (lm *lockManager) state(table string) *lockState {
	st := lm.locks[table]
	if st == nil {
		st = &lockState{}
		lm.locks[table] = st
	}
	return st
}

// acquireExclusive takes the table's write lock.
func (lm *lockManager) acquireExclusive(txn int64, table string) error {
	deadline := time.Now().Add(lm.Timeout)
	lm.mu.Lock()
	defer lm.mu.Unlock()
	st := lm.state(table)
	for st.writer != 0 && st.writer != txn {
		if !lm.waitUntil(deadline) {
			return ErrLockTimeout
		}
		st = lm.state(table)
	}
	st.writer = txn
	return nil
}

// waitUntil waits on the condition with a deadline; it reports false when
// the deadline passed. The lock is held on entry and exit. Waiters are
// woken promptly by releaseAll's Broadcast; the timer here exists only to
// bound the wait at the deadline (the deadlock breaker), so its firing is
// the slow path, not the wake mechanism.
func (lm *lockManager) waitUntil(deadline time.Time) bool {
	if time.Now().After(deadline) {
		return false
	}
	t := time.AfterFunc(time.Until(deadline)+time.Millisecond, func() {
		// Take the mutex so the broadcast cannot slip into the window
		// between this waiter registering the timer and parking in Wait —
		// an unlocked Broadcast there would be lost and the waiter would
		// oversleep its deadline.
		lm.mu.Lock()
		lm.cond.Broadcast()
		lm.mu.Unlock()
	})
	lm.cond.Wait()
	t.Stop()
	return !time.Now().After(deadline)
}

// releaseAll drops every lock the transaction holds. The Broadcast is what
// makes lock handoff immediate: every waiter re-examines the lock table
// now instead of sleeping until its deadline timer fires (see
// TestLockReleaseWakesWaitersImmediately).
func (lm *lockManager) releaseAll(txn int64) {
	lm.mu.Lock()
	defer lm.mu.Unlock()
	for _, st := range lm.locks {
		if st.writer == txn {
			st.writer = 0
		}
	}
	lm.cond.Broadcast()
}

// Txn is an explicit transaction: reads run against the MVCC snapshot
// pinned at Begin (plus the transaction's own writes), writes go to
// private working copies of each touched table under strict two-phase
// exclusive locks, and Commit freezes the copies, installs them as the
// next version and logs them as one record. Abort simply discards the
// copies — there is no undo, because nothing was ever shared, and nothing
// to log, because nothing was logged before Commit.
type Txn struct {
	// id owns the transaction's table locks.
	id   int64
	db   *Database
	snap *Snapshot
	// work holds the private, mutable copy of every table this transaction
	// has written (clone-on-first-write from the then-current version,
	// taken while holding the table's exclusive lock).
	work map[string]*Table
	// changes lists every row the transaction's successful statements
	// wrote, in order: what its Commit record carries.
	changes []Change
	done    bool
	// refused is why the transaction never started (Begin on a read-only
	// replica); such a transaction is born done.
	refused error
}

// Begin starts a transaction. It takes no writer lock and logs nothing:
// the transaction reaches the log, whole, only when it commits.
//
// On a follower's read-only database the returned transaction refuses
// every statement and Commit with errReadOnly.
func (db *Database) Begin() *Txn {
	if db.readOnly.Load() {
		return &Txn{db: db, done: true, refused: errReadOnly}
	}
	return &Txn{id: db.lockMgr.newOwner(), db: db, snap: db.Snapshot(), work: make(map[string]*Table)}
}

// writeTable returns the transaction's private copy of the table, taking
// the exclusive lock and cloning from the current committed version on
// first write. Cloning from current (not the Begin-time snapshot) is what
// makes this two-phase locking rather than optimistic snapshot isolation:
// the lock guarantees no other writer touched the table since the version
// was installed, so the copy extends the latest state.
func (t *Txn) writeTable(name string) (*Table, error) {
	if w, ok := t.work[name]; ok {
		return w, nil
	}
	if _, ok := t.db.versions.Load().table(name); !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", name)
	}
	if err := t.db.lockMgr.acquireExclusive(t.id, name); err != nil {
		return nil, err
	}
	cur, ok := t.db.versions.Load().table(name)
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", name)
	}
	w := cur.clone()
	t.work[name] = w
	return w, nil
}

// finished is the error a done transaction answers with.
func (t *Txn) finished() error {
	if t.refused != nil {
		return t.refused
	}
	return fmt.Errorf("reldb: transaction %d already finished", t.id)
}

// Exec parses and executes a statement inside the transaction.
//
// seclint:exempt storage engine below the access-control gate; SecureDB authorizes before transactional work
func (t *Txn) Exec(src string) (*Result, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	return t.ExecStmt(st)
}

// ExecStmt executes a parsed statement inside the transaction. DDL is not
// transactional and is rejected here. A write statement is all or nothing:
// every row it would write is checked against the schema and the table's
// constraints before the first one is written, and only a statement that
// succeeds adds its rows to what Commit logs.
//
// seclint:exempt storage engine below the access-control gate; SecureDB authorizes before transactional work
// seclint:sink
func (t *Txn) ExecStmt(st Stmt) (*Result, error) {
	if t.done {
		return nil, t.finished()
	}
	switch s := st.(type) {
	case *SelectStmt:
		// Read-your-writes: a table this transaction has written is read
		// from its working copy; everything else from the pinned snapshot.
		if w, ok := t.work[s.Table]; ok {
			return execSelectTable(w, s)
		}
		return t.snap.ExecSelect(s)

	case *InsertStmt:
		tbl, err := t.writeTable(s.Table)
		if err != nil {
			return nil, err
		}
		row := Row(s.Values)
		if err := t.db.validateRow(tbl, row); err != nil {
			return nil, err
		}
		id, err := tbl.Insert(row)
		if err != nil {
			return nil, err
		}
		t.changes = append(t.changes, Change{Table: s.Table, RowID: id, Row: row})
		return &Result{Affected: 1}, nil

	case *UpdateStmt:
		tbl, err := t.writeTable(s.Table)
		if err != nil {
			return nil, err
		}
		plan, err := planScan(tbl, s.Where)
		if err != nil {
			return nil, err
		}
		type setCol struct {
			idx int
			val Value
		}
		var sets []setCol
		for col, v := range s.Set {
			ci := tbl.Schema.ColIndex(col)
			if ci < 0 {
				return nil, fmt.Errorf("reldb: unknown column %s", col)
			}
			sets = append(sets, setCol{ci, v})
		}
		// Build and check every new row first: the scan must not run over a
		// heap the updates below are writing, and a row that fails its
		// checks must fail the statement before any row is written.
		var changes []Change
		var failed error
		plan.run(func(id int64, r Row) {
			if failed != nil {
				return
			}
			newRow := r.Clone()
			for _, sc := range sets {
				newRow[sc.idx] = sc.val
			}
			failed = t.db.validateRow(tbl, newRow)
			changes = append(changes, Change{Table: s.Table, RowID: id, Row: newRow})
		})
		if failed != nil {
			return nil, failed
		}
		for _, c := range changes {
			if _, err := tbl.Update(c.RowID, c.Row); err != nil {
				return nil, err
			}
		}
		t.changes = append(t.changes, changes...)
		return &Result{Affected: len(changes)}, nil

	case *DeleteStmt:
		tbl, err := t.writeTable(s.Table)
		if err != nil {
			return nil, err
		}
		plan, err := planScan(tbl, s.Where)
		if err != nil {
			return nil, err
		}
		var changes []Change
		plan.run(func(id int64, _ Row) { changes = append(changes, Change{Table: s.Table, RowID: id}) })
		for _, c := range changes {
			if _, err := tbl.Delete(c.RowID); err != nil {
				return nil, err
			}
		}
		t.changes = append(t.changes, changes...)
		return &Result{Affected: len(changes)}, nil
	}
	return nil, fmt.Errorf("reldb: statement not allowed in a transaction")
}

// Commit makes the transaction's changes durable and releases its locks.
// With a durable log under SyncAlways, a nil return means the commit
// record is on disk: the transaction survives any crash. If the backend
// failed to persist it, Commit reports it — the in-memory state stays
// applied, but a caller that needs durability must treat the transaction
// as lost.
//
// A transaction that wrote — took a table's write lock — appends exactly
// one record, its Commit with every row it wrote (none, for statements
// that matched no row: such a commit still waits for the log like any
// other); one that only read appends nothing. The record's LSN is assigned
// and the new version installed in one db.mu critical section, so version
// install order is WAL order: readers can never observe commit B without
// commit A when A's record precedes B's. The durability verdict is awaited
// OUTSIDE db.mu (other committers keep installing into the same batched
// fsync), but the table locks are held until the verdict arrives:
// releasing them earlier would let a second transaction read this one's
// writes and be acknowledged before (or without) them ever reaching disk.
// Concurrent committers therefore block inside the same batched fsync,
// which is exactly the window group commit amortizes.
func (t *Txn) Commit() error {
	_, err := t.commit()
	return err
}

// commit is Commit, also returning the Commit record's LSN (0 when the
// transaction wrote nothing and so logged nothing).
func (t *Txn) commit() (int64, error) {
	if t.done {
		return 0, t.finished()
	}
	defer t.finish()
	if len(t.work) == 0 {
		return 0, nil
	}
	db := t.db
	frozen := make(map[string]*Table, len(t.work))
	for name, w := range t.work {
		frozen[name] = w.freeze()
	}
	db.mu.Lock()
	lsn, ack := db.log.appendAsync(LogRecord{Op: OpCommit, Changes: t.changes})
	db.installLocked(lsn, frozen)
	db.mu.Unlock()
	return lsn, db.log.waitAck(ack)
}

// Abort discards the transaction: its working copies are dropped
// unpublished (no shared state was ever touched, so there is nothing to
// undo, and nothing was logged) and the locks are released.
func (t *Txn) Abort() {
	if !t.done {
		t.finish()
	}
}

// finish ends the transaction: locks released, snapshot unpinned.
func (t *Txn) finish() {
	t.done = true
	t.db.lockMgr.releaseAll(t.id)
	t.snap.Release()
	t.work, t.changes = nil, nil
}
