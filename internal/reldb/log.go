package reldb

import (
	"fmt"
	"sync"

	"webdbsec/internal/wal"
)

// LogOp is the kind of a log record.
type LogOp int

// Log operations.
const (
	OpCreateTable LogOp = iota
	OpCreateIndex
	OpBegin
	OpCommit
	OpAbort
	OpInsert
	OpUpdate
	OpDelete
)

// LogRecord is one entry of the write-ahead log. DML records carry enough
// state to redo the change: the row's ID and, for an insert or update, the
// row After it.
type LogRecord struct {
	LSN     int64
	Txn     int64
	Op      LogOp
	Table   string
	Column  string
	Ordered bool
	Schema  *Schema
	RowID   int64
	After   Row
}

// Log is the database's side of the write-ahead log ("the paper's recovery
// techniques have to be developed for the transaction models", §2.1): it
// assigns every record its LSN and, when a durable backend (internal/wal)
// is attached, encodes the record into it. The backend IS the log — no
// copy of the records is kept here; an in-memory database's Log only
// assigns LSNs. OpenFollower (follower.go) is the one function that turns
// the backend's contents back into a database.
type Log struct {
	mu      sync.Mutex
	nextLSN int64 // seclint:guardedby mu
	// w, when set, receives every record as an encoded frame. A backend
	// failure sticks in err: the in-memory engine keeps running, but
	// Txn.Commit refuses to report durability it cannot provide.
	w   *wal.WAL // seclint:guardedby mu
	err error    // seclint:guardedby mu
}

// Append adds a record, assigning its LSN, and encodes it into the durable
// backend when one is attached. It returns as soon as the record is
// enqueued into the backend's commit pipeline — Append does NOT wait for
// the disk verdict. Callers that acknowledge durability (Txn.Commit)
// use AppendWait, whose verdict covers every earlier enqueued record of
// the transaction because the backend writes frames in LSN order.
//
// seclint:exempt log substrate below the access-control gate; SecureDB authorizes before the engine logs
func (l *Log) Append(rec LogRecord) int64 {
	lsn, _ := l.appendAsync(rec)
	return lsn
}

// AppendWait adds a record like Append, then blocks until the durable
// backend's group-commit verdict for it is known. A nil error from a log
// with a backend means the record — and, by LSN ordering, every record
// enqueued before it — is on disk per the backend's sync policy.
//
// seclint:exempt log substrate below the access-control gate; SecureDB authorizes before the engine logs
func (l *Log) AppendWait(rec LogRecord) (int64, error) {
	lsn, ack := l.appendAsync(rec)
	return lsn, l.waitAck(ack)
}

// appendAsync assigns the record's LSN, encodes it into the backend's
// commit pipeline without waiting, and returns the pending ack (nil for
// an in-memory or already-poisoned log).
func (l *Log) appendAsync(rec LogRecord) (int64, *wal.Ack) {
	l.mu.Lock()
	defer l.mu.Unlock()
	l.nextLSN++
	rec.LSN = l.nextLSN
	var ack *wal.Ack
	if l.w != nil && l.err == nil {
		payload, err := encodeLogRecord(&rec)
		if err != nil {
			l.err = err
		} else if lsn, a, err := l.w.AppendAsync(payload); err != nil {
			l.err = err
		} else if int64(lsn) != rec.LSN {
			l.err = fmt.Errorf("reldb: log LSN %d diverged from wal LSN %d", rec.LSN, lsn)
		} else {
			ack = a
		}
	}
	return rec.LSN, ack
}

// waitAck blocks for a pending ack's durability verdict, folding a failure
// into the sticky backend error. A nil ack (in-memory log, or a log whose
// backend already failed) reports the sticky error.
func (l *Log) waitAck(ack *wal.Ack) error {
	if ack == nil {
		return l.Err()
	}
	if err := ack.Wait(); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		err = l.err
		l.mu.Unlock()
		return err
	}
	return nil
}

// Err returns the sticky durable-backend error, or nil for a healthy (or
// purely in-memory) log.
func (l *Log) Err() error {
	l.mu.Lock()
	defer l.mu.Unlock()
	return l.err
}

// checkpointAt forwards the snapshot to the backend, truncating the log at
// trunc (every record with LSN <= trunc is covered by the snapshot or
// belongs to a transaction whose records the backend keeps; durable.go
// computes the fence). Appends continue concurrently throughout — l.mu is
// NOT held across the backend I/O — which is what makes the database-level
// Checkpoint fuzzy; the backend serializes concurrent checkpoints itself.
func (l *Log) checkpointAt(snapshot []byte, trunc int64) error {
	l.mu.Lock()
	w, err := l.w, l.err
	l.mu.Unlock()
	if w == nil {
		return fmt.Errorf("reldb: checkpoint: no durable backend")
	}
	if err != nil {
		return err
	}
	if err := w.CheckpointAt(snapshot, uint64(trunc)); err != nil {
		l.mu.Lock()
		if l.err == nil {
			l.err = err
		}
		l.mu.Unlock()
		return err
	}
	return nil
}

// tableStage is a private mutable overlay over a frozen table map — the
// working state of redo (whole-log replay and follower apply). Reads and
// writes go to work, cloning from base on first touch; frozen() seals the
// overlay for installation into a version. A stage is single-goroutine by
// construction.
type tableStage struct {
	base map[string]*Table // frozen source tables (nil = empty database)
	work map[string]*Table // private mutable copies
}

func newTableStage(base map[string]*Table) *tableStage {
	return &tableStage{base: base, work: make(map[string]*Table)}
}

// mutable returns the stage's private copy of the table, cloning it out of
// base on first touch.
func (st *tableStage) mutable(name string) (*Table, bool) {
	if t, ok := st.work[name]; ok {
		return t, true
	}
	if t, ok := st.base[name]; ok {
		c := t.clone()
		st.work[name] = c
		return c, true
	}
	return nil, false
}

// put installs a fresh table into the stage.
func (st *tableStage) put(t *Table) { st.work[t.Name] = t }

// frozen freezes every staged table and returns the overlay, ready for
// Database.installLocked (or for building a fresh version).
func (st *tableStage) frozen() map[string]*Table {
	for _, t := range st.work {
		t.freeze()
	}
	return st.work
}

// applyRecords redoes recs — DDL, or the DML of one committed transaction —
// onto the stage. It is the one redo engine, reached only through
// Follower.consume, which decides what is committed and above the fence.
func applyRecords(st *tableStage, recs []LogRecord) error {
	for _, r := range recs {
		if r.Op == OpCreateTable {
			if r.Schema == nil {
				return fmt.Errorf("reldb: recover: CreateTable without schema")
			}
			st.put(NewTable(r.Table, *r.Schema))
			continue
		}
		t, ok := st.mutable(r.Table)
		if !ok {
			return fmt.Errorf("reldb: recover: record %d for unknown table %s", r.LSN, r.Table)
		}
		var err error
		switch r.Op {
		case OpCreateIndex:
			if r.Ordered {
				err = t.CreateOrderedIndex(r.Column)
			} else {
				err = t.CreateHashIndex(r.Column)
			}
		case OpInsert:
			t.insertAt(r.RowID, r.After)
		case OpUpdate:
			_, err = t.Update(r.RowID, r.After)
		case OpDelete:
			_, err = t.Delete(r.RowID)
		}
		if err != nil {
			return fmt.Errorf("reldb: recover: %w", err)
		}
	}
	return nil
}
