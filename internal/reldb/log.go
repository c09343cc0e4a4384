package reldb

import (
	"fmt"
	"sync"

	"webdbsec/internal/wal"
)

// LogOp is the kind of a log record.
type LogOp int

// Log operations. The values are the on-disk encoding; 1, 2 and 4–7 are
// retired kinds (retiredOps).
const (
	OpCreateTable LogOp = 0
	OpCommit      LogOp = 3
)

// retiredOps names the record kinds older logs hold. CreateIndex declared
// a hash or ordered index, which held no state beyond the rows. In the
// per-operation format a transaction was a Begin record, one record per
// row written, and a Commit or Abort. CreateIndex, Begin and Abort carry no
// logical state, so redo skips them, and that format's Commit decodes as
// an empty one (its rows were in the row records); a row record cannot be
// redone without the rest of its transaction, so a log holding one is
// refused rather than partly replayed.
var retiredOps = map[LogOp]string{1: "CreateIndex", 2: "Begin", 4: "Abort", 5: "Insert", 6: "Update", 7: "Delete"}

// LogRecord is one entry of the write-ahead log: one complete mutation.
// A CreateTable record names the table and its schema; a Commit record
// carries every row its transaction wrote, so a transaction is exactly one
// record and a record is never part of one.
type LogRecord struct {
	LSN     int64
	Op      LogOp
	Table   string   `json:",omitempty"`
	Schema  *Schema  `json:",omitempty"`
	Changes []Change `json:",omitempty"`
}

// Change is one row a committed transaction wrote: the row stored under
// RowID afterwards, or nil when the transaction deleted it.
type Change struct {
	Table string
	RowID int64
	Row   Row
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
// upTo: the snapshot holds exactly the records with LSN <= upTo. Appends
// continue concurrently throughout — l.mu is NOT held across the backend
// I/O — which is what makes the database-level Checkpoint fuzzy; the
// backend serializes concurrent checkpoints itself.
func (l *Log) checkpointAt(snapshot []byte, upTo int64) error {
	l.mu.Lock()
	w, err := l.w, l.err
	l.mu.Unlock()
	if w == nil {
		return fmt.Errorf("reldb: checkpoint: no durable backend")
	}
	if err != nil {
		return err
	}
	if err := w.CheckpointAt(snapshot, uint64(upTo)); err != nil {
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

// redo applies one record — DDL, or a committed transaction's changes —
// onto the stage. It is the one redo engine, reached only through
// Follower.consume. A record the live engine could not have written (a
// second CREATE TABLE of a name, a row the schema refuses, a row id out of
// sequence) is an error, never a panic or a silently different state.
func redo(st *tableStage, r *LogRecord) error {
	switch r.Op {
	case OpCreateTable:
		if r.Schema == nil {
			return fmt.Errorf("reldb: recover: CreateTable without schema")
		}
		if err := r.Schema.check(r.Table); err != nil {
			return fmt.Errorf("reldb: recover: record %d: %w", r.LSN, err)
		}
		if _, exists := st.mutable(r.Table); exists {
			return fmt.Errorf("reldb: recover: record %d creates table %s, which exists", r.LSN, r.Table)
		}
		st.put(NewTable(r.Table, *r.Schema))
		return nil
	case OpCommit:
		for _, c := range r.Changes {
			t, ok := st.mutable(c.Table)
			if !ok {
				return fmt.Errorf("reldb: recover: record %d for unknown table %s", r.LSN, c.Table)
			}
			if err := t.redo(c); err != nil {
				return fmt.Errorf("reldb: recover: record %d: %w", r.LSN, err)
			}
		}
		return nil
	}
	switch kind := retiredOps[r.Op]; kind {
	case "":
		return fmt.Errorf("reldb: recover: record %d has unknown kind %d", r.LSN, r.Op)
	case "CreateIndex", "Begin", "Abort":
		return nil
	default:
		return fmt.Errorf("reldb: recover: record %d (%s) belongs to the retired per-operation log format, "+
			"which cannot be redone without the rest of its transaction", r.LSN, kind)
	}
}
