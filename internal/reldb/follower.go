package reldb

import (
	"fmt"
	"sync"

	"webdbsec/internal/wal"
)

// Follower is the replay engine — of a replica, and of every restart: it
// consumes log records one at a time, in LSN order, and maintains a
// read-only materialization of the committed state through the one redo
// path (redo). Every record is one complete mutation — DDL, or a committed
// transaction with all the rows it wrote — so each record that changes a
// table is staged and installed as one new version stamped with its LSN:
// the follower's database moves through exactly the same version sequence
// as the leader's, and replica reads are lock-free snapshot reads like
// leader reads. Nothing is ever buffered: an aborted or unfinished
// transaction never reached the log.
//
// The replication layer owns a follower's local WAL (it appends shipped
// frames, truncates on divergence, installs snapshots); the Follower only
// tracks the in-memory materialization. Promote turns the materialization
// into a writable Database anchored at the WAL position — on failover, and
// (OpenDatabase) on every single-node start: a single node is a follower
// of its own log that promotes at once.
type Follower struct {
	mu sync.Mutex
	db *Database // seclint:guardedby mu
	w  *wal.WAL
	// appliedLSN is the highest LSN consumed by Apply (or restored from
	// the local WAL / an installed snapshot).
	appliedLSN uint64 // seclint:guardedby mu
	// promoted poisons further Apply/Restore calls once the follower has
	// handed its database over.
	promoted bool // seclint:guardedby mu
}

// OpenFollower recovers a materialization from a WAL: snapshot restored,
// every record above it redone. It is the one function that turns WAL
// contents into a database — restart (OpenDatabase), replica start and
// demotion all come through here. The replication layer keeps owning w
// for appends.
//
// It works on a live WAL too (wal.Replay's contract): the demote path
// reopens a follower over the same WAL instance an ex-leader has been
// writing to since process start.
//
// seclint:locked f is not yet published; no other goroutine holds a reference before OpenFollower returns
func OpenFollower(w *wal.WAL) (*Follower, error) {
	payload, snapLSN, _ := w.Snapshot()
	st, err := restoreSnap(payload)
	if err != nil {
		return nil, err
	}
	f := &Follower{w: w, appliedLSN: snapLSN}
	err = w.Replay(func(lsn uint64, payload []byte) error {
		return f.consume(st, lsn, payload)
	})
	if err != nil {
		return nil, fmt.Errorf("reldb: follower open: %w", err)
	}
	// The position is what Replay actually delivered — under a concurrent
	// appender (demote racing the new leader's stream) this can trail
	// LastLSN; the replication layer re-applies the gap from here.
	f.db = newDatabaseAt(dbVersion{lsn: int64(f.appliedLSN), tables: st.frozen()}, true)
	return f, nil
}

// consume redoes the record at lsn onto st — the one place a log record
// becomes state, for the bulk replay of OpenFollower and the
// record-at-a-time Apply alike. Records arrive in strict LSN order.
// Caller holds f.mu (or owns f exclusively).
//
// seclint:locked caller holds f.mu
func (f *Follower) consume(st *tableStage, lsn uint64, payload []byte) error {
	if lsn != f.appliedLSN+1 {
		return fmt.Errorf("reldb: follower apply LSN %d, want %d", lsn, f.appliedLSN+1)
	}
	rec, err := decodeLogRecord(payload)
	if err != nil {
		return err
	}
	rec.LSN = int64(lsn)
	if err := redo(st, &rec); err != nil {
		return err
	}
	f.appliedLSN = lsn
	return nil
}

// Apply consumes one replicated log record. Records must arrive in strict
// LSN order; the replication layer guarantees it only hands over records
// at or below the cluster commit watermark, so everything Apply
// materializes is durable on a quorum. A record that changed a table
// installs a new version into the follower's database at the record's LSN
// — as the leader's own commit did; replica readers pin snapshots of it
// exactly as leader readers do. A record redo refuses changes nothing.
func (f *Follower) Apply(lsn uint64, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return fmt.Errorf("reldb: follower already promoted")
	}
	st := newTableStage(f.db.versions.Load().tables)
	if err := f.consume(st, lsn, payload); err != nil {
		return err
	}
	if len(st.work) > 0 {
		f.db.mu.Lock()
		f.db.installLocked(int64(lsn), st.frozen())
		f.db.mu.Unlock()
	}
	return nil
}

// Restore replaces the follower's materialization with a leader snapshot
// (full resync): the replication layer has already installed it into the
// local WAL at lsn.
func (f *Follower) Restore(lsn uint64, snapshot []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return fmt.Errorf("reldb: follower already promoted")
	}
	// An empty snapshot is a reset to genesis: a leader that has never
	// checkpointed resyncs divergent followers by wiping them and
	// streaming its whole log.
	st, err := restoreSnap(snapshot)
	if err != nil {
		return err
	}
	f.db = newDatabaseAt(dbVersion{lsn: int64(lsn), tables: st.frozen()}, true)
	f.appliedLSN = lsn
	return nil
}

// AppliedLSN returns the highest LSN the follower has consumed.
func (f *Follower) AppliedLSN() uint64 {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.appliedLSN
}

// DB returns the follower's materialized database: read-only (DDL, Begin
// and every DML statement fail on it) until Promote hands it over. Replica
// reads go through the same access-control gate as leader reads, wrapped
// around this database.
func (f *Follower) DB() *Database {
	f.mu.Lock()
	defer f.mu.Unlock()
	return f.db
}

// Promote turns the follower into a writable database anchored at its WAL
// position — the failover step, after the replication layer has applied
// every locally-durable record, and the last step of every single-node
// open. The follower is dead afterwards: further Apply/Restore calls fail.
func (f *Follower) Promote() (*Database, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, fmt.Errorf("reldb: follower already promoted")
	}
	if f.appliedLSN != f.w.LastLSN() {
		return nil, fmt.Errorf("reldb: promote at applied LSN %d, wal at %d", f.appliedLSN, f.w.LastLSN())
	}
	f.promoted = true
	db := f.db
	db.log.mu.Lock()
	db.log.nextLSN = int64(f.appliedLSN)
	db.log.w = f.w
	db.log.mu.Unlock()
	db.readOnly.Store(false) // last: a write admitted from here on has the WAL under it
	return db, nil
}
