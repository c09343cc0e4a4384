package reldb

import (
	"fmt"
	"sync"

	"webdbsec/internal/wal"
)

// Follower is the replay engine — of a replica, and of every restart: it
// consumes log records one at a time, in LSN order, and maintains a
// read-only materialization of the committed state through the one redo
// path (applyRecords). DML for a transaction is buffered until its Commit
// record arrives, then staged and installed as one new version stamped with
// the Commit record's LSN — so the follower's database moves through
// exactly the same version sequence as the leader's, and replica reads are
// lock-free snapshot reads like leader reads. An Abort drops the buffer,
// exactly mirroring what crash recovery would do.
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
	// fence is the FenceLSN of the snapshot this follower restored from: a
	// fuzzy leader snapshot already contains commits and DDL up to it, so
	// replayed records at or below the fence must not be applied twice.
	fence int64 // seclint:guardedby mu
	// pending buffers DML of transactions whose Commit has not arrived.
	pending map[int64][]LogRecord // seclint:guardedby mu
	// promoted poisons further Apply/Restore calls once the follower has
	// handed its database over.
	promoted bool // seclint:guardedby mu
}

// OpenFollower recovers a materialization from a WAL: snapshot restored,
// committed transactions redone, uncommitted tails re-buffered (their
// Commit may still arrive from the leader). It is the one function that
// turns WAL contents into a database — restart (OpenDatabase), replica
// start and demotion all come through here. The replication layer keeps
// owning w for appends.
//
// It works on a live WAL too (wal.Replay's contract): the demote path
// reopens a follower over the same WAL instance an ex-leader has been
// writing to since process start.
//
// seclint:locked f is not yet published; no other goroutine holds a reference before OpenFollower returns
func OpenFollower(w *wal.WAL) (*Follower, error) {
	payload, snapLSN, _ := w.Snapshot()
	st, txnSeq, fence, err := restoreSnap(payload)
	if err != nil {
		return nil, err
	}
	// The whole local log is redone onto one stage over the snapshot;
	// transactions with neither Commit nor Abort stay buffered — their
	// verdict is still in flight on the leader.
	f := &Follower{w: w, fence: fence, pending: make(map[int64][]LogRecord), appliedLSN: snapLSN}
	err = w.Replay(func(lsn uint64, payload []byte) error {
		rec, err := f.consume(st, lsn, payload)
		if rec.Txn > txnSeq {
			txnSeq = rec.Txn
		}
		return err
	})
	if err != nil {
		return nil, fmt.Errorf("reldb: follower open: %w", err)
	}
	// The position is what Replay actually delivered — under a concurrent
	// appender (demote racing the new leader's stream) this can trail
	// LastLSN; the replication layer re-applies the gap from here.
	f.db = newDatabaseAt(dbVersion{lsn: int64(f.appliedLSN), txnSeq: txnSeq, tables: st.frozen()}, true)
	return f, nil
}

// consume advances the replay state by the record at lsn — the one place a
// log record becomes state, for the bulk replay of OpenFollower and the
// record-at-a-time Apply alike. Records arrive in strict LSN order. DML is
// buffered per transaction; its Commit redoes the buffer onto st, an Abort
// drops it; DDL is redone at once. A Commit or DDL at or below the fence is
// already inside the restored snapshot (a fuzzy checkpoint holds the
// snapshot frame's LSN, where replay starts, below the fence) and is
// skipped. Caller holds f.mu (or owns f exclusively).
//
// seclint:locked caller holds f.mu
func (f *Follower) consume(st *tableStage, lsn uint64, payload []byte) (LogRecord, error) {
	if lsn != f.appliedLSN+1 {
		return LogRecord{}, fmt.Errorf("reldb: follower apply LSN %d, want %d", lsn, f.appliedLSN+1)
	}
	rec, err := decodeLogRecord(payload)
	if err != nil {
		return rec, err
	}
	rec.LSN = int64(lsn)
	switch rec.Op {
	case OpCreateTable, OpCreateIndex:
		if rec.LSN > f.fence {
			err = applyRecords(st, []LogRecord{rec})
		}
	case OpBegin:
		f.pending[rec.Txn] = nil
	case OpInsert, OpUpdate, OpDelete:
		f.pending[rec.Txn] = append(f.pending[rec.Txn], rec)
	case OpCommit:
		if rec.LSN > f.fence {
			err = applyRecords(st, f.pending[rec.Txn])
		}
		delete(f.pending, rec.Txn)
	case OpAbort:
		delete(f.pending, rec.Txn)
	default:
		err = fmt.Errorf("reldb: follower apply: unknown op %d at lsn %d", rec.Op, lsn)
	}
	if err != nil {
		return rec, err
	}
	f.appliedLSN = lsn
	return rec, nil
}

// Apply consumes one replicated log record. Records must arrive in strict
// LSN order; the replication layer guarantees it only hands over records
// at or below the cluster commit watermark, so everything Apply
// materializes is durable on a quorum. Each applied Commit/DDL record that
// changed a table installs a new version into the follower's database at
// the record's LSN — as the leader's own commit did; replica readers pin
// snapshots of it exactly as leader readers do.
func (f *Follower) Apply(lsn uint64, payload []byte) error {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return fmt.Errorf("reldb: follower already promoted")
	}
	st := newTableStage(f.db.versions.Load().tables)
	rec, err := f.consume(st, lsn, payload)
	if err != nil {
		return err
	}
	f.db.mu.Lock()
	defer f.db.mu.Unlock()
	if rec.Txn > f.db.txnSeq {
		f.db.txnSeq = rec.Txn
	}
	if len(st.work) > 0 {
		f.db.installLocked(rec.LSN, st.frozen())
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
	st, txnSeq, fence, err := restoreSnap(snapshot)
	if err != nil {
		return err
	}
	f.db = newDatabaseAt(dbVersion{lsn: int64(lsn), txnSeq: txnSeq, tables: st.frozen()}, true)
	f.fence = fence
	f.pending = make(map[int64][]LogRecord)
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
// open. Transactions still pending (no Commit record before the old leader
// or the previous process died) are dropped, exactly as crash recovery
// drops uncommitted tails. The follower is dead afterwards: further
// Apply/Restore calls fail.
func (f *Follower) Promote() (*Database, error) {
	f.mu.Lock()
	defer f.mu.Unlock()
	if f.promoted {
		return nil, fmt.Errorf("reldb: follower already promoted")
	}
	if f.appliedLSN != f.w.LastLSN() {
		return nil, fmt.Errorf("reldb: promote at applied LSN %d, wal at %d", f.appliedLSN, f.w.LastLSN())
	}
	db := f.db
	if uint64(f.fence) > f.appliedLSN {
		// The fuzzy snapshot captured commits whose WAL frames this log
		// never received (they were in the group-commit pipeline, unsynced,
		// when the process died; or the leader died before shipping them —
		// their effects are durable only through the snapshot). The state is
		// still an exact prefix of the commit history, but the log position
		// must jump to the fence so no LSN at or below it is ever
		// reassigned — recovery would skip a commit stamped there as
		// already inside the snapshot. Re-anchor the backend at the fence.
		payload, _, _ := f.w.Snapshot()
		if err := f.w.InstallSnapshot(payload, uint64(f.fence)); err != nil {
			return nil, fmt.Errorf("reldb: re-anchor at fence: %w", err)
		}
		f.appliedLSN = uint64(f.fence)
		db.mu.Lock()
		db.installLocked(f.fence, nil)
		db.mu.Unlock()
	}
	f.promoted = true
	db.log.mu.Lock()
	db.log.nextLSN = int64(f.appliedLSN)
	db.log.w = f.w
	db.log.mu.Unlock()
	f.pending = nil
	db.readOnly.Store(false) // last: a write admitted from here on has the WAL under it
	return db, nil
}
