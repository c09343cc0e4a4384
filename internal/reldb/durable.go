package reldb

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/mvcc"
	"webdbsec/internal/wal"
)

// Durable backend for the relational engine. Log records and checkpoint
// snapshots travel as JSON payloads inside internal/wal frames — the frame
// layer provides integrity (CRC32C) and torn-tail truncation, this layer
// provides the schema. JSON is verbose but self-describing: every field of
// LogRecord, Change, Schema and Value is exported, so a record round-trips with
// plain encoding/json and a decoding failure is always a corruption signal
// rather than a versioning accident.

// encodeLogRecord serializes one log record for the backend.
func encodeLogRecord(rec *LogRecord) ([]byte, error) {
	return json.Marshal(rec)
}

// decodeLogRecord is the inverse of encodeLogRecord.
func decodeLogRecord(payload []byte) (LogRecord, error) {
	var rec LogRecord
	if err := json.Unmarshal(payload, &rec); err != nil {
		return LogRecord{}, fmt.Errorf("reldb: decode log record: %w", err)
	}
	return rec, nil
}

// tableSnap is one table inside a checkpoint snapshot: schema, rows with
// their stable rowIDs, and the rowID high-water mark. Snapshots written
// while tables could carry indexes also list the indexed columns; decoding
// ignores them, as an index held nothing the rows do not.
type tableSnap struct {
	Name   string
	Schema Schema
	NextID int64
	Rows   []rowSnap
}

type rowSnap struct {
	ID  int64
	Row Row
}

// dbSnap is a whole-database checkpoint snapshot: the committed state as of
// the snapshot frame's own LSN. Snapshots written before a transaction
// became one log record also carry a transaction counter and a fence LSN;
// decoding ignores both (DESIGN.md, "Fuzzy checkpoints", has why such a
// snapshot still opens to exactly its committed state or not at all).
type dbSnap struct {
	Tables []tableSnap
}

// snapshot captures the table — no lock needed: checkpoint snapshots are
// taken from frozen version tables. Rows go out in rowID order, so one
// state always encodes to the same bytes and a checkpoint image can be
// compared with, or replayed against, another. The rows are shared with
// the table, not copied: the snapshot is only encoded.
func (t *Table) snapshot() tableSnap {
	snap := tableSnap{Name: t.Name, Schema: t.Schema, NextID: t.nextID}
	snap.Rows = make([]rowSnap, 0, t.Len())
	t.Scan(func(id int64, r Row) bool {
		snap.Rows = append(snap.Rows, rowSnap{ID: id, Row: r})
		return true
	})
	return snap
}

// restore rebuilds the (unfrozen, private) table a snapshot describes. A
// row its schema refuses fails it, as it would fail Insert: scans rely on
// every stored row having the schema's arity and kinds.
func (s *tableSnap) restore() (*Table, error) {
	t := NewTable(s.Name, s.Schema)
	for _, r := range s.Rows {
		if err := s.Schema.CheckRow(r.Row); err != nil {
			return nil, fmt.Errorf("reldb: restore %s row %d: %w", s.Name, r.ID, err)
		}
		t.insertAt(r.ID, r.Row)
	}
	// insertAt raised nextID to the highest live rowID; the snapshot's
	// high-water mark may be higher still (deleted rows must not be
	// reincarnated under a reused id).
	if s.NextID > t.nextID {
		t.nextID = s.NextID
	}
	return t, nil
}

// restoreSnap decodes a dbSnap payload into a stage holding its (still
// private, unfrozen) tables. An empty payload is the empty database.
func restoreSnap(payload []byte) (*tableStage, error) {
	st := newTableStage(nil)
	if len(payload) == 0 {
		return st, nil
	}
	var snap dbSnap
	if err := json.Unmarshal(payload, &snap); err != nil {
		return nil, fmt.Errorf("reldb: decode snapshot: %w", err)
	}
	for i := range snap.Tables {
		t, err := snap.Tables[i].restore()
		if err != nil {
			return nil, err
		}
		st.put(t)
	}
	return st, nil
}

// OpenDatabase recovers a database from its durable log and wires it to
// keep appending to w: a single node is a follower of its own log that
// promotes at once, so restart and failover share one recovery path. The
// caller owns w's lifecycle but must not use it directly afterwards.
func OpenDatabase(w *wal.WAL) (*Database, error) {
	f, err := OpenFollower(w)
	if err != nil {
		return nil, err
	}
	return f.Promote()
}

// Checkpoint writes a snapshot of a committed version and truncates the
// log (segment deletion). It is FUZZY: transactions keep beginning and
// committing while the snapshot streams out — nothing quiesces, nothing is
// refused, and no writer lock is taken. The fence is the pinned version's
// LSN: the version holds exactly the records at or below it, and because
// every record is one complete mutation, none above it depends on one
// below, so the log is cut right there and the snapshot needs no fence of
// its own.
func (db *Database) Checkpoint() error {
	var pin mvcc.Pin[dbVersion]
	db.versions.Pin(&pin)
	defer pin.Release()
	v := pin.Value()
	payload, err := v.encodeSnap()
	if err != nil {
		return err
	}
	return db.log.checkpointAt(payload, v.lsn)
}

// encodeSnap serializes the version as a checkpoint payload. The encoding
// is a function of the state alone: tables by name, rows by rowID.
func (v *dbVersion) encodeSnap() ([]byte, error) {
	var snap dbSnap
	for _, name := range v.tableNames() {
		snap.Tables = append(snap.Tables, v.tables[name].snapshot())
	}
	payload, err := json.Marshal(&snap)
	if err != nil {
		return nil, fmt.Errorf("reldb: encode snapshot: %w", err)
	}
	return payload, nil
}
