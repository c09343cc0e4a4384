package audit

import (
	"encoding/json"
	"fmt"

	"webdbsec/internal/wal"
)

// Durable backend for the audit chain. Each record travels as one JSON
// frame; the chain itself is the integrity mechanism, so OpenLog re-walks
// it on every start and refuses to serve from a log whose surviving
// records do not verify — a broken chain means the trail was tampered with
// (or rotted) at rest, and an accountability log that silently accepts
// that is worse than none. A torn final record, by contrast, is a clean
// crash artifact: the wal layer truncates it before this package ever
// sees it, and the chain prefix that remains verifies.

func encodeRecord(r *Record) ([]byte, error) { return json.Marshal(r) }

func decodeRecord(payload []byte) (Record, error) {
	var r Record
	err := json.Unmarshal(payload, &r)
	return r, err
}

// ErrChainBroken is wrapped by OpenLog when the persisted chain fails
// verification.
var ErrChainBroken = fmt.Errorf("audit: persisted hash chain broken")

// OpenLog recovers the audit log from w, verifying the hash chain as it
// streams through it one record at a time, and wires the log to keep
// appending to it. The log keeps no records, only the chain's tail. A
// chain of v1 records continues as v2. The caller owns w's lifecycle but
// must not use it directly afterwards. The audit log never checkpoints:
// truncating history is exactly what a tamper-evident log must not do, so
// growth is bounded only by segment rotation on disk.
//
// seclint:locked l is not yet published; no other goroutine can hold a reference during recovery
func OpenLog(w *wal.WAL) (*Log, error) {
	l := &Log{w: w}
	err := l.Scan(func(r Record) error {
		if !l.tail.extend(&r) {
			return fmt.Errorf("%w: first bad record at seq %d", ErrChainBroken, l.tail.n)
		}
		return nil
	})
	if err != nil {
		return nil, err
	}
	return l, nil
}
