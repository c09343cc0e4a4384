// Package audit provides the tamper-evident audit log the security layers
// write to. Every record is chained to its predecessor by a SHA-256 hash,
// so after-the-fact modification or deletion of any entry is detectable —
// the accountability counterpart of the paper's access control mechanisms
// ("data and information have to be protected from unauthorized access as
// well as from malicious corruption", §1).
package audit

import (
	"crypto/sha256"
	"encoding/binary"
	"encoding/hex"
	"errors"
	"fmt"
	"math"
	"sync"

	"webdbsec/internal/wal"
)

// Record is one audit entry.
type Record struct {
	// V is the chain-hash version: 2 for every record this package writes,
	// 0 (absent from the frame) for the v1 records of older logs.
	V       int `json:",omitempty"`
	Seq     int
	Actor   string
	Action  string
	Object  string
	Outcome string
	// PrevHash chains the record to its predecessor; Hash covers this
	// record including PrevHash.
	PrevHash string
	Hash     string
}

// Log is a hash-chained append-only audit log. An in-memory log keeps its
// records in a slice, its only storage. A durable log (OpenLog) keeps only
// the chain's tail: its records live in the WAL (internal/wal), and every
// reader reads them back from there. Safe for concurrent use.
type Log struct {
	mu sync.RWMutex
	// records is an in-memory log's trail; nil on a durable log.
	// seclint:guardedby mu
	records []Record
	// tail is the chain's running state. seclint:guardedby mu
	tail chain
	// w is the durable backend, nil for in-memory logs. seclint:guardedby mu
	w *wal.WAL
	// err is the sticky backend error. seclint:guardedby mu
	err error
}

// NewLog returns an empty in-memory log.
func NewLog() *Log { return &Log{} }

// errFieldTooLong refuses a field the v2 preimage cannot length-prefix.
var errFieldTooLong = errors.New("audit: record field of 4 GiB or more")

// Append adds a record and returns it with chain fields filled. Backend
// failures stick in Err; use AppendChecked when the caller needs the
// durability verdict.
func (l *Log) Append(actor, action, object, outcome string) Record {
	r, _ := l.AppendChecked(actor, action, object, outcome) // seclint:exempt fire-and-forget by contract; the verdict sticks in Err for callers that care
	return r
}

// AppendChecked is Append that also reports whether the record reached the
// durable backend (always nil for an in-memory log). A non-nil error means
// the record's persistence is unknown; a backend error sticks and poisons
// all later appends, which then write nothing.
//
// The chain extension (hash over the predecessor, WAL enqueue) happens
// under l.mu, but the wait for the disk verdict happens outside it:
// concurrent auditors enqueue into the backend's group-commit pipeline and
// share one batched fsync instead of serializing on the chain mutex for a
// private fsync each. Frames are enqueued in chain order under the mutex,
// so the on-disk log is always a prefix of the chain.
func (l *Log) AppendChecked(actor, action, object, outcome string) (Record, error) {
	for _, f := range [...]string{actor, action, object, outcome} {
		if uint64(len(f)) > math.MaxUint32 {
			return Record{}, errFieldTooLong
		}
	}
	l.mu.Lock()
	r := Record{
		V:        2,
		Seq:      l.tail.n,
		Actor:    actor,
		Action:   action,
		Object:   object,
		Outcome:  outcome,
		PrevHash: l.tail.hash,
	}
	r.Hash = hashV2(&r)
	var ack *wal.Ack
	switch {
	case l.w == nil:
		l.records = append(l.records, r)
		l.tail.advance(&r)
	case l.err != nil:
		// Poisoned: nothing more reaches the trail.
	default:
		if payload, err := encodeRecord(&r); err != nil {
			l.err = err
			// seclint:taint-exempt audit records preserve the submitted text verbatim by design; the WAL frame is length-prefixed binary and never re-parsed as input
		} else if _, a, err := l.w.AppendAsync(payload); err != nil {
			l.err = err
		} else {
			ack = a
			l.tail.advance(&r)
		}
	}
	err := l.err
	l.mu.Unlock()
	if ack != nil {
		if werr := ack.Wait(); werr != nil {
			l.mu.Lock()
			if l.err == nil {
				l.err = werr
			}
			err = l.err
			l.mu.Unlock()
		}
	}
	return r, err
}

// Err returns the sticky durable-backend error, if any.
func (l *Log) Err() error {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.err
}

// chain is what a verifier carries from one record to the next, and all a
// durable log keeps in memory.
type chain struct {
	n    int    // records so far: the next record's Seq
	hash string // the last record's Hash, "" before the first
	v2   bool   // a v2 record was seen; a v1 record after it is a downgrade
}

// advance moves the chain past r, which the caller has checked or built.
func (c *chain) advance(r *Record) {
	c.n, c.hash, c.v2 = r.Seq+1, r.Hash, c.v2 || r.V == 2
}

// extend checks that r is the chain's next record and, if so, advances the
// chain past it.
func (c *chain) extend(r *Record) bool {
	if r.Seq != c.n || r.PrevHash != c.hash {
		return false
	}
	switch {
	case r.V == 2:
		if r.Hash != hashV2(r) {
			return false
		}
	case r.V == 0 && !c.v2:
		if r.Hash != hashV1(r) {
			return false
		}
	default:
		return false
	}
	c.advance(r)
	return true
}

// hashV1 is the chain hash of v1 records. Its preimage is ambiguous — a
// "|" inside a field reads as a separator — so it only verifies old logs.
func hashV1(r *Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s", r.Seq, r.Actor, r.Action, r.Object, r.Outcome, r.PrevHash)
	return hex.EncodeToString(h.Sum(nil))
}

// preimageV2 appends r's v2 preimage to dst: the tag "audit/v2", Seq as a
// big-endian u64, then actor, action, object, outcome and the predecessor's
// hash, each as a big-endian u32 length and its bytes. Every field is
// length-prefixed, so two records share a preimage only if they share
// every field.
func preimageV2(dst []byte, r *Record) []byte {
	dst = append(dst, "audit/v2"...)
	dst = binary.BigEndian.AppendUint64(dst, uint64(r.Seq))
	for _, f := range [...]string{r.Actor, r.Action, r.Object, r.Outcome, r.PrevHash} {
		dst = binary.BigEndian.AppendUint32(dst, uint32(len(f)))
		dst = append(dst, f...)
	}
	return dst
}

func hashV2(r *Record) string {
	size := 8 + 8 + 5*4 + len(r.Actor) + len(r.Action) + len(r.Object) + len(r.Outcome) + len(r.PrevHash)
	sum := sha256.Sum256(preimageV2(make([]byte, 0, size), r))
	return hex.EncodeToString(sum[:])
}

// Len returns the number of records.
func (l *Log) Len() int {
	l.mu.RLock()
	defer l.mu.RUnlock()
	return l.tail.n
}

// Scan calls fn for every record in Seq order: an in-memory log's from its
// slice, a durable log's from the WAL (wal.Replay, which drains the commit
// pipeline first, so every record appended before the call is delivered,
// and refuses a short read). Records appended while Scan runs may or may
// not be delivered. Scan stops at fn's first error and returns it, or the
// error that kept it from reading the whole log.
func (l *Log) Scan(fn func(Record) error) error {
	l.mu.RLock()
	w, recs := l.w, l.records
	l.mu.RUnlock()
	if w == nil {
		// The slice's first len(recs) elements are never written again.
		for _, r := range recs {
			if err := fn(r); err != nil {
				return err
			}
		}
		return nil
	}
	return w.Replay(func(lsn uint64, payload []byte) error {
		r, err := decodeRecord(payload)
		if err != nil {
			return fmt.Errorf("audit: decode record at lsn %d: %w", lsn, err)
		}
		return fn(r)
	})
}

// Records returns every record, or nil if the log could not be read; Scan
// reports why. For tests.
func (l *Log) Records() []Record {
	var out []Record
	if err := l.Scan(func(r Record) error {
		out = append(out, r)
		return nil
	}); err != nil {
		return nil
	}
	return out
}

// Verify reads the log back — a durable log from disk — walks the chain,
// and returns the sequence number of the first record that does not verify,
// or -1 when the log is intact. A record it could not read counts as one
// that does not verify, so a read failure never passes as a shorter chain;
// neither does a chain whose record Len()-1 is not the one this log
// appended.
func (l *Log) Verify() int {
	l.mu.RLock()
	want := l.tail
	l.mu.RUnlock()
	var c chain
	err := l.Scan(func(r Record) error {
		if (r.Seq == want.n-1 && r.Hash != want.hash) || !c.extend(&r) {
			return ErrChainBroken
		}
		return nil
	})
	if err != nil || c.n < want.n {
		return c.n
	}
	return -1
}
