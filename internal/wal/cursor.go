package wal

import (
	"errors"
	"fmt"
	"slices"
)

// ErrCompacted is returned by OpenCursor and Cursor.Next when the
// requested position has been folded into a checkpoint snapshot: the
// records no longer exist individually, so a streaming consumer must
// restart from the snapshot (Snapshot + InstallSnapshot on the far side).
var ErrCompacted = errors.New("wal: position compacted into snapshot")

// Cursor is a read-only iterator over the log's durable records, anchored
// at an LSN: Next surfaces records in LSN order, starting after the anchor
// and never beyond the durable watermark — a frame is visible only once
// its durability barrier completed, so a replication stream cannot ship
// bytes the log could still lose in a crash.
//
// Concurrency contract: a cursor reads segment data through the FS and
// coordinates with writers only through the mu-guarded watermarks and
// segment list — it never touches the io-owned file handle, so any number
// of cursors may run while commits, checkpoints and truncations continue.
// A checkpoint that compacts records out from under a cursor surfaces as
// ErrCompacted on the next call; a concurrent TruncateTo simply moves the
// durable watermark down and the cursor waits at the new boundary.
// A Cursor itself is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	w *WAL
	// next is the LSN the cursor will surface next.
	next uint64
	// seg/off remember the decode position: segs[segIdx] consumed through
	// byte off. segs is the cursor's copy of the segment list; it is
	// refreshed whenever the log's list differs from it.
	segs   []string
	segIdx int
	off    int
	// data caches the bytes of segs[segIdx] so a streaming consumer decodes
	// O(1) per record instead of re-reading the whole segment every call
	// (which made catch-up quadratic in segment size). The cache is dropped
	// whenever the cursor returns without a record or the position is
	// invalidated, so a re-grown or rewritten file is always re-read before
	// the next decode.
	data []byte
	// rewinds is the WAL rewind generation the cached position belongs to;
	// a TruncateTo/InstallSnapshot since invalidates it.
	rewinds uint64
}

// OpenCursor returns a cursor surfacing durable records with LSN > after.
// ErrCompacted means the position predates the checkpoint snapshot and the
// consumer must resync from Snapshot first. A cursor does not pin
// anything: the log may checkpoint or truncate underneath it, and the
// cursor reports ErrCompacted / waits accordingly.
func (w *WAL) OpenCursor(after uint64) (*Cursor, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil && w.err != ErrClosed {
		return nil, w.err
	}
	if after < w.snapLSN {
		return nil, fmt.Errorf("%w: cursor at %d, snapshot covers %d", ErrCompacted, after, w.snapLSN)
	}
	return &Cursor{w: w, next: after + 1, rewinds: w.rewinds}, nil
}

// Next returns the next durable record, if one is available. ok is false
// when the cursor has caught up with the durable watermark — wait on
// Watch and retry. The returned payload is a private copy.
func (c *Cursor) Next() (rec Record, ok bool, err error) {
	w := c.w
	w.mu.Lock()
	durable, snap := w.durableLSN, w.snapLSN
	if w.rewinds != c.rewinds {
		// History was truncated or replaced since the last call: the cached
		// byte position may point into rewritten bytes, and records already
		// surfaced may have been cut. Restart from the snapshot boundary and
		// redeliver — the consumer observes the LSN going backwards, which
		// is exactly the history-rewrite signal. Rewinds only happen during
		// join-time divergence repair, so the redundancy is never on a hot
		// path.
		c.rewinds = w.rewinds
		c.segs, c.segIdx, c.off, c.data = nil, 0, 0, nil
		c.next = snap + 1
	}
	if !slices.Equal(c.segs, w.segments) {
		// The list changed since the last call; copy it only then, so a
		// streaming cursor allocates nothing but the payload per record.
		if !sameSegPrefix(c.segs, w.segments, c.segIdx) {
			// Segments rotated, truncated or checkpointed under us: rescan
			// from the start of the surviving list. The LSN filter keeps the
			// output exactly-once.
			c.segIdx, c.off, c.data = 0, 0, nil
		}
		c.segs = slices.Clone(w.segments)
	}
	w.mu.Unlock()
	if c.next > durable {
		c.data = nil
		return Record{}, false, nil
	}
	if c.next <= snap {
		return Record{}, false, fmt.Errorf("%w: cursor at %d, snapshot covers %d", ErrCompacted, c.next-1, snap)
	}
	for c.segIdx < len(c.segs) {
		if c.off >= len(c.data) {
			// Cache empty or consumed: (re-)read the segment. This is the
			// only FS read on the streaming path — while cached bytes last,
			// decoding is O(1) per record.
			data, err := w.fs.ReadFile(c.segs[c.segIdx])
			if err != nil {
				// The segment vanished (checkpoint or truncation won the
				// race); restart from the fresh list on the next call.
				c.segs, c.data = nil, nil
				return Record{}, false, nil
			}
			if c.off > len(data) {
				// The file shrank in place (torn-tail truncation on a
				// rejoin); rescan it.
				c.off = 0
			}
			c.data = data
		}
		data := c.data
		rest := data[c.off:]
		for len(rest) > 0 {
			lsn, payload, next, err := DecodeFrame(rest)
			if err == ErrTorn {
				// A frame still being written when the cache was read.
				// Durable frames are complete on disk, so the target record
				// is further along — drop the cache and wait for the writer.
				c.data = nil
				return Record{}, false, nil
			}
			if err != nil {
				return Record{}, false, fmt.Errorf("wal: cursor read %s: %w", c.segs[c.segIdx], err)
			}
			c.off = len(data) - len(next)
			rest = next
			if lsn < c.next {
				continue
			}
			if lsn != c.next {
				return Record{}, false, fmt.Errorf("wal: cursor expected LSN %d, found %d in %s", c.next, lsn, c.segs[c.segIdx])
			}
			c.next = lsn + 1
			return Record{LSN: lsn, Payload: append([]byte(nil), payload...)}, true, nil
		}
		// Segment exhausted. Move on only if a later segment exists — the
		// record must then live there; otherwise the record is still being
		// appended to this (active) segment: drop the cache so the next call
		// re-reads the grown file.
		if c.segIdx+1 >= len(c.segs) {
			c.data = nil
			return Record{}, false, nil
		}
		c.segIdx++
		c.off = 0
		c.data = nil
	}
	return Record{}, false, nil
}

// sameSegPrefix reports whether the first n+1 names of old and new agree —
// i.e. the cursor's position in old is still meaningful in new.
func sameSegPrefix(old, new []string, n int) bool {
	if len(old) == 0 {
		return len(new) == 0 || n == 0
	}
	if n >= len(new) || n >= len(old) {
		return false
	}
	for i := 0; i <= n; i++ {
		if old[i] != new[i] {
			return false
		}
	}
	return true
}
