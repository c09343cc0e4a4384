package wal

import (
	"errors"
	"fmt"
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
// segment index — it never touches the io-owned file handle, so any number
// of cursors may run while commits, checkpoints and truncations continue.
// It finds its record's segment in the index and reads only the bytes the
// index lists as written frames, from its position on, so a frame that
// does not decode there is corruption. A checkpoint that compacts records
// out from under a cursor surfaces as ErrCompacted on the next call, even
// when it deleted the segment the cursor was reading; a concurrent
// TruncateTo simply moves the durable watermark down and the cursor waits
// at the new boundary.
// A Cursor itself is not safe for concurrent use by multiple goroutines.
type Cursor struct {
	w *WAL
	// next is the LSN the cursor will surface next.
	next uint64
	// seg is the segment the cursor reads and off the offset in it of the
	// first byte not yet decoded; buf holds the bytes read from off on, in
	// back, which is reused read to read.
	seg  string
	off  int
	buf  []byte
	back []byte
	// rewinds is the WAL rewind generation the position belongs to; a
	// TruncateTo/InstallSnapshot since invalidates it.
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
	for {
		w.mu.Lock()
		if w.rewinds != c.rewinds {
			// History was truncated or replaced since the last call: the
			// position may point into rewritten bytes, and records already
			// surfaced may have been cut. Restart from the snapshot boundary
			// and redeliver — the consumer observes the LSN going backwards,
			// which is exactly the history-rewrite signal. Rewinds only
			// happen during join-time divergence repair, so the redundancy
			// is never on a hot path.
			c.rewinds = w.rewinds
			c.seg, c.buf = "", nil
			c.next = w.snapLSN + 1
		}
		durable, snap := w.durableLSN, w.snapLSN
		var seg segment
		if i := segmentOf(w.segments, c.next); i < len(w.segments) {
			seg = w.segments[i]
		}
		w.mu.Unlock()
		if c.next > durable {
			return Record{}, false, nil
		}
		if c.next <= snap {
			return Record{}, false, fmt.Errorf("%w: cursor at %d, snapshot covers %d", ErrCompacted, c.next-1, snap)
		}
		rec, err := c.read(seg)
		if err == nil {
			return rec, true, nil
		}
		// The read failed. A checkpoint in flight may have deleted the
		// segment: once it is done, a position it covers is compacted, and
		// a position a rewind moved is read again from the snapshot.
		c.seg, c.buf = "", nil
		w.mu.Lock()
		for w.checkpointing {
			w.cond.Wait()
		}
		snap, rewound := w.snapLSN, w.rewinds != c.rewinds
		w.mu.Unlock()
		if c.next <= snap {
			return Record{}, false, fmt.Errorf("%w: cursor at %d, snapshot covers %d", ErrCompacted, c.next-1, snap)
		}
		if !rewound {
			return Record{}, false, err
		}
	}
}

// read decodes the record at c.next from s, the index entry of the segment
// holding it, reading the segment's frames from the cursor's position up to
// s.end when it has no undecoded bytes left. Entering a segment, it decodes
// from the start and skips the frames below c.next.
func (c *Cursor) read(s segment) (Record, error) {
	if s.name != c.seg {
		c.seg, c.off, c.buf = s.name, 0, nil
	}
	for {
		if len(c.buf) == 0 {
			n := s.end - c.off
			if n <= 0 {
				return Record{}, fmt.Errorf("wal: cursor: no segment holds LSN %d", c.next)
			}
			if cap(c.back) < n {
				c.back = make([]byte, n)
			}
			c.buf = c.back[:n]
			if _, err := c.w.fs.ReadAt(c.seg, c.buf, int64(c.off)); err != nil {
				return Record{}, fmt.Errorf("wal: cursor read %s: %w", c.seg, err)
			}
		}
		lsn, payload, rest, err := DecodeFrame(c.buf)
		if err != nil {
			return Record{}, fmt.Errorf("wal: cursor read %s at offset %d: %w", c.seg, c.off, err)
		}
		c.off += len(c.buf) - len(rest)
		c.buf = rest
		if lsn < c.next {
			continue
		}
		if lsn != c.next {
			return Record{}, fmt.Errorf("wal: cursor expected LSN %d, found %d in %s", c.next, lsn, c.seg)
		}
		c.next++
		return Record{LSN: lsn, Payload: append([]byte(nil), payload...)}, nil
	}
}
