// Package wal is the disk-backed write-ahead log under both durable stores
// in this repository: reldb's transaction log and the audit chain. The
// paper demands that "recovery techniques have to be developed for the
// transaction models" (§2.1) and that data be protected "from malicious
// corruption" (§1); this package is the common substrate for both — an
// append-only, segmented, CRC32C-framed log with a configurable fsync
// policy, torn-tail detection on open, a checkpoint protocol (snapshot +
// log truncation) that bounds recovery time and disk growth, and a
// group-commit pipeline that coalesces concurrent appends into shared
// writes and fsyncs.
//
// Crash model. The log assumes that after a crash a file retains some
// prefix of the bytes written to it (fsynced bytes are always retained;
// unsynced bytes may be partially retained or lost), that FS.Rename is
// atomic, and that the directory changes of FS.Create, Rename, Remove and
// WriteTrunc are durable when they return — DirFS fsyncs the directory, so
// a new segment, the checkpoint's snapshot rename and a truncation's
// removals survive a power cut along with the fsynced bytes. Under that
// model Open always recovers a clean record prefix: scanning stops at the
// first torn or corrupt frame, the tail beyond it is physically truncated,
// and later segments are discarded. Which records are guaranteed to
// survive depends on the sync policy: SyncAlways makes every Append
// durable before it returns; SyncInterval and SyncNever trade the tail of
// the log for throughput but never atomicity — recovery still yields an
// exact prefix of the append history.
//
// Segment layout. A new segment is extended to Options.SegmentBytes before
// its first write (a sparse file: nothing is written), so no commit's fsync
// has a new file size to commit — only data. The unwritten rest reads as
// zeros. The log keeps an index of its segments — name, first and last LSN,
// and the offset just past the last frame written — and every reader reads
// only the bytes the index says hold frames: a cursor reads from its
// position to that offset, a checkpoint and TruncateTo decide from the
// index, and only Open has to discover what a segment holds. Its scan takes
// the first all-zero frame header as the segment's clean end: no frame has
// one, because LSNs start at 1. A clean end is not a torn tail — nothing is
// truncated and no later segment dropped — so sealed segments keep their
// zero tails for good. A segment that ends cleanly before its first frame
// (created, then a crash before anything reached it: empty or all zeros) is
// removed on open.
//
// Group commit. Appenders do not write to the file themselves: they
// enqueue an encoded frame into a commit queue and wait for a verdict. The
// first waiter becomes the batch leader, claims the file, coalesces every
// queued frame (up to Options.MaxBatchBytes) into one buffered write and —
// under SyncAlways — one shared fsync, then releases all waiters in the
// batch with the same verdict. Followers that enqueue while the leader is
// inside the fsync form the next batch, so under concurrent commit load
// the fsync cost is amortized across the batch instead of paid per record.
// The durability contract is unchanged: a nil verdict means the frame is
// on disk, and a failed batch write or fsync fails every waiter in the
// batch and poisons the log — no waiter is ever acknowledged by a barrier
// that did not complete. Frames are written in LSN order, so after a crash
// mid-batch the recovered prefix is still an exact prefix of the append
// history.
package wal

import (
	"cmp"
	"fmt"
	"slices"
	"sync"
	"time"
)

// SyncPolicy says when appended frames are fsynced.
type SyncPolicy int

const (
	// SyncAlways fsyncs on every batch: an Append that returned nil is
	// durable. The safest policy; group commit is what makes it fast
	// under concurrency.
	SyncAlways SyncPolicy = iota
	// SyncInterval fsyncs from a background ticker (Options.Interval) and
	// on explicit Sync/Close. A crash loses at most one interval of
	// appends.
	SyncInterval
	// SyncNever fsyncs only on explicit Sync and Close. A crash may lose
	// everything since the last explicit barrier.
	SyncNever
)

func (p SyncPolicy) String() string {
	switch p {
	case SyncAlways:
		return "always"
	case SyncInterval:
		return "interval"
	case SyncNever:
		return "never"
	}
	return fmt.Sprintf("SyncPolicy(%d)", int(p))
}

// ParseSyncPolicy maps the flag spellings ("always", "interval", "never")
// to a policy.
func ParseSyncPolicy(s string) (SyncPolicy, error) {
	switch s {
	case "always":
		return SyncAlways, nil
	case "interval":
		return SyncInterval, nil
	case "never":
		return SyncNever, nil
	}
	return 0, fmt.Errorf("wal: unknown sync policy %q (want always, interval or never)", s)
}

// Options configures a log.
type Options struct {
	// FS is the storage root. Required.
	FS FS
	// Policy is the fsync policy; the zero value is SyncAlways.
	Policy SyncPolicy
	// Interval is the background fsync period for SyncInterval
	// (default 100ms).
	Interval time.Duration
	// SegmentBytes rotates the active segment when it would exceed this
	// size (default 4 MiB); every segment is created at this length. A
	// single frame or batch larger than the limit still goes out whole in
	// its own segment, which grows past it.
	SegmentBytes int
	// MaxBatchBytes caps how many queued frame bytes one group-commit
	// batch coalesces into a single write + fsync (default 1 MiB). A
	// batch always carries at least one frame, so setting this to 1
	// degenerates to one fsync per append — the pre-group-commit
	// baseline, kept reachable for measurement.
	MaxBatchBytes int
}

// Record is one recovered log entry.
type Record struct {
	LSN     uint64
	Payload []byte
}

// Stats are the log's operational counters, published by the servers via
// internal/debugz.
type Stats struct {
	Appends      uint64
	BytesWritten uint64
	Fsyncs       uint64
	Rotations    uint64
	Checkpoints  uint64
	// TornTails counts segments truncated at a bad frame during Open; a
	// segment's zero tail is its clean end and is not counted.
	TornTails uint64
	// Segments is the number of live segment files.
	Segments int
	// LastLSN is the highest LSN appended or recovered; SnapshotLSN the
	// LSN the current checkpoint covers (0 = none); DurableLSN the highest
	// LSN behind a completed durability barrier (what replication ships).
	LastLSN     uint64
	SnapshotLSN uint64
	DurableLSN  uint64
	Policy      string

	// Group-commit pipeline counters. Batches is the number of coalesced
	// writes; BatchFrames the frames they carried (== Appends once the
	// queue drains); FsyncsSaved the fsyncs group commit avoided under
	// SyncAlways (frames that rode a batchmate's barrier); MaxBatch the
	// largest batch observed, in frames.
	Batches     uint64
	BatchFrames uint64
	FsyncsSaved uint64
	MaxBatch    int
	// BatchSizes is a frames-per-batch histogram with buckets
	// [1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, >64].
	BatchSizes [8]uint64
	// CommitWaitNs is an enqueue-to-verdict latency histogram with
	// buckets [<10µs, <100µs, <1ms, <10ms, <100ms, ≥100ms].
	CommitWaitNs [6]uint64
}

const (
	snapshotName      = "snapshot"
	snapshotTmpName   = "snapshot.tmp"
	defaultSegBytes   = 4 << 20
	defaultInterval   = 100 * time.Millisecond
	defaultBatchBytes = 1 << 20
)

// segment is one entry of the log's segment index: the file, the first
// and last LSN of its frames, and end, the offset just past the last frame
// written. end moves only after the Write that put the frame there has
// returned, so every byte below it belongs to a complete frame.
type segment struct {
	name        string
	first, last uint64
	end         int
}

// segmentOf returns the index of the segment in segs that holds lsn, or of
// the first one after it: the first whose last LSN is at or above lsn.
func segmentOf(segs []segment, lsn uint64) int {
	i, _ := slices.BinarySearchFunc(segs, lsn, func(s segment, lsn uint64) int { return cmp.Compare(s.last, lsn) })
	return i
}

func segmentName(n int) string { return fmt.Sprintf("wal-%08d.log", n) }

func parseSegmentName(name string) (int, bool) {
	var n int
	if _, err := fmt.Sscanf(name, "wal-%08d.log", &n); err != nil {
		return 0, false
	}
	if segmentName(n) != name {
		return 0, false
	}
	return n, true
}

// batchBucket maps a frames-per-batch count to its Stats.BatchSizes
// bucket: [1, 2, 3-4, 5-8, 9-16, 17-32, 33-64, >64].
func batchBucket(n int) int {
	b := 0
	for n > 1 && b < 7 {
		n = (n + 1) / 2
		b++
	}
	return b
}

// waitBucket maps an enqueue-to-verdict latency to its Stats.CommitWaitNs
// bucket: [<10µs, <100µs, <1ms, <10ms, <100ms, ≥100ms].
func waitBucket(d time.Duration) int {
	switch {
	case d < 10*time.Microsecond:
		return 0
	case d < 100*time.Microsecond:
		return 1
	case d < time.Millisecond:
		return 2
	case d < 10*time.Millisecond:
		return 3
	case d < 100*time.Millisecond:
		return 4
	}
	return 5
}

// ErrClosed is returned by operations on a closed log.
var ErrClosed = fmt.Errorf("wal: closed")

// WAL is an open log. All methods are safe for concurrent use. After any
// write error the log is poisoned: the error sticks and every subsequent
// mutating call returns it, because a store whose log is in an unknown
// disk state must not pretend to make progress.
//
// Two ownership domains guard the state. Queue state — LSN counter,
// commit queue, sticky error, stats, recovered snapshot — is under mu.
// File state — active segment handle, its size, the dirty flag — belongs
// to whoever holds io ownership (ioBusy, claimed and released under mu),
// so the batch leader can run write+fsync without holding mu and
// committers keep enqueuing into the next batch meanwhile.
type WAL struct {
	mu   sync.Mutex
	cond *sync.Cond
	fs   FS
	opts Options

	lastLSN  uint64 // seclint:guardedby mu
	snapLSN  uint64 // seclint:guardedby mu
	snapshot []byte // seclint:guardedby mu

	// Replication watermarks. writtenLSN is the highest LSN whose frame
	// reached the file; durableLSN the highest LSN covered by a completed
	// durability barrier (batch fsync under SyncAlways, explicit Sync,
	// checkpoint). Cursors surface only records at or below durableLSN, so
	// a replication stream never ships bytes the leader could still lose.
	writtenLSN uint64 // seclint:guardedby mu
	durableLSN uint64 // seclint:guardedby mu

	// watchers are the channels registered by Watch, signaled (without
	// blocking) whenever durableLSN advances.
	watchers []chan struct{} // seclint:guardedby mu
	// rewinds counts TruncateTo/InstallSnapshot calls: history behind the
	// watermarks changed, so cursors must drop their cached positions.
	rewinds uint64 // seclint:guardedby mu

	// Commit pipeline: qbuf holds the encoded frames of queued appends
	// (pooled; nil when the queue is empty), queue their pending acks in
	// LSN order. leader is true while some goroutine is draining the
	// queue; ioBusy while someone (the leader, Sync, TruncateTo,
	// InstallSnapshot, Close or the interval flusher) owns the file. scratch
	// is the leader's private waiter list, reused batch to batch so draining
	// allocates nothing.
	qbuf    *[]byte // seclint:guardedby mu
	queue   []*Ack  // seclint:guardedby mu
	scratch []*Ack  // seclint:guardedby mu
	leader  bool    // seclint:guardedby mu
	ioBusy  bool    // seclint:guardedby mu
	// checkpointing is true while CheckpointAt streams its snapshot and
	// deletes sealed segments. It is NOT io ownership — batch leaders keep
	// claiming ioBusy and writing the active segment throughout — but the
	// quiesce-based file operations (Sync, TruncateTo, InstallSnapshot,
	// Close) wait for it, because they touch the snapshot file and segment
	// list a checkpoint is working on.
	checkpointing bool // seclint:guardedby mu

	// File state: owned by the io-ownership holder (see above), touched by
	// writeBatch/truncateIO/installIO without mu — deliberately not
	// mu-guarded. The segment index, by contrast, lives under mu, in LSN
	// order (io holders report what they created, wrote and deleted back
	// under the lock), so cursors can look up a position while the batch
	// leader writes.
	active     File
	activeSize int
	segSeq     int
	segments   []segment // seclint:guardedby mu
	dirty      bool      // seclint:guardedby mu

	err error // seclint:guardedby mu

	stats Stats // seclint:guardedby mu

	stop chan struct{} // seclint:guardedby mu
	done chan struct{} // seclint:guardedby mu
}

// Ack is the pending durability verdict of an AppendAsync: Wait blocks
// until the batch carrying the frame has been written (and, under
// SyncAlways, fsynced) and returns the batch's shared verdict.
type Ack struct {
	w    *WAL
	lsn  uint64
	size int
	enq  time.Time
	done bool
	err  error
}

// Wait blocks until the frame's batch verdict is known. A nil return under
// SyncAlways means the frame is on disk. If no leader is draining the
// queue, the caller becomes the leader — group commit needs no background
// goroutine.
func (a *Ack) Wait() error {
	w := a.w
	w.mu.Lock()
	for !a.done {
		if !w.leader {
			w.leader = true
			w.driveLocked()
			w.leader = false
			w.cond.Broadcast()
			continue
		}
		w.cond.Wait()
	}
	err := a.err
	w.mu.Unlock()
	return err
}

// LSN returns the sequence number assigned to the frame at enqueue.
func (a *Ack) LSN() uint64 { return a.lsn }

// Open recovers the log rooted at opts.FS: it loads the checkpoint
// snapshot if one exists, scans the segments in order to find the last LSN,
// and truncates the first torn or corrupt frame and everything after it. It
// keeps no record in memory — Replay reads them back from the segments. A
// corrupt snapshot (failed checksum) is not recoverable mechanically and
// fails Open.
//
// seclint:locked w is not yet published; no other goroutine can hold a reference before Open returns
func Open(opts Options) (*WAL, error) {
	if opts.FS == nil {
		return nil, fmt.Errorf("wal: Options.FS is required")
	}
	if opts.SegmentBytes <= 0 {
		opts.SegmentBytes = defaultSegBytes
	}
	if opts.Interval <= 0 {
		opts.Interval = defaultInterval
	}
	if opts.MaxBatchBytes <= 0 {
		opts.MaxBatchBytes = defaultBatchBytes
	}
	w := &WAL{fs: opts.FS, opts: opts}
	w.cond = sync.NewCond(&w.mu)
	w.stats.Policy = opts.Policy.String()
	if err := w.recover(); err != nil {
		return nil, err
	}
	if opts.Policy == SyncInterval {
		w.stop = make(chan struct{})
		w.done = make(chan struct{})
		go w.flushLoop(w.stop, w.done)
	}
	return w, nil
}

// seclint:locked runs only from Open, before w is published
func (w *WAL) recover() error {
	names, err := w.fs.List()
	if err != nil {
		return fmt.Errorf("wal: list: %w", err)
	}
	var segNums []int
	for _, name := range names {
		switch {
		case name == snapshotName:
			data, err := w.fs.ReadFile(name)
			if err != nil {
				return fmt.Errorf("wal: read snapshot: %w", err)
			}
			lsn, payload, rest, err := DecodeFrame(data)
			if err != nil || len(rest) != 0 {
				return fmt.Errorf("wal: snapshot corrupt: %w", ErrCorrupt)
			}
			w.snapLSN = lsn
			w.snapshot = append([]byte(nil), payload...)
		case name == snapshotTmpName:
			// A checkpoint died before its rename; the tmp is garbage.
			_ = w.fs.Remove(name)
		default:
			if n, ok := parseSegmentName(name); ok {
				segNums = append(segNums, n)
			}
			// Unknown names (e.g. leftover .trunc temporaries) are ignored;
			// WriteTrunc re-creates its temporary from scratch.
		}
	}
	w.lastLSN = w.snapLSN
	// Every segment is scanned before any is touched. Only the last one
	// can end torn: writeBatch syncs a segment before it rotates, under
	// every sync policy, so a bad frame in a sealed segment is damage to
	// acknowledged records. Open refuses it and removes or rewrites
	// nothing, where cutting the log there would drop every later segment.
	sc := segScanner{fs: w.fs, buf: make([]byte, min(w.opts.SegmentBytes, maxScanChunk))}
	segs := make([]segment, 0, len(segNums))
	torn, lastGood := false, w.snapLSN
	for i, n := range segNums {
		seg, bad, err := sc.scan(segmentName(n))
		if err != nil {
			return fmt.Errorf("wal: read segment %s: %w", seg.name, err)
		}
		if seg.end > 0 {
			lastGood = seg.last
		}
		if bad && i < len(segNums)-1 {
			return fmt.Errorf("wal: sealed segment %s has a bad frame at offset %d, after LSN %d: %w", seg.name, seg.end, lastGood, ErrCorrupt)
		}
		segs, torn, w.segSeq = append(segs, seg), bad, n
	}
	if torn {
		w.stats.TornTails++
	}
	for i, seg := range segs {
		if seg.end == 0 {
			// No good frame: torn at its first, or ended cleanly before it —
			// created and extended, never written.
			if err := w.fs.Remove(seg.name); err != nil {
				return fmt.Errorf("wal: drop empty segment %s: %w", seg.name, err)
			}
			continue
		}
		if torn && i == len(segs)-1 {
			good := make([]byte, seg.end)
			if _, err := w.fs.ReadAt(seg.name, good, 0); err != nil {
				return fmt.Errorf("wal: read segment %s: %w", seg.name, err)
			}
			if err := w.fs.WriteTrunc(seg.name, good); err != nil {
				return fmt.Errorf("wal: truncate torn segment %s: %w", seg.name, err)
			}
		}
		w.lastLSN = max(w.lastLSN, seg.last)
		w.segments = append(w.segments, seg)
	}
	w.writtenLSN = w.lastLSN
	w.durableLSN = w.lastLSN
	w.stats.Segments = len(w.segments)
	w.stats.LastLSN = w.lastLSN
	w.stats.SnapshotLSN = w.snapLSN
	w.stats.DurableLSN = w.durableLSN
	return nil
}

// Snapshot returns the checkpoint payload recovered at Open (or installed
// since), the LSN it covers, and whether one exists.
//
// Concurrency contract: Snapshot is safe while commits, checkpoints and
// cursors run; the returned slice is a private copy the caller owns.
func (w *WAL) Snapshot() ([]byte, uint64, bool) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.snapshot == nil {
		return nil, 0, false
	}
	return append([]byte(nil), w.snapshot...), w.snapLSN, true
}

// Replay calls fn, in LSN order, for every record above the checkpoint
// snapshot — how a store rebuilds its state, at start and (reldb's demoted
// leader) over a log that has been live since process start. It drains the
// pipeline first (Sync), so every record appended before the call is
// delivered; records appended meanwhile may or may not be. A segment the
// cursor cannot read is an error; as a backstop Replay also holds the
// cursor to the durable watermark read at the start: a read that ends
// below it is an error, never a complete, shorter log.
func (w *WAL) Replay(fn func(lsn uint64, payload []byte) error) error {
	if err := w.Sync(); err != nil {
		return err
	}
	w.mu.Lock()
	last, durable := w.snapLSN, w.durableLSN
	w.mu.Unlock()
	cur, err := w.OpenCursor(last)
	if err != nil {
		return err
	}
	for {
		rec, ok, err := cur.Next()
		if err != nil {
			return err
		}
		if !ok {
			break
		}
		if err := fn(rec.LSN, rec.Payload); err != nil {
			return err
		}
		last = rec.LSN
	}
	if last < durable {
		return fmt.Errorf("wal: replay stopped at LSN %d, below the durable watermark %d", last, durable)
	}
	return nil
}

// LastLSN returns the highest LSN appended or recovered (enqueued frames
// count — their LSNs are assigned and final).
func (w *WAL) LastLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.lastLSN
}

// Err returns the sticky write error, if any.
func (w *WAL) Err() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.err
}

// Append writes one record and returns its LSN. Under SyncAlways the
// record is durable when Append returns nil. Concurrent Appends are
// coalesced: the frame may reach disk in a shared batch write under a
// shared fsync.
// seclint:sink
func (w *WAL) Append(payload []byte) (uint64, error) {
	lsn, a, err := w.AppendAsync(payload)
	if err != nil {
		return 0, err
	}
	if err := a.Wait(); err != nil {
		return 0, err
	}
	return lsn, nil
}

// AppendAsync enqueues one record into the commit pipeline and returns
// its LSN immediately; the returned Ack yields the durability verdict.
// The caller may enqueue several frames and wait only on the last: frames
// are written strictly in LSN order, so a nil verdict for a frame implies
// every lower-LSN frame is also on disk. An error here means the frame
// was never enqueued (poisoned or closed log, oversized payload).
// seclint:sink
func (w *WAL) AppendAsync(payload []byte) (uint64, *Ack, error) {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return 0, nil, w.err
	}
	if len(payload) > MaxPayload {
		return 0, nil, fmt.Errorf("wal: payload %d bytes exceeds MaxPayload", len(payload))
	}
	lsn := w.lastLSN + 1
	w.lastLSN = lsn
	if w.qbuf == nil {
		w.qbuf = getEncodeBuf()
	}
	*w.qbuf = EncodeFrame(*w.qbuf, lsn, payload)
	a := &Ack{w: w, lsn: lsn, size: frameSize(len(payload)), enq: time.Now()}
	w.queue = append(w.queue, a)
	w.stats.Appends++
	w.stats.BytesWritten += uint64(a.size)
	w.stats.LastLSN = lsn
	return lsn, a, nil
}

// driveLocked drains the commit queue as the batch leader. Caller holds
// w.mu and has set w.leader; driveLocked returns with the queue empty (or
// failed, if the log poisoned). For each batch it claims io ownership,
// flushes it (flushLocked releases w.mu for the write+fsync, so followers
// keep enqueuing), then delivers the shared verdict to every waiter in the
// batch.
//
// seclint:locked caller holds w.mu (flushLocked releases/reacquires it around the batch I/O)
func (w *WAL) driveLocked() {
	for len(w.queue) > 0 {
		if w.err != nil {
			w.failQueueLocked(w.err)
			return
		}
		for w.ioBusy {
			w.cond.Wait()
		}
		if w.err != nil || len(w.queue) == 0 {
			continue
		}
		// Take the batch: at least one frame, at most MaxBatchBytes. The
		// batch buffer is detached whole — followers enqueuing during the
		// write get a fresh pooled buffer, so nothing aliases the bytes in
		// flight. The waiter list is copied into the leader-owned scratch
		// so the queue's backing array can be reused immediately.
		n, nb := 1, w.queue[0].size
		for n < len(w.queue) && nb+w.queue[n].size <= w.opts.MaxBatchBytes {
			nb += w.queue[n].size
			n++
		}
		bp := w.qbuf
		batch := (*bp)[:nb]
		w.scratch = append(w.scratch[:0], w.queue[:n]...)
		waiters := w.scratch
		if n == len(w.queue) {
			w.qbuf = nil
			w.queue = w.queue[:0]
		} else {
			w.qbuf = getEncodeBuf()
			*w.qbuf = append(*w.qbuf, (*bp)[nb:]...)
			m := copy(w.queue, w.queue[n:])
			w.queue = w.queue[:m]
		}
		w.ioBusy = true
		err := w.flushLocked(batch, waiters[n-1].lsn, w.opts.Policy == SyncAlways)
		w.ioBusy = false
		w.stats.Batches++
		w.stats.BatchFrames += uint64(n)
		w.stats.BatchSizes[batchBucket(n)]++
		if n > w.stats.MaxBatch {
			w.stats.MaxBatch = n
		}
		if err == nil && w.opts.Policy == SyncAlways && n > 1 {
			w.stats.FsyncsSaved += uint64(n - 1)
		}
		now := time.Now()
		for _, a := range waiters {
			a.done = true
			a.err = err
			w.stats.CommitWaitNs[waitBucket(now.Sub(a.enq))]++
		}
		putEncodeBuf(bp)
		w.cond.Broadcast()
	}
}

// failQueueLocked delivers err to every queued waiter and empties the
// queue. Lock held.
//
// seclint:locked caller holds w.mu
func (w *WAL) failQueueLocked(err error) {
	now := time.Now()
	for _, a := range w.queue {
		a.done = true
		a.err = err
		w.stats.CommitWaitNs[waitBucket(now.Sub(a.enq))]++
	}
	w.queue = w.queue[:0]
	if w.qbuf != nil {
		putEncodeBuf(w.qbuf)
		w.qbuf = nil
	}
	w.cond.Broadcast()
}

// ioDelta is what one turn of io ownership did to the file state while
// w.mu was released, for flushLocked to fold back into the guarded fields.
type ioDelta struct {
	dirty             bool   // the active segment holds unsynced bytes
	newSeg            string // the segment created, if any
	end               int    // the active segment's size after the write
	fsyncs, rotations uint64
}

// flushLocked is the one place bytes become durable — a batch, and the bare
// barrier of Sync, Close and the interval flusher (buf empty, sync set)
// alike. With io ownership claimed it releases w.mu for the file work, then
// folds the outcome into the guarded state: last is the highest LSN in the
// file afterwards, the segment index covers the batch, and once no unsynced
// byte is left the durable watermark follows it. A failure poisons the log.
//
// seclint:locked caller holds w.mu and io ownership; w.mu is released around the file work
func (w *WAL) flushLocked(buf []byte, last uint64, sync bool) error {
	d := ioDelta{dirty: w.dirty}
	w.mu.Unlock()
	err := w.writeBatch(buf, sync, &d)
	w.mu.Lock()
	w.dirty = d.dirty
	if d.newSeg != "" {
		// A batch never spans segments: a new one starts with it.
		w.segments = append(w.segments, segment{name: d.newSeg, first: w.writtenLSN + 1, last: w.writtenLSN})
		w.stats.Segments = len(w.segments)
	}
	w.stats.Fsyncs += d.fsyncs
	w.stats.Rotations += d.rotations
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return err
	}
	if len(buf) > 0 {
		s := &w.segments[len(w.segments)-1]
		s.last, s.end = last, d.end
	}
	w.writtenLSN = last
	if !d.dirty {
		w.advanceDurableLocked(last)
	}
	return nil
}

// writeBatch appends buf — one coalesced batch of frames, or nothing — to
// the active segment, rotating first when it would overflow, and fsyncs
// afterwards when sync is set. It runs with io ownership but without w.mu:
// it touches only io-owned fields and reports what it did through d.
func (w *WAL) writeBatch(buf []byte, sync bool, d *ioDelta) error {
	if len(buf) > 0 {
		if w.active != nil && w.activeSize > 0 && w.activeSize+len(buf) > w.opts.SegmentBytes {
			// A sealed segment is never fsynced again.
			if err := w.syncIO(d); err != nil {
				return err
			}
			if err := w.active.Close(); err != nil {
				return fmt.Errorf("wal: rotate close: %w", err)
			}
			w.active = nil
			d.rotations++
		}
		if w.active == nil {
			w.segSeq++
			name := segmentName(w.segSeq)
			f, err := w.fs.Create(name)
			if err != nil {
				return fmt.Errorf("wal: create segment %s: %w", name, err)
			}
			// Extend the segment to its full length before the first write,
			// so no later fsync has a new file size to commit — only data.
			// The zeros are a hole, not written; Open's scan reads the first
			// all-zero header as the segment's end.
			if err := f.Truncate(int64(w.opts.SegmentBytes)); err != nil {
				f.Close()
				return fmt.Errorf("wal: extend segment %s: %w", name, err)
			}
			w.active, w.activeSize, d.newSeg = f, 0, name
		}
		if _, err := w.active.Write(buf); err != nil {
			return fmt.Errorf("wal: append: %w", err)
		}
		w.activeSize += len(buf)
		d.dirty, d.end = true, w.activeSize
	}
	if sync {
		return w.syncIO(d)
	}
	return nil
}

// syncIO fsyncs the active segment if it holds unsynced bytes. io ownership,
// no w.mu.
func (w *WAL) syncIO(d *ioDelta) error {
	if w.active == nil || !d.dirty {
		return nil
	}
	if err := w.active.Sync(); err != nil {
		return fmt.Errorf("wal: fsync: %w", err)
	}
	d.dirty = false
	d.fsyncs++
	return nil
}

// quiesceLocked drains the commit pipeline and claims io ownership. On
// return (lock held) the queue is empty, no leader is active, and the
// caller owns the file until releaseIOLocked. Every LSN assigned so far
// has been written (or the log is poisoned); LSNs assigned afterwards
// cannot reach the file until the caller releases ownership.
//
// seclint:locked caller holds w.mu
func (w *WAL) quiesceLocked() {
	for {
		if len(w.queue) > 0 && !w.leader {
			w.leader = true
			w.driveLocked()
			w.leader = false
			w.cond.Broadcast()
			continue
		}
		if len(w.queue) == 0 && !w.leader && !w.ioBusy && !w.checkpointing {
			w.ioBusy = true
			return
		}
		w.cond.Wait()
	}
}

// seclint:locked caller holds w.mu
func (w *WAL) releaseIOLocked() {
	w.ioBusy = false
	w.cond.Broadcast()
}

// Sync drains the pipeline and fsyncs the active segment regardless of
// policy.
func (w *WAL) Sync() error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.quiesceLocked()
	defer w.releaseIOLocked()
	if w.err != nil {
		return w.err
	}
	return w.flushLocked(nil, w.writtenLSN, true)
}

// CheckpointAt installs snapshot as the new recovery base covering every
// record with LSN <= upTo, WITHOUT quiescing the commit pipeline: appends,
// batches and fsyncs keep running while the snapshot streams out. The store
// above pins a consistent in-memory version, keeps committing, and fences
// the log here at the version's own LSN — every record is one complete
// mutation, so nothing above upTo needs a record below it; a store that
// checkpoints under its own write lock, as the log's only appender, passes
// LastLSN.
//
// The protocol is crash-safe at every step: the snapshot is written to a
// temporary file, fsynced, and renamed into place (the atomic commit
// point); segments are deleted only afterwards, and a crash in between
// merely leaves stale segments whose covered records are skipped on open.
// Only sealed segments whose frames all lie at or below upTo are deleted —
// never the last one, which the batch pipeline may still be appending to,
// even when upTo covers it: after a checkpoint the log occupies at most the
// snapshot plus one segment (Options.SegmentBytes), not the snapshot alone.
// A checkpoint at or below the current snapshot LSN is a no-op. Because the
// fsynced snapshot itself makes every record at or below upTo recoverable,
// the durable watermark advances to upTo on success.
// seclint:sink
func (w *WAL) CheckpointAt(snapshot []byte, upTo uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if len(snapshot) > MaxPayload {
		return fmt.Errorf("wal: snapshot %d bytes exceeds MaxPayload", len(snapshot))
	}
	// Claim the single checkpoint slot, behind other checkpoints and any
	// quiesce-based file operation holding io ownership right now; batch
	// leaders that claim ioBusy after checkpointing is set run concurrently.
	for w.checkpointing || w.ioBusy {
		if w.err != nil {
			return w.err
		}
		w.cond.Wait()
	}
	if w.err != nil {
		return w.err
	}
	if upTo <= w.snapLSN {
		return nil
	}
	if upTo > w.lastLSN {
		return fmt.Errorf("wal: checkpoint at %d beyond last LSN %d", upTo, w.lastLSN)
	}
	w.checkpointing = true
	// The covered segments: the leading sealed ones whose frames all lie at
	// or below upTo (frames are in LSN order across segments).
	covered := slices.Clone(w.segments[:min(segmentOf(w.segments, upTo+1), max(len(w.segments)-1, 0))])
	w.mu.Unlock()
	written, err := w.checkpointIO(snapshot, upTo, covered)
	w.mu.Lock()
	w.checkpointing = false
	w.cond.Broadcast()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return w.err
	}
	w.snapLSN = upTo
	w.snapshot = append([]byte(nil), snapshot...)
	// The removed segments are a prefix of the index: covered was one,
	// rotation only appends, and everything that rewrites the index waits
	// for the checkpointing claim.
	w.segments = w.segments[len(covered):]
	w.advanceDurableLocked(upTo)
	w.stats.Checkpoints++
	w.stats.Segments = len(w.segments)
	w.stats.SnapshotLSN = upTo
	w.stats.BytesWritten += uint64(written)
	return nil
}

// writeSnapshot makes the frame (lsn, snapshot) the recovery base: tmp
// write, fsync, close, atomic rename — the commit point of CheckpointAt and
// InstallSnapshot alike. It touches only the two snapshot files, which the
// checkpointing claim (or a quiesce, which waits for it) keeps to one writer.
func (w *WAL) writeSnapshot(snapshot []byte, lsn uint64) (written int, err error) {
	f, err := w.fs.Create(snapshotTmpName)
	if err != nil {
		return 0, fmt.Errorf("wal: snapshot create: %w", err)
	}
	bp := getEncodeBuf()
	*bp = EncodeFrame(*bp, lsn, snapshot)
	buf := *bp
	defer putEncodeBuf(bp)
	if _, err := f.Write(buf); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: snapshot write: %w", err)
	}
	if err := f.Sync(); err != nil {
		f.Close()
		return 0, fmt.Errorf("wal: snapshot fsync: %w", err)
	}
	if err := f.Close(); err != nil {
		return 0, fmt.Errorf("wal: snapshot close: %w", err)
	}
	if err := w.fs.Rename(snapshotTmpName, snapshotName); err != nil {
		return 0, fmt.Errorf("wal: snapshot rename: %w", err)
	}
	return len(buf), nil
}

// checkpointIO performs CheckpointAt's file work: the snapshot, then
// deletion of the covered segments, which it does not read. It runs WITHOUT
// io ownership — concurrent batch leaders write the active segment while
// this streams — touching only the snapshot files and sealed segments.
func (w *WAL) checkpointIO(snapshot []byte, upTo uint64, covered []segment) (int, error) {
	written, err := w.writeSnapshot(snapshot, upTo)
	if err != nil {
		return 0, err
	}
	// Committed. Deletions below are cleanup; a failure poisons the log but
	// cannot lose the checkpoint.
	for _, s := range covered {
		if err := w.fs.Remove(s.name); err != nil {
			return written, fmt.Errorf("wal: checkpoint drop segment %s: %w", s.name, err)
		}
	}
	return written, nil
}

// advanceDurableLocked raises the durable watermark and pokes the
// registered watchers. Lock held.
//
// seclint:locked caller holds w.mu
func (w *WAL) advanceDurableLocked(lsn uint64) {
	if lsn <= w.durableLSN {
		return
	}
	w.durableLSN = lsn
	w.stats.DurableLSN = lsn
	for _, ch := range w.watchers {
		select {
		case ch <- struct{}{}:
		default:
		}
	}
}

// DurableLSN returns the highest LSN covered by a completed durability
// barrier: under SyncAlways it tracks every acknowledged batch; under the
// lazy policies it advances on explicit Sync, the interval flush and
// CheckpointAt. Cursors and Replay are bounded by it.
func (w *WAL) DurableLSN() uint64 {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.durableLSN
}

// Watch registers and returns a 1-buffered channel that receives a (
// coalesced) signal whenever the durable watermark advances — the wake-up
// a replication leader blocks on between batches. Release it with Unwatch.
func (w *WAL) Watch() chan struct{} {
	ch := make(chan struct{}, 1)
	w.mu.Lock()
	w.watchers = append(w.watchers, ch)
	w.mu.Unlock()
	return ch
}

// Unwatch removes a channel registered by Watch.
func (w *WAL) Unwatch(ch chan struct{}) {
	w.mu.Lock()
	defer w.mu.Unlock()
	for i, c := range w.watchers {
		if c == ch {
			w.watchers = append(w.watchers[:i], w.watchers[i+1:]...)
			return
		}
	}
}

// TruncateTo discards every record with LSN greater than lsn — the rejoin
// primitive of replication: a follower whose tail outruns the new leader's
// history (the old leader shipped records that never reached a quorum)
// cuts back to the leader's watermark before streaming resumes. It refuses
// to cut below the checkpoint snapshot (use InstallSnapshot for a full
// resync). A no-op when lsn >= LastLSN.
func (w *WAL) TruncateTo(lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	w.quiesceLocked()
	defer w.releaseIOLocked()
	if w.err != nil {
		return w.err
	}
	if lsn >= w.lastLSN {
		return nil
	}
	if lsn < w.snapLSN {
		return fmt.Errorf("wal: truncate to %d below snapshot %d (full resync required)", lsn, w.snapLSN)
	}
	// The segments holding a record above lsn: the first of them may
	// straddle it, the rest lie wholly above.
	i := segmentOf(w.segments, lsn+1)
	above := slices.Clone(w.segments[i:])
	w.mu.Unlock()
	cut, err := w.truncateIO(lsn, above)
	w.mu.Lock()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return w.err
	}
	w.segments = append(w.segments[:i], cut...)
	w.lastLSN = lsn
	w.writtenLSN = lsn
	if w.durableLSN > lsn {
		w.durableLSN = lsn
	}
	w.dirty = false
	w.rewinds++
	w.stats.LastLSN = lsn
	w.stats.DurableLSN = w.durableLSN
	w.stats.Segments = len(w.segments)
	return nil
}

// truncateIO rewrites the segment files above — the index entries holding
// a record above lsn — so none of those records survives: a segment that
// starts above lsn is removed unread, and the one that straddles lsn is
// read up to its end and cut after lsn's frame. It returns the straddling
// segment's new entry, if any. Runs with io ownership, without w.mu.
func (w *WAL) truncateIO(lsn uint64, above []segment) ([]segment, error) {
	if w.active != nil {
		if err := w.active.Close(); err != nil {
			return nil, fmt.Errorf("wal: truncate close: %w", err)
		}
		w.active = nil
		w.activeSize = 0
	}
	var cut []segment
	for _, s := range above {
		if s.first > lsn {
			if err := w.fs.Remove(s.name); err != nil {
				return nil, fmt.Errorf("wal: truncate drop %s: %w", s.name, err)
			}
			continue
		}
		data := make([]byte, s.end)
		if _, err := w.fs.ReadAt(s.name, data, 0); err != nil {
			return nil, fmt.Errorf("wal: truncate read %s: %w", s.name, err)
		}
		kept := segment{name: s.name, first: s.first}
		for {
			frameLSN, _, rest, err := DecodeFrame(data[kept.end:])
			if err != nil {
				return nil, fmt.Errorf("wal: truncate read %s: %w", s.name, err)
			}
			if frameLSN > lsn {
				break
			}
			kept.last, kept.end = frameLSN, len(data)-len(rest)
		}
		if err := w.fs.WriteTrunc(s.name, data[:kept.end]); err != nil {
			return nil, fmt.Errorf("wal: truncate %s: %w", s.name, err)
		}
		cut = append(cut, kept)
	}
	return cut, nil
}

// InstallSnapshot replaces the log's entire history with the given
// snapshot covering lsn: the full-resync primitive a follower uses when
// its history diverged from the leader's beyond repair, or fell behind the
// leader's checkpoint. Afterwards LastLSN == SnapshotLSN == lsn and the
// next Append is assigned lsn+1.
func (w *WAL) InstallSnapshot(snapshot []byte, lsn uint64) error {
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err != nil {
		return w.err
	}
	if len(snapshot) > MaxPayload {
		return fmt.Errorf("wal: snapshot %d bytes exceeds MaxPayload", len(snapshot))
	}
	w.quiesceLocked()
	defer w.releaseIOLocked()
	if w.err != nil {
		return w.err
	}
	segs := slices.Clone(w.segments)
	w.mu.Unlock()
	written, err := w.installIO(snapshot, lsn, segs)
	w.mu.Lock()
	if err != nil {
		if w.err == nil {
			w.err = err
		}
		return w.err
	}
	w.snapLSN = lsn
	w.snapshot = append([]byte(nil), snapshot...)
	w.lastLSN = lsn
	w.writtenLSN = lsn
	w.dirty = false
	w.segments = nil
	w.rewinds++
	if lsn > w.durableLSN {
		w.advanceDurableLocked(lsn)
	} else {
		// A resync may rewind the watermark; no watcher poke needed.
		w.durableLSN = lsn
	}
	w.stats.Checkpoints++
	w.stats.Segments = 0
	w.stats.LastLSN = lsn
	w.stats.SnapshotLSN = lsn
	w.stats.DurableLSN = lsn
	w.stats.BytesWritten += uint64(written)
	return nil
}

// installIO performs InstallSnapshot's file work: the snapshot, then the
// active file is closed and every segment dropped. Runs with io ownership,
// without w.mu (segs is the caller's copy of the mu-guarded list). A failure
// after the snapshot's rename poisons the log but cannot lose the snapshot.
func (w *WAL) installIO(snapshot []byte, lsn uint64, segs []segment) (int, error) {
	written, err := w.writeSnapshot(snapshot, lsn)
	if err != nil {
		return 0, err
	}
	if w.active != nil {
		if err := w.active.Close(); err != nil {
			return 0, fmt.Errorf("wal: install close segment: %w", err)
		}
		w.active = nil
	}
	for _, s := range segs {
		if err := w.fs.Remove(s.name); err != nil {
			return 0, fmt.Errorf("wal: install drop segment %s: %w", s.name, err)
		}
	}
	w.activeSize = 0
	return written, nil
}

// Stats snapshots the counters.
func (w *WAL) Stats() Stats {
	w.mu.Lock()
	defer w.mu.Unlock()
	return w.stats
}

// Close drains the pipeline, flushes and closes the log. Further use
// returns ErrClosed.
func (w *WAL) Close() error {
	w.mu.Lock()
	stop, done := w.stop, w.done
	w.stop, w.done = nil, nil
	w.mu.Unlock()
	if stop != nil {
		close(stop)
		<-done
	}
	w.mu.Lock()
	defer w.mu.Unlock()
	if w.err == ErrClosed {
		return nil
	}
	w.quiesceLocked()
	var firstErr error
	if w.err == nil {
		firstErr = w.flushLocked(nil, w.writtenLSN, true)
	}
	if w.active != nil {
		w.mu.Unlock()
		err := w.active.Close()
		w.mu.Lock()
		if err != nil && firstErr == nil {
			firstErr = err
		}
		w.active = nil
	}
	w.err = ErrClosed
	w.releaseIOLocked()
	return firstErr
}

// flushLoop is the SyncInterval background fsync: each tick it drains any
// unled queue (so async appends never outlive the interval's loss bound)
// and syncs the active segment.
func (w *WAL) flushLoop(stop, done chan struct{}) {
	defer close(done)
	t := time.NewTicker(w.opts.Interval)
	defer t.Stop()
	for {
		select {
		case <-stop:
			return
		case <-t.C:
			w.mu.Lock()
			if w.err == nil && len(w.queue) > 0 && !w.leader {
				w.leader = true
				w.driveLocked()
				w.leader = false
				w.cond.Broadcast()
			}
			if w.err == nil && !w.leader && !w.ioBusy && w.dirty {
				w.ioBusy = true
				_ = w.flushLocked(nil, w.writtenLSN, true) // a failure sticks in w.err
				w.releaseIOLocked()
			}
			w.mu.Unlock()
		}
	}
}
