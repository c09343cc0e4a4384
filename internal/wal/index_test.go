package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"strings"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// The log keeps an index of its segments, and every reader reads only the
// bytes the index lists as frames. These tests pin that as byte counts, not
// times: a reader that went back to reading whole segments — 4 MiB each at
// the default size, zero tail included — fails them.

// countingFS counts the bytes read from each segment, through ReadAt and
// ReadFile alike, and runs beforeRead, if set, ahead of each ReadAt.
type countingFS struct {
	wal.FS
	mu         sync.Mutex
	read       map[string]int
	beforeRead func(name string)
}

func newCountingFS(fs wal.FS) *countingFS { return &countingFS{FS: fs, read: map[string]int{}} }

func (c *countingFS) count(name string, n int) {
	if strings.HasPrefix(name, "wal-") {
		c.mu.Lock()
		c.read[name] += n
		c.mu.Unlock()
	}
}

func (c *countingFS) ReadAt(name string, p []byte, off int64) (int, error) {
	c.mu.Lock()
	hook := c.beforeRead
	c.mu.Unlock()
	if hook != nil {
		hook(name)
	}
	n, err := c.FS.ReadAt(name, p, off)
	c.count(name, n)
	return n, err
}

func (c *countingFS) ReadFile(name string) ([]byte, error) {
	data, err := c.FS.ReadFile(name)
	c.count(name, len(data))
	return data, err
}

// take returns the bytes read per segment since the last take, and resets.
func (c *countingFS) take() map[string]int {
	c.mu.Lock()
	defer c.mu.Unlock()
	out := c.read
	c.read = map[string]int{}
	return out
}

func total(read map[string]int) int {
	n := 0
	for _, b := range read {
		n += b
	}
	return n
}

// framesOf returns how many bytes of each segment in fs hold frames.
func framesOf(t *testing.T, fs wal.FS) map[string]int {
	t.Helper()
	out := map[string]int{}
	for _, name := range segmentNames(t, fs) {
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		out[name] = writtenLen(t, data)
	}
	return out
}

// TestCursorFollowReadsOnlyNewFrames: a cursor following a live log reads
// each new frame once, plus the prefix of the segment it started in.
func TestCursorFollowReadsOnlyNewFrames(t *testing.T) {
	fs := newCountingFS(faultinject.NewMemFS())
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	const before, follow = 50, 500
	payload := func(i int) string { return fmt.Sprintf("follow-%04d", i) }
	frame := 16 + len(payload(0))
	for i := 0; i < before; i++ {
		mustAppend(t, w, payload(i))
	}
	c, err := w.OpenCursor(before)
	if err != nil {
		t.Fatal(err)
	}
	fs.take()
	for i := before; i < before+follow; i++ {
		mustAppend(t, w, payload(i))
		rec, ok, err := c.Next()
		if err != nil || !ok || rec.LSN != uint64(i+1) || string(rec.Payload) != payload(i) {
			t.Fatalf("Next after append %d = (%d, %q, %v, %v)", i+1, rec.LSN, rec.Payload, ok, err)
		}
	}
	if read, bound := total(fs.take()), follow*frame+before*frame; read > bound {
		t.Fatalf("following %d commits read %d segment bytes, want at most %d (%d frames of %d bytes plus the %d-frame prefix)",
			follow, read, bound, follow, frame, before)
	}
}

// TestOpenReadsFramesPlusOneChunk: Open reads each segment's frames and at
// most one 64 KiB chunk of what follows.
func TestOpenReadsFramesPlusOneChunk(t *testing.T) {
	mem := faultinject.NewMemFS()
	w := openTestWAL(t, mem, wal.Options{SegmentBytes: 1 << 20, Policy: wal.SyncNever})
	payload := bytes.Repeat([]byte("o"), 1000)
	for written := 0; written < 2<<20+200<<10; written += len(payload) {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	closeWAL(t, w)
	frames := framesOf(t, mem)
	if len(frames) != 3 {
		t.Fatalf("want 3 segments, have %v", frames)
	}
	fs := newCountingFS(mem)
	w = openTestWAL(t, fs, wal.Options{SegmentBytes: 1 << 20})
	defer w.Close()
	read := fs.take()
	for name, n := range frames {
		if read[name] > n+64<<10 {
			t.Fatalf("Open read %d bytes of %s, whose frames fill %d: want at most one 64 KiB chunk more", read[name], name, n)
		}
	}
}

// segmentedLog returns a log of 8 segments of 8 records each, all
// sealed but the last.
func segmentedLog(t *testing.T) (*wal.WAL, *countingFS) {
	t.Helper()
	fs := newCountingFS(faultinject.NewMemFS())
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 256})
	for i := 0; i < 64; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	if n := len(segmentNames(t, fs)); n != 8 {
		t.Fatalf("want 8 segments, have %d", n)
	}
	fs.take()
	return w, fs
}

// TestCheckpointReadsNoSegment: a checkpoint takes the segments it covers
// from the index and deletes them unread.
func TestCheckpointReadsNoSegment(t *testing.T) {
	w, fs := segmentedLog(t)
	defer w.Close()
	if err := w.CheckpointAt([]byte("state"), 60); err != nil {
		t.Fatal(err)
	}
	if read := fs.take(); len(read) != 0 {
		t.Fatalf("CheckpointAt read segment bytes: %v", read)
	}
	if segs := segmentNames(t, fs); len(segs) != 1 {
		t.Fatalf("after a checkpoint at 60 of 64, segments = %v, want only the last", segs)
	}
}

// TestTruncateReadsOnlyStraddlingSegment: TruncateTo keeps the segments
// below the cut and removes those above it unread; it reads only the one
// that straddles the cut, and only its frames.
func TestTruncateReadsOnlyStraddlingSegment(t *testing.T) {
	w, fs := segmentedLog(t)
	defer w.Close()
	straddling := segmentNames(t, fs)[3] // LSNs 25..32
	frames := framesOf(t, fs.FS)[straddling]
	fs.take()
	if err := w.TruncateTo(28); err != nil {
		t.Fatal(err)
	}
	read := fs.take()
	if len(read) != 1 || read[straddling] == 0 || read[straddling] > frames {
		t.Fatalf("TruncateTo(28) read %v, want only %s's %d frame bytes", read, straddling, frames)
	}
	if segs := segmentNames(t, fs); len(segs) != 4 {
		t.Fatalf("after TruncateTo(28), segments = %v, want the first 4", segs)
	}
	assertRecords(t, w, 28, tailPayload)
}

// TestOpenScanAcrossChunkBoundaries: every payload length is a multiple of
// 256, so every frame header starts with a zero byte, and SegmentBytes —
// below 64 KiB, the scan's chunk size — makes chunks end 1, 2 and 3 bytes
// into a header. Open and Replay return every record: a short zero
// remainder inside the file is not the segment's clean end.
func TestOpenScanAcrossChunkBoundaries(t *testing.T) {
	const name = "wal-00000001.log"
	var seg []byte
	var payloads []string
	for i := 0; i < 12; i++ {
		p := strings.Repeat(string(rune('a'+i)), 256*(1+i%3))
		payloads = append(payloads, p)
		seg = wal.EncodeFrame(seg, uint64(i+1), []byte(p))
	}
	seg = append(seg, make([]byte, 100)...)
	for k := 1; k <= 3; k++ {
		fs := faultinject.NewMemFS()
		if err := fs.WriteTrunc(name, seg); err != nil {
			t.Fatal(err)
		}
		// The first chunk holds the 272-byte first frame and k bytes of
		// the second's header.
		w := openTestWAL(t, fs, wal.Options{SegmentBytes: 16 + 256 + k})
		if st := w.Stats(); st.TornTails != 0 || st.LastLSN != 12 {
			t.Fatalf("chunk ends %d bytes into a header: TornTails %d, LastLSN %d, want 0 and 12", k, st.TornTails, st.LastLSN)
		}
		assertRecords(t, w, 12, func(i int) string { return payloads[i] })
		closeWAL(t, w)
	}
}

// TestCursorCompactedUnderRead: a checkpoint deletes the segment a cursor
// is about to read, between its index lookup and its ReadAt. The cursor
// reports ErrCompacted — not an I/O error, and not "caught up".
func TestCursorCompactedUnderRead(t *testing.T) {
	w, fs := segmentedLog(t)
	defer w.Close()
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	first := segmentNames(t, fs)[0]
	fs.beforeRead = func(name string) {
		fs.beforeRead = nil
		if err := w.CheckpointAt([]byte("state"), 60); err != nil {
			t.Errorf("CheckpointAt: %v", err)
		}
		if _, err := fs.FS.ReadFile(first); err == nil {
			t.Errorf("the checkpoint left %s in place", first)
		}
	}
	if _, ok, err := c.Next(); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("Next over a segment a checkpoint deleted = (%v, %v), want ErrCompacted", ok, err)
	}
}

// TestCursorFollowsUnderCheckpoints: a cursor follows a log that a writer
// keeps appending to and checkpointing, so segments leave the index and
// the disk while the cursor reads them. Run under -race. Every Next yields
// the next record or ErrCompacted, after which the reader resumes at the
// snapshot — never another error, and never a gap.
func TestCursorFollowsUnderCheckpoints(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 256})
	defer w.Close()
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	const n = 400
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			lsn, err := w.Append([]byte(tailPayload(i)))
			if err == nil && lsn%25 == 0 {
				err = w.CheckpointAt([]byte("state"), lsn)
			}
			if err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	watch := w.Watch()
	defer w.Unwatch(watch)
	deadline := time.After(20 * time.Second)
	compactions := 0
	for next := uint64(1); next <= n; {
		rec, ok, err := c.Next()
		switch {
		case errors.Is(err, wal.ErrCompacted):
			// Resume at the snapshot; a checkpoint may land in between.
			for compactions++; ; {
				_, snap, _ := w.Snapshot()
				if c, err = w.OpenCursor(snap); err == nil {
					next = snap + 1
					break
				}
				if !errors.Is(err, wal.ErrCompacted) {
					t.Fatalf("reopen at %d: %v", snap, err)
				}
			}
		case err != nil:
			t.Fatalf("cursor at %d: %v", next, err)
		case ok:
			if rec.LSN != next || string(rec.Payload) != tailPayload(int(next-1)) {
				t.Fatalf("record %d = (%d, %q)", next, rec.LSN, rec.Payload)
			}
			next++
		default:
			select {
			case <-watch:
			case <-deadline:
				t.Fatalf("timed out at %d/%d", next-1, n)
			case <-time.After(time.Millisecond):
			}
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	t.Logf("%d compactions under the cursor", compactions)
}

// BenchmarkCursorFollowDir times Next on a cursor following a live log on
// real files: each iteration appends one 300-byte record under SyncAlways,
// untimed, then times the Next that surfaces it. The untimed fsyncs make
// the default -benchtime run long; pass e.g. -benchtime 2000x.
func BenchmarkCursorFollowDir(b *testing.B) {
	w, err := wal.Open(wal.Options{FS: wal.DirFS(b.TempDir())})
	if err != nil {
		b.Fatal(err)
	}
	defer w.Close()
	c, err := w.OpenCursor(0)
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("f"), 300)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		b.StopTimer()
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
		b.StartTimer()
		if _, ok, err := c.Next(); !ok || err != nil {
			b.Fatalf("Next = (%v, %v)", ok, err)
		}
	}
}

// BenchmarkReopenReplayDir times Open plus Replay of a 100-record log of
// 300-byte records on real files.
func BenchmarkReopenReplayDir(b *testing.B) {
	dir := b.TempDir()
	w, err := wal.Open(wal.Options{FS: wal.DirFS(dir), Policy: wal.SyncNever})
	if err != nil {
		b.Fatal(err)
	}
	payload := bytes.Repeat([]byte("r"), 300)
	for i := 0; i < 100; i++ {
		if _, err := w.Append(payload); err != nil {
			b.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		b.Fatal(err)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		w, err := wal.Open(wal.Options{FS: wal.DirFS(dir)})
		if err != nil {
			b.Fatal(err)
		}
		n := 0
		if err := w.Replay(func(uint64, []byte) error { n++; return nil }); err != nil || n != 100 {
			b.Fatalf("Replay = %d records, %v", n, err)
		}
		w.Close()
	}
}
