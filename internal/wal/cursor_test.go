package wal_test

import (
	"errors"
	"fmt"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openTestWAL(t *testing.T, fs wal.FS, opts wal.Options) *wal.WAL {
	t.Helper()
	opts.FS = fs
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func mustAppend(t *testing.T, w *wal.WAL, payload string) uint64 {
	t.Helper()
	lsn, err := w.Append([]byte(payload))
	if err != nil {
		t.Fatalf("Append(%q): %v", payload, err)
	}
	return lsn
}

func drainCursor(t *testing.T, c *wal.Cursor) []wal.Record {
	t.Helper()
	var out []wal.Record
	for {
		rec, ok, err := c.Next()
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if !ok {
			return out
		}
		out = append(out, rec)
	}
}

func TestCursorStreamsAppends(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 5; i++ {
		mustAppend(t, w, fmt.Sprintf("rec-%d", i))
	}
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	recs := drainCursor(t, c)
	if len(recs) != 5 {
		t.Fatalf("got %d records, want 5", len(recs))
	}
	for i, r := range recs {
		if r.LSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("rec-%d", i) {
			t.Fatalf("record %d = (%d, %q)", i, r.LSN, r.Payload)
		}
	}
	// Caught up: no record, no error.
	if _, ok, err := c.Next(); ok || err != nil {
		t.Fatalf("caught-up Next = (%v, %v), want (false, nil)", ok, err)
	}
	// New appends become visible after the durability barrier; Watch wakes
	// the consumer.
	watch := w.Watch()
	defer w.Unwatch(watch)
	mustAppend(t, w, "late")
	select {
	case <-watch:
	case <-time.After(2 * time.Second):
		t.Fatal("watch channel never signaled")
	}
	recs = drainCursor(t, c)
	if len(recs) != 1 || string(recs[0].Payload) != "late" {
		t.Fatalf("post-watch records = %v", recs)
	}
}

func TestCursorAnchoredMidStream(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 10; i++ {
		mustAppend(t, w, fmt.Sprintf("r%d", i))
	}
	c, err := w.OpenCursor(7)
	if err != nil {
		t.Fatalf("OpenCursor(7): %v", err)
	}
	recs := drainCursor(t, c)
	if len(recs) != 3 || recs[0].LSN != 8 {
		t.Fatalf("anchored cursor read %v", recs)
	}
}

func TestCursorAcrossRotation(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 64})
	defer w.Close()
	const n = 40
	for i := 0; i < n; i++ {
		mustAppend(t, w, fmt.Sprintf("payload-%02d", i))
	}
	if w.Stats().Segments < 2 {
		t.Fatalf("expected multiple segments, got %d", w.Stats().Segments)
	}
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	recs := drainCursor(t, c)
	if len(recs) != n {
		t.Fatalf("got %d records across rotation, want %d", len(recs), n)
	}
}

// TestCursorConcurrentCommits is the satellite's concurrency contract in
// action: a replication stream reads while commits continue, under the
// race detector.
func TestCursorConcurrentCommits(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 256})
	defer w.Close()
	const n = 300
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(fmt.Sprintf("c-%03d", i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	watch := w.Watch()
	defer w.Unwatch(watch)
	var got []wal.Record
	deadline := time.After(10 * time.Second)
	for len(got) < n {
		rec, ok, err := c.Next()
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if ok {
			got = append(got, rec)
			continue
		}
		select {
		case <-watch:
		case <-deadline:
			t.Fatalf("timed out with %d/%d records", len(got), n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || string(r.Payload) != fmt.Sprintf("c-%03d", i) {
			t.Fatalf("record %d = (%d, %q)", i, r.LSN, r.Payload)
		}
	}
}

func TestCursorCompactedByCheckpoint(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 6; i++ {
		mustAppend(t, w, fmt.Sprintf("r%d", i))
	}
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	if err := w.CheckpointAt([]byte("snap"), w.LastLSN()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if _, _, err := c.Next(); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("Next after checkpoint = %v, want wal.ErrCompacted", err)
	}
	// A fresh cursor below the snapshot is refused outright.
	if _, err := w.OpenCursor(2); !errors.Is(err, wal.ErrCompacted) {
		t.Fatalf("OpenCursor(2) = %v, want wal.ErrCompacted", err)
	}
	// Anchored at the snapshot it streams the post-checkpoint records.
	mustAppend(t, w, "after-cp")
	c2, err := w.OpenCursor(6)
	if err != nil {
		t.Fatalf("OpenCursor(6): %v", err)
	}
	recs := drainCursor(t, c2)
	if len(recs) != 1 || recs[0].LSN != 7 || string(recs[0].Payload) != "after-cp" {
		t.Fatalf("post-checkpoint cursor read %v", recs)
	}
}

func TestTruncateTo(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 80})
	for i := 0; i < 10; i++ {
		mustAppend(t, w, fmt.Sprintf("r%d", i))
	}
	if err := w.TruncateTo(5); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	if got := w.LastLSN(); got != 5 {
		t.Fatalf("LastLSN after truncate = %d, want 5", got)
	}
	if got := w.DurableLSN(); got != 5 {
		t.Fatalf("DurableLSN after truncate = %d, want 5", got)
	}
	// Appends continue from the cut.
	if lsn := mustAppend(t, w, "new-6"); lsn != 6 {
		t.Fatalf("post-truncate append LSN = %d, want 6", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	// Recovery sees exactly the surviving prefix plus the new record.
	w2 := openTestWAL(t, fs, wal.Options{})
	defer w2.Close()
	var got []string
	err := w2.Replay(func(lsn uint64, payload []byte) error {
		got = append(got, fmt.Sprintf("%d:%s", lsn, payload))
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	want := []string{"1:r0", "2:r1", "3:r2", "4:r3", "5:r4", "6:new-6"}
	if len(got) != len(want) {
		t.Fatalf("recovered %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("recovered[%d] = %q, want %q", i, got[i], want[i])
		}
	}
}

func TestTruncateBelowSnapshotRefused(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 5; i++ {
		mustAppend(t, w, "x")
	}
	if err := w.CheckpointAt([]byte("snap"), w.LastLSN()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if err := w.TruncateTo(3); err == nil {
		t.Fatal("TruncateTo below snapshot succeeded, want refusal")
	}
	if err := w.Err(); err != nil {
		t.Fatalf("refused truncate poisoned the log: %v", err)
	}
}

func TestInstallSnapshot(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	for i := 0; i < 4; i++ {
		mustAppend(t, w, "diverged")
	}
	if err := w.InstallSnapshot([]byte("leader-state"), 42); err != nil {
		t.Fatalf("InstallSnapshot: %v", err)
	}
	if got := w.LastLSN(); got != 42 {
		t.Fatalf("LastLSN = %d, want 42", got)
	}
	if lsn := mustAppend(t, w, "streamed-43"); lsn != 43 {
		t.Fatalf("post-install append LSN = %d, want 43", lsn)
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2 := openTestWAL(t, fs, wal.Options{})
	defer w2.Close()
	snap, lsn, ok := w2.Snapshot()
	if !ok || lsn != 42 || string(snap) != "leader-state" {
		t.Fatalf("recovered snapshot = (%q, %d, %v)", snap, lsn, ok)
	}
	n := 0
	if err := w2.Replay(func(lsn uint64, payload []byte) error {
		n++
		if lsn != 43 || string(payload) != "streamed-43" {
			return fmt.Errorf("unexpected record (%d, %q)", lsn, payload)
		}
		return nil
	}); err != nil {
		t.Fatalf("Replay: %v", err)
	}
	if n != 1 {
		t.Fatalf("replayed %d records, want 1", n)
	}
}

// TestCursorSurvivesRewind covers the divergence-repair race: a cursor
// mid-stream when the log truncates and re-appends different content must
// surface the new history, never stale bytes.
func TestCursorSurvivesRewind(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 8; i++ {
		mustAppend(t, w, fmt.Sprintf("old-%d", i))
	}
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	// Read half, then rewind the log under the cursor.
	for i := 0; i < 4; i++ {
		if _, ok, err := c.Next(); !ok || err != nil {
			t.Fatalf("Next %d = (%v, %v)", i, ok, err)
		}
	}
	if err := w.TruncateTo(2); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	mustAppend(t, w, "new-3")
	// The cursor restarts from the snapshot boundary: the LSN going
	// backwards is the history-rewrite signal, and the replayed stream is
	// the new history — never stale bytes.
	recs := drainCursor(t, c)
	want := []string{"1:old-0", "2:old-1", "3:new-3"}
	if len(recs) != len(want) {
		t.Fatalf("post-rewind stream has %d records, want %d", len(recs), len(want))
	}
	for i, r := range recs {
		if got := fmt.Sprintf("%d:%s", r.LSN, r.Payload); got != want[i] {
			t.Fatalf("post-rewind record %d = %q, want %q", i, got, want[i])
		}
	}
}

func TestSnapshotReturnsCopy(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	mustAppend(t, w, "r")
	if err := w.CheckpointAt([]byte("state"), w.LastLSN()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	snap, _, ok := w.Snapshot()
	if !ok {
		t.Fatal("no snapshot")
	}
	snap[0] = 'X'
	again, _, _ := w.Snapshot()
	if string(again) != "state" {
		t.Fatalf("mutating the returned snapshot leaked into the log: %q", again)
	}
}
