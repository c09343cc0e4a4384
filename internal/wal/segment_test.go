package wal_test

import (
	"bytes"
	"errors"
	"fmt"
	"os"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// Segments start at their full length: the log extends each new segment to
// Options.SegmentBytes before its first write, so a commit's fsync never
// changes the file size, and Open's scan takes the first all-zero frame
// header as the segment's clean end. These tests run on real files.

// dirSegments lists the segment files in dir with their sizes.
func dirSegments(t *testing.T, dir string) map[string]int64 {
	t.Helper()
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	out := make(map[string]int64)
	for _, e := range ents {
		if !strings.HasPrefix(e.Name(), "wal-") {
			continue
		}
		info, err := e.Info()
		if err != nil {
			t.Fatal(err)
		}
		out[e.Name()] = info.Size()
	}
	return out
}

func openDir(t *testing.T, dir string, segBytes int) *wal.WAL {
	t.Helper()
	return openTestWAL(t, wal.DirFS(dir), wal.Options{SegmentBytes: segBytes})
}

func closeWAL(t *testing.T, w *wal.WAL) {
	t.Helper()
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
}

// assertRecords replays w and wants exactly LSNs 1..n carrying payload(i).
func assertRecords(t *testing.T, w *wal.WAL, n int, payload func(int) string) {
	t.Helper()
	got := replayAll(t, w)
	if len(got) != n {
		t.Fatalf("Replay delivered %d records, want %d", len(got), n)
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || string(r.Payload) != payload(i) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.LSN, r.Payload, i+1, payload(i))
		}
	}
}

func TestSegmentExtendedAtCreate(t *testing.T) {
	dir := t.TempDir()
	const segBytes = 64 << 10
	w := openDir(t, dir, segBytes)
	mustAppend(t, w, "first")
	segs := dirSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("segments after one append = %v, want one", segs)
	}
	for name, size := range segs {
		if size != segBytes {
			t.Fatalf("%s is %d bytes after its first append, want SegmentBytes %d", name, size, segBytes)
		}
	}
	// A frame larger than a segment rotates into a segment of its own and
	// grows it past SegmentBytes.
	big := bytes.Repeat([]byte("b"), segBytes+100)
	if _, err := w.Append(big); err != nil {
		t.Fatal(err)
	}
	closeWAL(t, w)
	segs = dirSegments(t, dir)
	if size := segs["wal-00000002.log"]; size != int64(16+len(big)) {
		t.Fatalf("oversized frame's segment is %d bytes, want %d (segments %v)", size, 16+len(big), segs)
	}
}

func TestCleanCloseReopensClean(t *testing.T) {
	dir := t.TempDir()
	payload := func(i int) string { return fmt.Sprintf("clean-%03d", i) }
	w := openDir(t, dir, 0)
	for i := 0; i < 50; i++ {
		mustAppend(t, w, payload(i))
	}
	before := replayAll(t, w)
	closeWAL(t, w)

	w2 := openDir(t, dir, 0)
	defer w2.Close()
	if st := w2.Stats(); st.TornTails != 0 {
		t.Fatalf("reopening a cleanly closed log counted %d torn tails", st.TornTails)
	}
	ents, err := os.ReadDir(dir)
	if err != nil {
		t.Fatal(err)
	}
	for _, e := range ents {
		if strings.HasSuffix(e.Name(), ".trunc") {
			t.Fatalf("reopening a cleanly closed log rewrote a segment: %s", e.Name())
		}
	}
	after := replayAll(t, w2)
	if len(after) != len(before) {
		t.Fatalf("Replay after reopen delivered %d records, before close %d", len(after), len(before))
	}
	for i := range before {
		if after[i].LSN != before[i].LSN || !bytes.Equal(after[i].Payload, before[i].Payload) {
			t.Fatalf("record %d after reopen = (%d, %q), before close (%d, %q)",
				i, after[i].LSN, after[i].Payload, before[i].LSN, before[i].Payload)
		}
	}
}

// zeroTailedLog builds a log of many small segments, every one of them
// ending in unwritten zeros: two sessions of appends with rotations, closed
// and reopened in between, so the first session's last segment is sealed by
// the reopen rather than by a rotation. It returns the log, open, and the
// number of records.
func zeroTailedLog(t *testing.T, dir string) (*wal.WAL, int) {
	t.Helper()
	const segBytes = 256
	w := openDir(t, dir, segBytes)
	for i := 0; i < 30; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	closeWAL(t, w)
	w = openDir(t, dir, segBytes)
	for i := 30; i < 50; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	closeWAL(t, w)
	w = openDir(t, dir, segBytes)
	if st := w.Stats(); st.TornTails != 0 {
		t.Fatalf("clean reopen counted %d torn tails", st.TornTails)
	}
	return w, 50
}

func tailPayload(i int) string { return fmt.Sprintf("zero-tail-%03d", i) }

func TestZeroTailedSegmentsKeptAcrossReopen(t *testing.T) {
	dir := t.TempDir()
	w, n := zeroTailedLog(t, dir)
	sealed := dirSegments(t, dir)
	if len(sealed) < 5 {
		t.Fatalf("want at least 5 segments, have %v", sealed)
	}
	for name, size := range sealed {
		if size != 256 {
			t.Fatalf("%s is %d bytes, want 256: every segment keeps its zero tail", name, size)
		}
	}
	for i := n; i < n+10; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	closeWAL(t, w)
	w = openDir(t, dir, 256)
	defer w.Close()
	now := dirSegments(t, dir)
	for name := range sealed {
		if _, ok := now[name]; !ok {
			t.Fatalf("sealed segment %s was dropped (segments now %v)", name, now)
		}
	}
	if st := w.Stats(); st.TornTails != 0 {
		t.Fatalf("TornTails = %d after clean reopens", st.TornTails)
	}
	assertRecords(t, w, n+10, tailPayload)
}

func TestCheckpointDropsZeroTailedSegments(t *testing.T) {
	dir := t.TempDir()
	w, n := zeroTailedLog(t, dir)
	defer w.Close()
	mustAppend(t, w, tailPayload(n))
	last := dirSegments(t, dir)
	if err := w.CheckpointAt([]byte("state"), w.LastLSN()); err != nil {
		t.Fatalf("CheckpointAt: %v", err)
	}
	segs := dirSegments(t, dir)
	if len(segs) != 1 {
		t.Fatalf("after a checkpoint covering every record, segments = %v (before %d), want only the active one", segs, len(last))
	}
	if st := w.Stats(); st.Segments != 1 {
		t.Fatalf("Stats.Segments = %d, want 1", st.Segments)
	}
}

func TestTruncateToKeepsEarlierZeroTailedSegments(t *testing.T) {
	dir := t.TempDir()
	w, n := zeroTailedLog(t, dir)
	defer w.Close()
	before := segmentNames(t, wal.DirFS(dir))
	// Eight records fill a segment: LSN 45 is in the next-to-last one. Every
	// segment before it holds only records below the cut and stays whole.
	cut := uint64(n - 5)
	if err := w.TruncateTo(cut); err != nil {
		t.Fatalf("TruncateTo: %v", err)
	}
	after := dirSegments(t, dir)
	if len(after) != len(before)-1 {
		t.Fatalf("TruncateTo(%d) left segments %v of %v, want all but the last", cut, after, before)
	}
	for _, name := range before[:len(before)-2] {
		if after[name] != 256 {
			t.Fatalf("TruncateTo(%d) rewrote or dropped %s, which holds only records below the cut (segments now %v)", cut, name, after)
		}
	}
	assertRecords(t, w, int(cut), tailPayload)
	mustAppend(t, w, "after-truncate")
	if got := replayAll(t, w); len(got) != int(cut)+1 || got[cut].LSN != cut+1 {
		t.Fatalf("after truncate and append: %d records", len(got))
	}
}

// TestCursorStreamsAcrossRotationOnDisk: a cursor follows a writer across
// rotations on real files, where each batch write lands over the segment's
// zeros while the cursor may be reading the same segment. Run under -race.
func TestCursorStreamsAcrossRotationOnDisk(t *testing.T) {
	dir := t.TempDir()
	w := openDir(t, dir, 512)
	defer w.Close()
	const n = 400
	done := make(chan error, 1)
	go func() {
		for i := 0; i < n; i++ {
			if _, err := w.Append([]byte(tailPayload(i))); err != nil {
				done <- err
				return
			}
		}
		done <- nil
	}()
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	watch := w.Watch()
	defer w.Unwatch(watch)
	deadline := time.After(20 * time.Second)
	for got := 0; got < n; {
		rec, ok, err := c.Next()
		if err != nil {
			t.Fatalf("cursor after %d records: %v", got, err)
		}
		if ok {
			if rec.LSN != uint64(got+1) || string(rec.Payload) != tailPayload(got) {
				t.Fatalf("record %d = (%d, %q)", got, rec.LSN, rec.Payload)
			}
			got++
			continue
		}
		select {
		case <-watch:
		case <-deadline:
			t.Fatalf("timed out with %d/%d records", got, n)
		case <-time.After(10 * time.Millisecond):
		}
	}
	if err := <-done; err != nil {
		t.Fatalf("writer: %v", err)
	}
	if st := w.Stats(); st.Rotations < 10 {
		t.Fatalf("only %d rotations: the stream never crossed many segments", st.Rotations)
	}
}

// TestCursorRereadsStaleCacheOverZeroTail: a cursor caches a segment, hands
// out its one record, and the writer then fills the segment and rotates.
// The cached copy still shows zeros where the next record now is; the
// cursor must read the segment again, not skip to the next one.
func TestCursorRereadsStaleCacheOverZeroTail(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 256})
	defer w.Close()
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	mustAppend(t, w, tailPayload(0))
	if rec, ok, err := c.Next(); err != nil || !ok || rec.LSN != 1 {
		t.Fatalf("first Next = (%d, %v, %v)", rec.LSN, ok, err)
	}
	for i := 1; i < 20; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	if w.Stats().Rotations == 0 {
		t.Fatal("no rotation")
	}
	got := append([]wal.Record{{LSN: 1, Payload: []byte(tailPayload(0))}}, drainCursor(t, c)...)
	if len(got) != 20 {
		t.Fatalf("cursor delivered %d records, want 20", len(got))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || string(r.Payload) != tailPayload(i) {
			t.Fatalf("record %d = (%d, %q)", i, r.LSN, r.Payload)
		}
	}
}

// TestCursorReportsCorruptDurableFrame: a bad frame at or below the
// durable watermark the cursor's copy was read at is corruption, not a
// frame still being written.
func TestCursorReportsCorruptDurableFrame(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{})
	defer w.Close()
	for i := 0; i < 5; i++ {
		mustAppend(t, w, tailPayload(i))
	}
	seg := segmentNames(t, fs)[0]
	data, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	data[writtenLen(t, data)-3] ^= 0x01 // inside record 5's payload
	if err := fs.WriteTrunc(seg, data); err != nil {
		t.Fatal(err)
	}
	c, err := w.OpenCursor(0)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 4; i++ {
		if _, ok, err := c.Next(); err != nil || !ok {
			t.Fatalf("record %d: ok=%v err=%v", i+1, ok, err)
		}
	}
	if _, _, err := c.Next(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("Next over a corrupt durable frame = %v, want ErrCorrupt", err)
	}
}

// TestCrashZeroTail is the crash matrix of the extended layout. One
// workload — appends across rotations, close, reopen, more appends — is
// killed at three kinds of write-stream points:
//
//   - extend: right after a new segment was created and extended, before
//     its first byte: the file is found full length and all zeros, or
//     (its size never synced) empty;
//   - in-frame: at every byte of a frame written over a segment's zeros;
//   - after-reopen: at every byte written after a reopen left the first
//     session's last segment sealed with its zero tail.
//
// Both post-crash images must open to an exact prefix of the appends that
// holds every acknowledged one, and keep going.
func TestCrashZeroTail(t *testing.T) {
	const segBytes = 192
	const first, second = 14, 10
	payload := func(i int) string { return fmt.Sprintf("rec-%02d-%s", i, strings.Repeat("z", i%7*5)) }
	open := func(fs wal.FS) (*wal.WAL, error) {
		return wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: segBytes})
	}
	// workload returns how many appends were acknowledged before the
	// filesystem died (all of them on an unarmed one).
	workload := func(fs *faultinject.MemFS) int {
		w, err := open(fs)
		if err != nil {
			return 0
		}
		for i := 0; i < first; i++ {
			if _, err := w.Append([]byte(payload(i))); err != nil {
				return i
			}
		}
		if err := w.Close(); err != nil {
			return first
		}
		if w, err = open(fs); err != nil {
			return first
		}
		for i := first; i < first+second; i++ {
			if _, err := w.Append([]byte(payload(i))); err != nil {
				return i
			}
		}
		w.Close()
		return first + second
	}

	// Dry run: where in the write stream each segment's first write starts
	// and each frame ends (appends are the only writes).
	dry := faultinject.NewMemFS()
	if n := workload(dry); n != first+second {
		t.Fatalf("dry run acknowledged %d appends", n)
	}
	var starts, ends []int64
	var off int64
	for _, name := range segmentNames(t, dry) {
		data, err := dry.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		base := off
		starts = append(starts, off)
		for _, end := range frameEnds(t, data) {
			off = base + int64(end)
			ends = append(ends, off)
		}
	}
	if len(ends) != first+second || off != dry.BytesWritten() {
		t.Fatalf("dry run: %d frames over %d bytes, write stream %d bytes", len(ends), off, dry.BytesWritten())
	}
	reopenAt := ends[first-1]

	stride := int64(1)
	if testing.Short() {
		stride = 5
	}
	extend := starts
	var inFrame, afterReopen []int64
	for cut := int64(0); cut < reopenAt; cut += stride {
		inFrame = append(inFrame, cut)
	}
	for cut := reopenAt; cut <= off; cut += stride {
		afterReopen = append(afterReopen, cut)
	}

	check := func(t *testing.T, cut int64, emptySegment bool) {
		fs := faultinject.NewMemFS()
		fs.LimitWriteBytes(cut)
		acked := workload(fs)
		for _, drop := range []bool{false, true} {
			desc := fmt.Sprintf("cut=%d drop=%v", cut, drop)
			img := fs.AfterCrash(drop)
			if emptySegment {
				// The newest segment holds no frame: full length and all
				// zeros, or empty when the extend never reached the disk.
				segs := segmentNames(t, img)
				data, err := img.ReadFile(segs[len(segs)-1])
				if err != nil {
					t.Fatal(err)
				}
				wantLen := segBytes
				if drop {
					wantLen = 0
				}
				if len(data) != wantLen || !bytes.Equal(data, make([]byte, len(data))) {
					t.Fatalf("%s: newest segment is %d bytes, want %d zeros", desc, len(data), wantLen)
				}
			}
			w, err := open(img)
			if err != nil {
				t.Fatalf("%s: reopen: %v", desc, err)
			}
			if emptySegment && w.Stats().TornTails != 0 {
				t.Fatalf("%s: an unwritten segment counted as a torn tail", desc)
			}
			got := replayAll(t, w)
			if len(got) < acked {
				t.Fatalf("%s: recovered %d records, %d were acknowledged", desc, len(got), acked)
			}
			for i, r := range got {
				if r.LSN != uint64(i+1) || string(r.Payload) != payload(i) {
					t.Fatalf("%s: record %d = (%d, %q), not a prefix of the appends", desc, i, r.LSN, r.Payload)
				}
			}
			lsn := mustAppend(t, w, "after-recovery")
			if lsn != uint64(len(got)+1) {
				t.Fatalf("%s: first append after recovery got LSN %d, want %d", desc, lsn, len(got)+1)
			}
			closeWAL(t, w)
			w2, err := open(img)
			if err != nil {
				t.Fatalf("%s: second reopen: %v", desc, err)
			}
			if st := w2.Stats(); st.TornTails != 0 || st.LastLSN != lsn {
				t.Fatalf("%s: second reopen: TornTails %d, LastLSN %d, want 0 and %d", desc, st.TornTails, st.LastLSN, lsn)
			}
			closeWAL(t, w2)
		}
	}
	t.Run("extend", func(t *testing.T) {
		for _, cut := range extend {
			check(t, cut, true)
		}
	})
	t.Run("in-frame", func(t *testing.T) {
		for _, cut := range inFrame {
			check(t, cut, false)
		}
	})
	t.Run("after-reopen", func(t *testing.T) {
		for _, cut := range afterReopen {
			check(t, cut, false)
		}
	})
	t.Logf("crash points: %d extend, %d in-frame, %d after-reopen, each × 2 images", len(extend), len(inFrame), len(afterReopen))
}
