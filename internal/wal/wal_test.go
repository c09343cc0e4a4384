package wal_test

import (
	"bytes"
	"fmt"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openMem(t *testing.T, fs wal.FS, policy wal.SyncPolicy) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: policy})
	if err != nil {
		t.Fatalf("Open: %v", err)
	}
	return w
}

func replayAll(t *testing.T, w *wal.WAL) []wal.Record {
	t.Helper()
	var out []wal.Record
	err := w.Replay(func(lsn uint64, payload []byte) error {
		out = append(out, wal.Record{LSN: lsn, Payload: append([]byte(nil), payload...)})
		return nil
	})
	if err != nil {
		t.Fatalf("Replay: %v", err)
	}
	return out
}

func TestAppendReopenReplay(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openMem(t, fs, wal.SyncAlways)
	var want [][]byte
	for i := 0; i < 50; i++ {
		p := []byte(fmt.Sprintf("record-%03d", i))
		want = append(want, p)
		lsn, err := w.Append(p)
		if err != nil {
			t.Fatalf("Append %d: %v", i, err)
		}
		if lsn != uint64(i+1) {
			t.Fatalf("Append %d: lsn = %d, want %d", i, lsn, i+1)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	w2 := openMem(t, fs, wal.SyncAlways)
	got := replayAll(t, w2)
	if len(got) != len(want) {
		t.Fatalf("recovered %d records, want %d", len(got), len(want))
	}
	for i, r := range got {
		if r.LSN != uint64(i+1) || !bytes.Equal(r.Payload, want[i]) {
			t.Fatalf("record %d = (%d, %q), want (%d, %q)", i, r.LSN, r.Payload, i+1, want[i])
		}
	}
	if w2.LastLSN() != 50 {
		t.Fatalf("LastLSN = %d, want 50", w2.LastLSN())
	}
}

func TestTornTailTruncated(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openMem(t, fs, wal.SyncAlways)
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("rec-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	// Corrupt the segment by chopping bytes off its end: every cut inside
	// the last frame must recover exactly the first 4 records.
	names, _ := fs.List()
	var seg string
	for _, n := range names {
		seg = n
	}
	full, err := fs.ReadFile(seg)
	if err != nil {
		t.Fatal(err)
	}
	frame := len(full) / 5
	for cut := len(full) - 1; cut > len(full)-frame; cut-- {
		fsCut := faultinject.NewMemFS()
		if err := fsCut.WriteTrunc(seg, full[:cut]); err != nil {
			t.Fatal(err)
		}
		w2 := openMem(t, fsCut, wal.SyncAlways)
		got := replayAll(t, w2)
		if len(got) != 4 {
			t.Fatalf("cut at %d: recovered %d records, want 4", cut, len(got))
		}
		if w2.Stats().TornTails != 1 {
			t.Fatalf("cut at %d: TornTails = %d, want 1", cut, w2.Stats().TornTails)
		}
		// The truncation is physical: a second open sees a clean log.
		w2.Close()
		w3 := openMem(t, fsCut, wal.SyncAlways)
		if w3.Stats().TornTails != 0 {
			t.Fatalf("cut at %d: tail not physically truncated", cut)
		}
		w3.Close()
	}
}

func TestCorruptFrameTruncates(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openMem(t, fs, wal.SyncAlways)
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("payload-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()
	names, _ := fs.List()
	data, _ := fs.ReadFile(names[0])
	// Flip a bit in the middle frame's payload: records 1 and 2 die, 0
	// survives.
	data[len(data)/2] ^= 0x40
	fs2 := faultinject.NewMemFS()
	fs2.WriteTrunc(names[0], data)
	w2 := openMem(t, fs2, wal.SyncAlways)
	got := replayAll(t, w2)
	if len(got) != 1 {
		t.Fatalf("recovered %d records after mid-log corruption, want 1", len(got))
	}
}

func TestSegmentRotation(t *testing.T) {
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncNever, SegmentBytes: 256})
	if err != nil {
		t.Fatal(err)
	}
	payload := bytes.Repeat([]byte("x"), 100)
	for i := 0; i < 10; i++ {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	st := w.Stats()
	if st.Rotations == 0 {
		t.Fatalf("no rotations after %d bytes with 256-byte segments", 10*len(payload))
	}
	if st.Segments < 2 {
		t.Fatalf("Segments = %d, want >= 2", st.Segments)
	}
	w.Close()
	w2 := openMem(t, fs, wal.SyncNever)
	if got := replayAll(t, w2); len(got) != 10 {
		t.Fatalf("recovered %d records across segments, want 10", len(got))
	}
	w2.Close()
}

func TestCheckpointTruncatesAndRecovers(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openMem(t, fs, wal.SyncAlways)
	for i := 0; i < 10; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("pre-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CheckpointAt([]byte("state@10"), w.LastLSN()); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	if st := w.Stats(); st.Checkpoints != 1 {
		t.Fatalf("post-checkpoint stats = %+v", st)
	}
	for i := 0; i < 3; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("post-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	w.Close()

	w2 := openMem(t, fs, wal.SyncAlways)
	snap, lsn, ok := w2.Snapshot()
	if !ok || string(snap) != "state@10" || lsn != 10 {
		t.Fatalf("Snapshot = (%q, %d, %v), want (state@10, 10, true)", snap, lsn, ok)
	}
	got := replayAll(t, w2)
	if len(got) != 3 || got[0].LSN != 11 {
		t.Fatalf("post-checkpoint tail = %d records starting lsn %d, want 3 from 11", len(got), got[0].LSN)
	}
	if w2.LastLSN() != 13 {
		t.Fatalf("LastLSN = %d, want 13", w2.LastLSN())
	}
	w2.Close()
}

func TestSyncPolicies(t *testing.T) {
	t.Run("always", func(t *testing.T) {
		fs := faultinject.NewMemFS()
		w := openMem(t, fs, wal.SyncAlways)
		if _, err := w.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append([]byte("b")); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 2 {
			t.Fatalf("Fsyncs = %d, want 2", st.Fsyncs)
		}
		w.Close()
	})
	t.Run("never", func(t *testing.T) {
		fs := faultinject.NewMemFS()
		w := openMem(t, fs, wal.SyncNever)
		if _, err := w.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 0 {
			t.Fatalf("Fsyncs = %d, want 0", st.Fsyncs)
		}
		if err := w.Sync(); err != nil {
			t.Fatal(err)
		}
		if st := w.Stats(); st.Fsyncs != 1 {
			t.Fatalf("Fsyncs after explicit Sync = %d, want 1", st.Fsyncs)
		}
		w.Close()
	})
	t.Run("interval", func(t *testing.T) {
		fs := faultinject.NewMemFS()
		w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncInterval, Interval: 5 * time.Millisecond})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := w.Append([]byte("a")); err != nil {
			t.Fatal(err)
		}
		deadline := time.Now().Add(2 * time.Second)
		for w.Stats().Fsyncs == 0 {
			if time.Now().After(deadline) {
				t.Fatal("background flusher never synced")
			}
			time.Sleep(time.Millisecond)
		}
		w.Close()
	})
}

func TestDirFS(t *testing.T) {
	dir := t.TempDir()
	w, err := wal.Open(wal.Options{FS: wal.DirFS(dir), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 5; i++ {
		if _, err := w.Append([]byte(fmt.Sprintf("disk-%d", i))); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.CheckpointAt([]byte("snap"), w.LastLSN()); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Append([]byte("tail")); err != nil {
		t.Fatal(err)
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	w2, err := wal.Open(wal.Options{FS: wal.DirFS(dir), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	snap, _, ok := w2.Snapshot()
	if !ok || string(snap) != "snap" {
		t.Fatalf("Snapshot = (%q, %v)", snap, ok)
	}
	got := replayAll(t, w2)
	if len(got) != 1 || string(got[0].Payload) != "tail" {
		t.Fatalf("tail = %v", got)
	}
	w2.Close()
}

func TestClosedWALRejectsUse(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openMem(t, fs, wal.SyncAlways)
	if _, err := w.Append([]byte("a")); err != nil {
		t.Fatal(err)
	}
	w.Close()
	if _, err := w.Append([]byte("b")); err == nil {
		t.Fatal("Append after Close succeeded")
	}
}

// BenchmarkAppendSyncPolicy measures the fsync-policy cost on the real
// filesystem — the E18 throughput numbers.
func BenchmarkAppendSyncPolicy(b *testing.B) {
	payload := bytes.Repeat([]byte("r"), 128)
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		b.Run(policy.String(), func(b *testing.B) {
			w, err := wal.Open(wal.Options{FS: wal.DirFS(b.TempDir()), Policy: policy})
			if err != nil {
				b.Fatal(err)
			}
			defer w.Close()
			b.SetBytes(int64(len(payload)))
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				if _, err := w.Append(payload); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}
