package wal_test

import (
	"bytes"
	"fmt"
	"math/rand"
	"runtime"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// referenceScan is the read path Replay replaced, kept here as the
// reference: decode the snapshot, then collect every frame above it while
// scanning the segments in order, stopping for good at the first frame that
// does not decode — what Open used to copy into RAM for Replay to serve.
func referenceScan(t *testing.T, fs wal.FS) (snapLSN uint64, recs []wal.Record) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		if name != "snapshot" {
			continue
		}
		data, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		if snapLSN, _, _, err = wal.DecodeFrame(data); err != nil {
			t.Fatalf("reference: snapshot: %v", err)
		}
	}
	for _, name := range names {
		if !strings.HasPrefix(name, "wal-") || !strings.HasSuffix(name, ".log") {
			continue
		}
		rest, err := fs.ReadFile(name)
		if err != nil {
			t.Fatal(err)
		}
		for len(rest) > 0 {
			lsn, payload, next, err := wal.DecodeFrame(rest)
			if err != nil {
				return snapLSN, recs
			}
			if lsn > snapLSN {
				recs = append(recs, wal.Record{LSN: lsn, Payload: append([]byte(nil), payload...)})
			}
			rest = next
		}
	}
	return snapLSN, recs
}

func segmentNames(t *testing.T, fs wal.FS) []string {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	var segs []string
	for _, name := range names {
		if strings.HasPrefix(name, "wal-") {
			segs = append(segs, name)
		}
	}
	return segs
}

func assertReplayEquals(t *testing.T, w *wal.WAL, want []wal.Record, desc string) {
	t.Helper()
	got := replayAll(t, w)
	if len(got) != len(want) {
		t.Fatalf("%s: Replay delivered %d records, reference %d", desc, len(got), len(want))
	}
	for i := range want {
		if got[i].LSN != want[i].LSN || !bytes.Equal(got[i].Payload, want[i].Payload) {
			t.Fatalf("%s: record %d = (%d, %q), reference (%d, %q)", desc, i,
				got[i].LSN, got[i].Payload, want[i].LSN, want[i].Payload)
		}
	}
}

// TestReplayMatchesReferenceScan is the differential test for the one read
// path: on seeded logs — rotation at a small SegmentBytes, checkpoints at
// arbitrary fences, and every way a log can be found at start (closed
// cleanly; crashed with and without its unsynced bytes; crashed between a
// checkpoint's rename and its deletions, so stale covered segments remain;
// a torn tail; a corrupt frame) — Replay delivers exactly the (LSN,
// payload) sequence the reference scan collects, under all three sync
// policies, on the live log before the end and on the reopened one after.
func TestReplayMatchesReferenceScan(t *testing.T) {
	endings := []string{"close", "crash-keep", "crash-drop", "crash-mid-checkpoint", "checkpoint-then-crash-drop", "torn", "corrupt"}
	for _, policy := range []wal.SyncPolicy{wal.SyncAlways, wal.SyncInterval, wal.SyncNever} {
		for seed := int64(1); seed <= 12; seed++ {
			for _, ending := range endings {
				desc := fmt.Sprintf("%s/seed=%d/%s", policy, seed, ending)
				rng := rand.New(rand.NewSource(seed))
				opts := wal.Options{Policy: policy, SegmentBytes: 96 + rng.Intn(400), Interval: time.Millisecond}
				fs := faultinject.NewMemFS()
				w := openTestWAL(t, fs, opts)
				for i, n := 0, 20+rng.Intn(60); i < n; i++ {
					payload := make([]byte, rng.Intn(120))
					rng.Read(payload)
					if _, err := w.Append(payload); err != nil {
						t.Fatalf("%s: Append: %v", desc, err)
					}
					// Every third seed never checkpoints before the ending.
					switch op := rng.Intn(12); {
					case op == 0 && seed%3 != 0:
						if err := w.CheckpointAt([]byte(fmt.Sprintf("snap@%d", i)), 1+uint64(rng.Int63n(int64(w.LastLSN())))); err != nil {
							t.Fatalf("%s: CheckpointAt: %v", desc, err)
						}
					case op == 1:
						if err := w.Sync(); err != nil {
							t.Fatalf("%s: Sync: %v", desc, err)
						}
					}
				}
				// Live: Replay drains the pipeline, so every append so far
				// is in the file the reference reads.
				if err := w.Sync(); err != nil {
					t.Fatalf("%s: Sync: %v", desc, err)
				}
				_, want := referenceScan(t, fs.AfterCrash(false))
				assertReplayEquals(t, w, want, desc+" (live)")

				var img *faultinject.MemFS
				switch ending {
				case "close":
					if err := w.Close(); err != nil {
						t.Fatalf("%s: Close: %v", desc, err)
					}
					img = fs.AfterCrash(false)
				case "crash-keep":
					img = fs.AfterCrash(false)
				case "crash-drop":
					img = fs.AfterCrash(true)
				case "crash-mid-checkpoint":
					// Every segment as it was before the checkpoint, plus the
					// snapshot the checkpoint renamed into place.
					img = fs.AfterCrash(false)
					fence := w.LastLSN()
					if snap := w.Stats().SnapshotLSN; fence > snap {
						fence = snap + 1 + uint64(rng.Int63n(int64(fence-snap)))
					}
					if err := w.CheckpointAt([]byte("late"), fence); err != nil {
						t.Fatalf("%s: CheckpointAt: %v", desc, err)
					}
					snap, err := fs.ReadFile("snapshot")
					if err != nil {
						t.Fatal(err)
					}
					if err := img.WriteTrunc("snapshot", snap); err != nil {
						t.Fatal(err)
					}
				case "checkpoint-then-crash-drop":
					// Under the lazy policies the snapshot can outlive frames
					// it covers: its LSN is then above every surviving frame.
					if _, err := w.Append([]byte("unsynced")); err != nil {
						t.Fatal(err)
					}
					if err := w.CheckpointAt([]byte("late"), w.LastLSN()); err != nil {
						t.Fatalf("%s: CheckpointAt: %v", desc, err)
					}
					img = fs.AfterCrash(true)
				case "torn", "corrupt":
					img = fs.AfterCrash(false)
					segs := segmentNames(t, img)
					seg := segs[len(segs)-1]
					if ending == "corrupt" {
						seg = segs[rng.Intn(len(segs))]
					}
					data, err := img.ReadFile(seg)
					if err != nil {
						t.Fatal(err)
					}
					if ending == "torn" {
						data = data[:rng.Intn(len(data))]
					} else {
						data[rng.Intn(len(data))] ^= 0x20
					}
					if err := img.WriteTrunc(seg, data); err != nil {
						t.Fatal(err)
					}
				}
				w.Close()

				snapLSN, want := referenceScan(t, img)
				w2 := openTestWAL(t, img, opts)
				assertReplayEquals(t, w2, want, desc)
				last := snapLSN
				if len(want) > 0 {
					last = want[len(want)-1].LSN
				}
				if got := w2.LastLSN(); got != last {
					t.Fatalf("%s: LastLSN = %d, reference ends at %d", desc, got, last)
				}
				// The recovered log keeps going: appended records join the
				// replayed sequence.
				lsn := mustAppend(t, w2, "after-recovery")
				want = append(want, wal.Record{LSN: lsn, Payload: []byte("after-recovery")})
				assertReplayEquals(t, w2, want, desc+" (after append)")
				if err := w2.Close(); err != nil {
					t.Fatalf("%s: Close: %v", desc, err)
				}
			}
		}
	}
}

// TestReplayFailsClosedOnUnreadableSegment: a cursor answers "no record,
// no error" for a segment it cannot read exactly as it does when caught up.
// Replay must not pass that on as a complete, shorter log: with any one
// segment unreadable after Open succeeded, it returns an error.
func TestReplayFailsClosedOnUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{SegmentBytes: 128})
	for i := 0; i < 30; i++ {
		mustAppend(t, w, fmt.Sprintf("record-%02d", i))
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	segs := segmentNames(t, fs)
	if len(segs) < 3 {
		t.Fatalf("want at least 3 segments, have %v", segs)
	}
	for _, seg := range segs {
		img := fs.AfterCrash(false)
		w2 := openTestWAL(t, img, wal.Options{SegmentBytes: 128})
		img.FailReads(seg)
		n := 0
		err := w2.Replay(func(uint64, []byte) error { n++; return nil })
		if err == nil {
			t.Fatalf("%s unreadable: Replay delivered %d of 30 records and reported success", seg, n)
		}
		w2.Close()
	}
}

// TestOpenRetainsNoRecords: Open scans every frame but keeps none. At the
// parent it held a copy of each recovered payload for Replay — more than
// the log's own size for the life of the process.
func TestOpenRetainsNoRecords(t *testing.T) {
	fs := faultinject.NewMemFS()
	w := openTestWAL(t, fs, wal.Options{Policy: wal.SyncNever})
	payload := bytes.Repeat([]byte("r"), 300)
	const logBytes = 8 << 20
	for written := 0; written < logBytes; written += len(payload) {
		if _, err := w.Append(payload); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	w2 := openTestWAL(t, fs, wal.Options{Policy: wal.SyncNever})
	runtime.GC()
	runtime.ReadMemStats(&after)
	if retained := int64(after.HeapAlloc) - int64(before.HeapAlloc); retained > 1<<20 {
		t.Fatalf("Open on an %d MiB log retains %d KiB of heap, want under 1 MiB", logBytes>>20, retained>>10)
	}
	if got, want := w2.LastLSN(), uint64((logBytes+len(payload)-1)/len(payload)); got != want {
		t.Fatalf("LastLSN = %d, want %d", got, want)
	}
	w2.Close()
}
