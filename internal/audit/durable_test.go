package audit

import (
	"bytes"
	"errors"
	"fmt"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openAudit(t *testing.T, fs wal.FS) *Log {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	l, err := OpenLog(w)
	if err != nil {
		t.Fatalf("OpenLog: %v", err)
	}
	return l
}

func TestReopenPreservesChain(t *testing.T) {
	fs := faultinject.NewMemFS()
	l := openAudit(t, fs)
	for i := 0; i < 20; i++ {
		if _, err := l.AppendChecked("ana", "query", fmt.Sprintf("obj-%d", i), "permit"); err != nil {
			t.Fatalf("AppendChecked %d: %v", i, err)
		}
	}
	l2 := openAudit(t, fs)
	if l2.Len() != 20 {
		t.Fatalf("recovered %d records, want 20", l2.Len())
	}
	if bad := l2.Verify(); bad != -1 {
		t.Fatalf("Verify after reopen = %d, want -1", bad)
	}
	// The chain continues where it left off.
	r, err := l2.AppendChecked("res", "query", "obj-20", "deny")
	if err != nil {
		t.Fatal(err)
	}
	if r.Seq != 20 || r.PrevHash != l2.Records()[19].Hash {
		t.Fatalf("continuation record not chained: %+v", r)
	}
	l3 := openAudit(t, fs)
	if l3.Len() != 21 || l3.Verify() != -1 {
		t.Fatalf("second reopen: len=%d verify=%d", l3.Len(), l3.Verify())
	}
}

// TestBrokenChainRefusesToOpen tampers with the on-disk bytes of a middle
// record — the frame CRC is recomputed so the wal layer accepts it, leaving
// detection entirely to the hash chain — and asserts OpenLog refuses.
func TestBrokenChainRefusesToOpen(t *testing.T) {
	fs := faultinject.NewMemFS()
	l := openAudit(t, fs)
	for i := 0; i < 5; i++ {
		l.Append("ana", "exec", fmt.Sprintf("obj-%d", i), "permit")
	}
	names, err := fs.List()
	if err != nil || len(names) == 0 {
		t.Fatalf("no segments: %v", err)
	}
	data, err := fs.ReadFile(names[0])
	if err != nil {
		t.Fatal(err)
	}
	// Re-frame the segment, rewriting record 2's payload with valid CRC.
	var reframed []byte
	rest := data
	for len(rest) > 0 {
		lsn, payload, next, err := wal.DecodeFrame(rest)
		if err != nil {
			t.Fatalf("decode: %v", err)
		}
		if lsn == 3 { // third frame = record seq 2
			payload = bytes.Replace(payload, []byte(`"permit"`), []byte(`"deny"`), 1)
		}
		reframed = wal.EncodeFrame(reframed, lsn, payload)
		rest = next
	}
	if bytes.Equal(reframed, data) {
		t.Fatal("tamper was a no-op")
	}
	if err := fs.WriteTrunc(names[0], reframed); err != nil {
		t.Fatal(err)
	}
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open must accept CRC-valid frames: %v", err)
	}
	if _, err := OpenLog(w); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("OpenLog on tampered chain: err = %v, want ErrChainBroken", err)
	}
}

// TestAuditCrashRecovery is the audit leg of the crash matrix: killed at
// every record boundary and a byte-granular sample, the surviving prefix
// must always verify — a torn tail is truncated by the wal layer, never
// surfaced as a broken chain — and every acknowledged append survives.
func TestAuditCrashRecovery(t *testing.T) {
	const appends = 10
	workload := func(fs *faultinject.MemFS) int {
		w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
		if err != nil {
			return 0
		}
		l, err := OpenLog(w)
		if err != nil {
			return 0
		}
		acked := 0
		for i := 0; i < appends; i++ {
			if _, err := l.AppendChecked("ana", "query", fmt.Sprintf("obj-%d", i), "permit"); err == nil {
				acked++
			}
		}
		return acked
	}
	dry := faultinject.NewMemFS()
	if got := workload(dry); got != appends {
		t.Fatalf("dry run acked %d, want %d", got, appends)
	}
	total := dry.BytesWritten()
	t.Logf("audit crash matrix: %d points × 2 images over a %d-byte stream", total/7+1, total)
	for b := int64(0); b <= total; b += 7 {
		fs := faultinject.NewMemFS()
		fs.LimitWriteBytes(b)
		acked := workload(fs)
		for _, drop := range []bool{false, true} {
			img := fs.AfterCrash(drop)
			w, err := wal.Open(wal.Options{FS: img, Policy: wal.SyncAlways})
			if err != nil {
				t.Fatalf("crash at %d drop=%v: wal.Open: %v", b, drop, err)
			}
			l, err := OpenLog(w)
			if err != nil {
				t.Fatalf("crash at %d drop=%v: OpenLog: %v", b, drop, err)
			}
			if bad := l.Verify(); bad != -1 {
				t.Fatalf("crash at %d drop=%v: chain broken at %d", b, drop, bad)
			}
			if l.Len() < acked {
				t.Fatalf("crash at %d drop=%v: %d acked but only %d recovered", b, drop, acked, l.Len())
			}
		}
	}
}

// TestOpenLogRefusesUnreadableSegment: a segment that cannot be read back
// after the log itself opened must fail OpenLog. Losing the LAST segment is
// the dangerous case: the records before it are a shorter chain that still
// verifies, and appending to it would fork the trail.
func TestOpenLogRefusesUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 1024}
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(w)
	if err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 20; i++ {
		if _, err := l.AppendChecked("ana", "query", fmt.Sprintf("obj-%d", i), "permit"); err != nil {
			t.Fatal(err)
		}
	}
	segs, err := fs.List()
	if err != nil || len(segs) < 3 {
		t.Fatalf("want at least 3 segments, have %v (%v)", segs, err)
	}
	for _, seg := range segs {
		img := fs.AfterCrash(false)
		opts.FS = img
		w2, err := wal.Open(opts)
		if err != nil {
			t.Fatalf("wal.Open: %v", err)
		}
		img.FailReads(seg)
		if l2, err := OpenLog(w2); err == nil {
			t.Fatalf("%s unreadable: OpenLog returned a chain of %d of 20 records (Verify = %d)", seg, l2.Len(), l2.Verify())
		}
	}
}
