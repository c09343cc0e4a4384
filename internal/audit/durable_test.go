package audit

import (
	"bytes"
	"crypto/sha256"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"
	"runtime"
	"slices"
	"strings"
	"sync"
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

// rewriteFrame replaces old with new in the payload of the frame at lsn,
// recomputing its CRC, so the wal layer accepts the bytes and detection is
// left entirely to the hash chain: an attacker with storage access.
func rewriteFrame(t *testing.T, fs wal.FS, lsn uint64, old, new string) {
	t.Helper()
	names, err := fs.List()
	if err != nil {
		t.Fatal(err)
	}
	for _, name := range names {
		data, err := fs.ReadFile(name)
		if err != nil || !strings.HasPrefix(name, "wal-") {
			continue
		}
		var reframed []byte
		good := 0
		zero := make([]byte, 16) // an all-zero header ends the frames
		for good < len(data) && !bytes.Equal(data[good:min(len(data), good+16)], zero[:min(len(data)-good, 16)]) {
			at, payload, rest, err := wal.DecodeFrame(data[good:])
			if err != nil {
				t.Fatalf("decode %s: %v", name, err)
			}
			if at == lsn {
				payload = bytes.Replace(payload, []byte(old), []byte(new), 1)
			}
			reframed, good = wal.EncodeFrame(reframed, at, payload), len(data)-len(rest)
		}
		if !bytes.Equal(reframed, data[:good]) {
			// Keep the segment's unwritten tail: only the frame changes.
			if err := fs.WriteTrunc(name, append(reframed, data[good:]...)); err != nil {
				t.Fatal(err)
			}
			return
		}
	}
	t.Fatalf("no frame at lsn %d holds %s", lsn, old)
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
	rewriteFrame(t, fs, 3, `"permit"`, `"deny"`) // third frame = record seq 2
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

// legacyHash is the chain hash every record had before versioning, copied
// verbatim, so the tests below write v1 logs independently of hashV1.
func legacyHash(r Record) string {
	h := sha256.New()
	fmt.Fprintf(h, "%d|%s|%s|%s|%s|%s", r.Seq, r.Actor, r.Action, r.Object, r.Outcome, r.PrevHash)
	return hex.EncodeToString(h.Sum(nil))
}

// appendV1 writes a v1 record straight to w, as an older binary did.
func appendV1(t *testing.T, w *wal.WAL, seq int, prev, object string) string {
	t.Helper()
	r := Record{Seq: seq, Actor: "ana", Action: "query", Object: object, Outcome: "permit", PrevHash: prev}
	r.Hash = legacyHash(r)
	payload, err := json.Marshal(r)
	if err != nil {
		t.Fatal(err)
	}
	if bytes.Contains(payload, []byte(`"V"`)) {
		t.Fatalf("a v1 frame carries a version: %s", payload)
	}
	if _, err := w.Append(payload); err != nil {
		t.Fatal(err)
	}
	return r.Hash
}

// TestV1LogContinuesAsV2: a -data directory written before versioning
// opens, its chain continues with v2 records, and the mixed chain opens
// again.
func TestV1LogContinuesAsV2(t *testing.T) {
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	prev := ""
	for i := 0; i < 5; i++ {
		prev = appendV1(t, w, i, prev, fmt.Sprintf("SELECT a|b FROM t%d", i))
	}
	l := openAudit(t, fs)
	if l.Len() != 5 || l.Verify() != -1 {
		t.Fatalf("v1 log: len=%d verify=%d", l.Len(), l.Verify())
	}
	r, err := l.AppendChecked("res", "execute", "DELETE FROM t", "deny")
	if err != nil {
		t.Fatal(err)
	}
	if r.V != 2 || r.Seq != 5 || r.PrevHash != prev {
		t.Fatalf("continuation record %+v, want v2 seq 5 after %s", r, prev)
	}
	l2 := openAudit(t, fs)
	recs := l2.Records()
	if len(recs) != 6 || l2.Verify() != -1 || recs[4].V != 0 || recs[5] != r {
		t.Fatalf("reopened mixed chain: %d records, verify=%d, %+v", len(recs), l2.Verify(), recs)
	}
}

// TestDowngradeRefused: a v1 record after a v2 record breaks the chain even
// when its v1 hash is right, so the ambiguous preimage cannot come back.
func TestDowngradeRefused(t *testing.T) {
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	l, err := OpenLog(w)
	if err != nil {
		t.Fatal(err)
	}
	r, err := l.AppendChecked("ana", "query", "SELECT age FROM patients", "permit")
	if err != nil {
		t.Fatal(err)
	}
	appendV1(t, w, 1, r.Hash, "SELECT zip FROM patients")
	if bad := l.Verify(); bad != 1 {
		t.Fatalf("live Verify = %d, want 1", bad)
	}
	w2, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	if _, err := OpenLog(w2); !errors.Is(err, ErrChainBroken) {
		t.Fatalf("OpenLog over a downgraded chain: err = %v, want ErrChainBroken", err)
	}
}

// TestDurableLogHeapFlat: a durable log keeps its records on disk only, so
// appending does not grow the heap.
func TestDurableLogHeapFlat(t *testing.T) {
	w, err := wal.Open(wal.Options{FS: wal.DirFS(t.TempDir()), Policy: wal.SyncNever})
	if err != nil {
		t.Fatal(err)
	}
	defer w.Close()
	l, err := OpenLog(w)
	if err != nil {
		t.Fatal(err)
	}
	sql := "SELECT name, zip FROM patients WHERE age > 70 ORDER BY zip LIMIT 25"
	if _, err := l.AppendChecked("ana", "query", sql, "permit"); err != nil {
		t.Fatal(err)
	}
	var before, after runtime.MemStats
	runtime.GC()
	runtime.ReadMemStats(&before)
	const n = 20000
	for i := 0; i < n; i++ {
		if _, err := l.AppendChecked("ana", "query", sql, "permit"); err != nil {
			t.Fatal(err)
		}
	}
	runtime.GC()
	runtime.ReadMemStats(&after)
	if grew := int64(after.HeapAlloc) - int64(before.HeapAlloc); grew >= 1<<20 {
		t.Fatalf("%d appends grew the heap by %d bytes", n, grew)
	}
	if l.Len() != n+1 {
		t.Fatalf("Len = %d, want %d", l.Len(), n+1)
	}
}

// TestVerifyReadsDisk: a record rewritten at rest under a running process
// is caught by the live Verify, not only by the next OpenLog.
func TestVerifyReadsDisk(t *testing.T) {
	fs := faultinject.NewMemFS()
	l := openAudit(t, fs)
	for i := 0; i < 5; i++ {
		if _, err := l.AppendChecked("ana", "exec", fmt.Sprintf("obj-%d", i), "permit"); err != nil {
			t.Fatal(err)
		}
	}
	rewriteFrame(t, fs, 3, `"permit"`, `"deny"`) // record seq 2
	if bad := l.Verify(); bad != 2 {
		t.Fatalf("Verify after tampering at rest = %d, want 2", bad)
	}
}

// TestVerifyRefusesUnreadableSegment: whichever segment turns unreadable,
// Verify reports a record it could not verify and Records reads nothing;
// neither passes off the readable records as the whole trail.
func TestVerifyRefusesUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 1024})
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
		fs.FailReads(seg)
		if bad := l.Verify(); bad < 0 || bad >= 20 {
			t.Errorf("%s unreadable: Verify = %d, want the first record it could not read", seg, bad)
		}
		if recs := l.Records(); recs != nil {
			t.Errorf("%s unreadable: Records returned %d of 20 records", seg, len(recs))
		}
	}
	fs.FailReads("")
	if bad := l.Verify(); bad != -1 {
		t.Fatalf("readable again: Verify = %d", bad)
	}
}

// TestScanUnderConcurrentAppends: a reader streaming the durable trail
// while auditors append sees a chain in which every record verifies
// against its predecessor, and never fewer records than a scan before.
func TestScanUnderConcurrentAppends(t *testing.T) {
	l := openAudit(t, faultinject.NewMemFS())
	var wg sync.WaitGroup
	for g := 0; g < 4; g++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for i := 0; i < 100; i++ {
				if _, err := l.AppendChecked(fmt.Sprintf("w%d", g), "query", fmt.Sprintf("obj-%d", i), "permit"); err != nil {
					t.Error(err)
					return
				}
			}
		}()
	}
	done := make(chan struct{})
	go func() { wg.Wait(); close(done) }()
	seen := 0
	for scanning := true; scanning; {
		select {
		case <-done:
			scanning = false
		default:
		}
		var c chain
		if err := l.Scan(func(r Record) error {
			if !c.extend(&r) {
				return fmt.Errorf("record %d does not extend the chain of %d", r.Seq, c.n)
			}
			return nil
		}); err != nil {
			t.Fatal(err)
		}
		if c.n < seen {
			t.Fatalf("scan read %d records after an earlier scan read %d", c.n, seen)
		}
		seen = c.n
	}
	if seen != 400 || l.Verify() != -1 {
		t.Fatalf("final scan read %d of 400 records; Verify = %d", seen, l.Verify())
	}
}

// TestCorruptSealedSegmentRefusesOpen: an audit trail whose WAL has a bad
// frame in a sealed segment does not open — wal.ErrCorrupt — and no
// segment is removed or rewritten: cutting the trail there would drop
// every later record and let the chain continue from the cut.
func TestCorruptSealedSegmentRefusesOpen(t *testing.T) {
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
	w.Close()
	names, err := fs.List()
	if err != nil || len(names) < 2 {
		t.Fatalf("want a sealed segment, have %v (%v)", names, err)
	}
	data, _ := fs.ReadFile(names[0])
	data[16+1] ^= 0x40 // the first record's payload
	if err := fs.WriteTrunc(names[0], data); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, name := range names {
		before[name], _ = fs.ReadFile(name)
	}
	if w, err := wal.Open(opts); !errors.Is(err, wal.ErrCorrupt) {
		if err == nil {
			_, err = OpenLog(w)
		}
		t.Fatalf("opening over a corrupt sealed segment: %v, want wal.ErrCorrupt", err)
	}
	after, _ := fs.List()
	if !slices.Equal(after, names) {
		t.Fatalf("files after the refused open: %v, want %v", after, names)
	}
	for _, name := range names {
		if data, _ := fs.ReadFile(name); !bytes.Equal(data, before[name]) {
			t.Fatalf("the refused open rewrote %s", name)
		}
	}
}
