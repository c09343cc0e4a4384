package reldb

import (
	"bytes"
	"errors"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

func openDurable(t *testing.T, fs wal.FS) *Database {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	db, err := OpenDatabase(w)
	if err != nil {
		t.Fatalf("OpenDatabase: %v", err)
	}
	return db
}

// recoverCrashed recovers, through the real OpenDatabase, the disk image a
// machine crash at this instant would leave on fs (unsynced bytes gone).
func recoverCrashed(t *testing.T, fs *faultinject.MemFS) *Database {
	t.Helper()
	return openDurable(t, fs.AfterCrash(true))
}

// tableRows reads table name as a map k -> v, or nil when the table does
// not exist. The test schema is always (k TEXT, v INT).
func tableRows(t *testing.T, db *Database, name string) map[string]int64 {
	t.Helper()
	if _, ok := db.Table(name); !ok {
		return nil
	}
	res, err := db.Exec(fmt.Sprintf("SELECT k, v FROM %s", name))
	if err != nil {
		t.Fatalf("SELECT: %v", err)
	}
	out := make(map[string]int64, len(res.Rows))
	for _, r := range res.Rows {
		out[r[0].S] = r[1].I
	}
	return out
}

// assertDBEqual compares two databases structurally: table set, schemas,
// rows with their stable rowIDs and rowID high-water marks.
func assertDBEqual(t *testing.T, a, b *Database, desc string) {
	t.Helper()
	if !reflect.DeepEqual(a.Tables(), b.Tables()) {
		t.Fatalf("%s: table sets differ: %v vs %v", desc, a.Tables(), b.Tables())
	}
	for _, name := range a.Tables() {
		ta, _ := a.Table(name)
		tb, _ := b.Table(name)
		sa, sb := ta.snapshot(), tb.snapshot()
		sort.Slice(sa.Rows, func(i, j int) bool { return sa.Rows[i].ID < sa.Rows[j].ID })
		sort.Slice(sb.Rows, func(i, j int) bool { return sb.Rows[i].ID < sb.Rows[j].ID })
		if !reflect.DeepEqual(sa, sb) {
			t.Fatalf("%s: table %s differs:\n%+v\nvs\n%+v", desc, name, sa, sb)
		}
	}
}

func TestOpenCheckpointReopen(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	for i := 0; i < 5; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES ('k%d', %d)", i, i))
	}
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	// Post-checkpoint tail.
	mustExec(t, db, "INSERT INTO t VALUES ('k5', 5)")
	mustExec(t, db, "DELETE FROM t WHERE k = 'k0'")

	db2 := openDurable(t, fs)
	rows := tableRows(t, db2, "t")
	if len(rows) != 5 {
		t.Fatalf("recovered %d rows, want 5: %v", len(rows), rows)
	}
	if _, ok := rows["k0"]; ok {
		t.Fatal("deleted row k0 reappeared")
	}
	if rows["k5"] != 5 {
		t.Fatalf("post-checkpoint insert lost: %v", rows)
	}
}

// TestCheckpointImageReproducible: one committed state encodes to one
// checkpoint payload, byte for byte — tables by name, rows in rowID
// order — so a crash-matrix failure can be replayed from its image.
func TestCheckpointImageReproducible(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	for _, src := range []string{
		"CREATE TABLE t (k TEXT, v INT, a INT, b INT)", "CREATE TABLE u (a INT)", "CREATE TABLE s (k TEXT)",
		"INSERT INTO u VALUES (1)", "INSERT INTO s VALUES ('x')",
	} {
		mustExec(t, db, src)
	}
	for i := 0; i < 600; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES ('k%d', %d, %d, %d)", i, i%7, i%5, i%3))
	}
	mustExec(t, db, "DELETE FROM t WHERE v = 3")
	image := func(db *Database) []byte {
		t.Helper()
		payload, err := db.versions.Load().encodeSnap()
		if err != nil {
			t.Fatal(err)
		}
		return payload
	}
	first := image(db)
	if second := image(db); !bytes.Equal(first, second) {
		t.Fatalf("two images of one state differ (%d vs %d bytes)", len(first), len(second))
	}
	// The state recovered from a checkpoint encodes to that checkpoint.
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	written, _, _ := db.log.w.Snapshot()
	if !bytes.Equal(first, written) {
		t.Fatal("Checkpoint wrote a different image")
	}
	if third := image(openDurable(t, fs)); !bytes.Equal(first, third) {
		t.Fatal("image of the recovered state differs from the one it was recovered from")
	}
}

// TestRestoreUnorderedSnapshot: images written before snapshots were
// ordered list rows and index names in map order, and images written
// before a transaction became one log record carry a transaction counter
// and a fence LSN; they must keep opening.
func TestRestoreUnorderedSnapshot(t *testing.T) {
	payload := []byte(`{"TxnSeq":9,"FenceLSN":40,"Tables":[{"Name":"t",` +
		`"Schema":{"Columns":[{"Name":"k","Kind":3},{"Name":"v","Kind":1}]},"NextID":700,` +
		`"Rows":[{"ID":513,"Row":[{"Kind":3,"I":0,"F":0,"S":"c","B":false},{"Kind":1,"I":3,"F":0,"S":"","B":false}]},` +
		`{"ID":2,"Row":[{"Kind":3,"I":0,"F":0,"S":"a","B":false},{"Kind":1,"I":1,"F":0,"S":"","B":false}]},` +
		`{"ID":300,"Row":[{"Kind":3,"I":0,"F":0,"S":"b","B":false},{"Kind":1,"I":2,"F":0,"S":"","B":false}]}],` +
		`"HashIdx":["v","k"],"OrdIdx":["v"]}]}`)
	st, err := restoreSnap(payload)
	if err != nil {
		t.Fatal(err)
	}
	tbl := st.frozen()["t"]
	var got []string
	tbl.Scan(func(id int64, r Row) bool {
		got = append(got, fmt.Sprintf("%d=%s/%d", id, r[0].S, r[1].I))
		return true
	})
	if want := []string{"2=a/1", "300=b/2", "513=c/3"}; !reflect.DeepEqual(got, want) {
		t.Fatalf("rows %v, want %v", got, want)
	}
	if tbl.nextID != 700 || tbl.Len() != 3 {
		t.Fatalf("nextID %d, len %d", tbl.nextID, tbl.Len())
	}
}

// TestCheckpointFuzzyWithActiveTxns asserts the fuzzy-checkpoint contract
// that replaced the old ErrActiveTxns quiescence requirement: Checkpoint
// succeeds with transactions in flight, the snapshot covers exactly the
// committed state and sits at the pinned version's own LSN (the in-flight
// transaction has logged nothing, so nothing of it needs keeping), and the
// in-flight transaction commits afterwards and survives recovery.
func TestCheckpointFuzzyWithActiveTxns(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('before', 1)")

	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO t VALUES ('inflight', 2)"); err != nil {
		t.Fatal(err)
	}
	pinned := db.Snapshot()
	defer pinned.Release()
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint with txn in flight: %v", err)
	}
	if _, lsn, _ := db.log.w.Snapshot(); int64(lsn) != pinned.LSN() || lsn != db.log.w.LastLSN() {
		t.Fatalf("snapshot at LSN %d, want the pinned version's %d (log ends at %d)", lsn, pinned.LSN(), db.log.w.LastLSN())
	}
	// The uncommitted write is invisible to the checkpointed state and to
	// concurrent readers.
	if rows := tableRows(t, db, "t"); len(rows) != 1 || rows["before"] != 1 {
		t.Fatalf("uncommitted write leaked into committed state: %v", rows)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit after fuzzy checkpoint: %v", err)
	}

	db2 := openDurable(t, fs)
	rows := tableRows(t, db2, "t")
	if rows["before"] != 1 || rows["inflight"] != 2 || len(rows) != 2 {
		t.Fatalf("recovery after fuzzy checkpoint: rows = %v, want before=1 inflight=2", rows)
	}

	// A second checkpoint at quiescence truncates the tail completely.
	if err := db2.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint at quiescence: %v", err)
	}
	assertDBEqual(t, db2, openDurable(t, fs), "reopen after quiescent checkpoint")
}

// TestTransactionIsOneLogRecord: a committed transaction adds exactly one
// WAL frame — its Commit, carrying every row it wrote, in order — however
// many rows and tables that is; an aborted or read-only transaction, and a
// statement that failed, add none; a statement that matched no row commits
// one empty record.
// recordsSince decodes every record w holds above lsn.
func recordsSince(t *testing.T, w *wal.WAL, lsn uint64) []LogRecord {
	t.Helper()
	c, err := w.OpenCursor(lsn)
	if err != nil {
		t.Fatal(err)
	}
	var recs []LogRecord
	for {
		f, ok, err := c.Next()
		if err != nil {
			t.Fatal(err)
		}
		if !ok {
			return recs
		}
		rec, err := decodeLogRecord(f.Payload)
		if err != nil {
			t.Fatal(err)
		}
		recs = append(recs, rec)
	}
}

func TestTransactionIsOneLogRecord(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "CREATE TABLE u (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('old', 0)")
	w := db.log.w
	framesSince := func(lsn uint64) []LogRecord { return recordsSince(t, w, lsn) }

	last := w.LastLSN()
	txn := db.Begin()
	for _, src := range []string{
		"INSERT INTO t VALUES ('a', 1)",
		"INSERT INTO t VALUES ('b', 2)",
		"UPDATE t SET v = 9 WHERE k = 'a'",
		"DELETE FROM t WHERE k = 'old'",
		"INSERT INTO u VALUES ('x', 1)",
	} {
		if _, err := txn.Exec(src); err != nil {
			t.Fatalf("%s: %v", src, err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := framesSince(last)
	if len(recs) != 1 || recs[0].Op != OpCommit {
		t.Fatalf("a committed transaction added %d frames (%+v), want one Commit", len(recs), recs)
	}
	got := fmt.Sprint(recs[0].Changes)
	if want := "[{t 2 [a 1]} {t 3 [b 2]} {t 2 [a 9]} {t 1 []} {u 1 [x 1]}]"; got != want {
		t.Fatalf("commit carries %s, want %s", got, want)
	}

	last = w.LastLSN()
	aborted := db.Begin()
	if _, err := aborted.Exec("INSERT INTO t VALUES ('ghost', 1)"); err != nil {
		t.Fatal(err)
	}
	aborted.Abort()
	reader := db.Begin()
	if _, err := reader.Exec("SELECT * FROM t"); err != nil {
		t.Fatal(err)
	}
	if err := reader.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("INSERT INTO t VALUES (1, 'wrong kinds')"); err == nil {
		t.Fatal("a row of the wrong kinds was inserted")
	}
	if recs := framesSince(last); len(recs) != 0 {
		t.Fatalf("aborted, read-only and failed transactions added %d frames: %+v", len(recs), recs)
	}

	res := mustExec(t, db, "UPDATE t SET v = 0 WHERE k = 'nobody'")
	if recs := framesSince(last); len(recs) != 1 || recs[0].Op != OpCommit || len(recs[0].Changes) != 0 || int64(w.LastLSN()) != res.LSN {
		t.Fatalf("an UPDATE matching no row added %+v, want one empty Commit at its LSN %d", recs, res.LSN)
	}
	assertDBEqual(t, db, openDurable(t, fs.AfterCrash(true)), "recovered from one record per transaction")
}

func TestCommitReportsLostDurability(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	fs.Crash()
	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO t VALUES ('x', 1)"); err != nil {
		t.Fatalf("in-memory exec must survive backend loss: %v", err)
	}
	if err := txn.Commit(); err == nil {
		t.Fatal("Commit acknowledged a transaction the backend never saw")
	}
	if db.Log().Err() == nil {
		t.Fatal("backend failure did not stick")
	}
}

// crashWorkload is the scripted workload the crash matrix kills at every
// point: two CREATE TABLEs, five committing insert transactions, one
// aborting one, and a final transaction updating k0, deleting k1 and
// inserting into the second table. It returns the set of durably
// acknowledged facts — "kN" for each insert transaction whose Commit
// returned nil, "mod" for the final transaction. Under
// SyncAlways an acknowledgement means the commit record was fsynced, so
// every acknowledged fact must survive any crash.
func crashWorkload(fs *faultinject.MemFS) map[string]bool {
	acked := make(map[string]bool)
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		return acked
	}
	db, err := OpenDatabase(w)
	if err != nil {
		return acked
	}
	db.Exec("CREATE TABLE t (k TEXT, v INT)")
	db.Exec("CREATE TABLE u (k TEXT, v INT)")
	for i := 0; i < 6; i++ {
		txn := db.Begin()
		txn.Exec(fmt.Sprintf("INSERT INTO t VALUES ('k%d', %d)", i, i))
		if i == 2 {
			txn.Abort()
			continue
		}
		if txn.Commit() == nil {
			acked[fmt.Sprintf("k%d", i)] = true
		}
	}
	txn := db.Begin()
	txn.Exec("UPDATE t SET v = 100 WHERE k = 'k0'")
	txn.Exec("DELETE FROM t WHERE k = 'k1'")
	txn.Exec("INSERT INTO u VALUES ('mod', 1)")
	if txn.Commit() == nil {
		acked["mod"] = true
	}
	return acked
}

// checkCrashInvariants recovers a database from a post-crash disk image
// and asserts the durability contract against the workload's
// acknowledgements:
//
//   - every acknowledged transaction's effects are present;
//   - the aborted transaction's row is absent;
//   - the final transaction applied atomically (all three effects, across
//     both tables, or none);
//   - recovering the same image twice yields identical databases.
func checkCrashInvariants(t *testing.T, img *faultinject.MemFS, acked map[string]bool, desc string) {
	t.Helper()
	db := openDurable(t, img)
	rows := tableRows(t, db, "t")
	if rows == nil {
		if len(acked) > 0 {
			t.Fatalf("%s: table lost but %d transactions were acknowledged", desc, len(acked))
		}
		return
	}
	modApplied := rows["k0"] == 100
	for fact := range acked {
		switch fact {
		case "mod":
			if !modApplied {
				t.Fatalf("%s: acknowledged update of k0 lost: rows = %v", desc, rows)
			}
			if _, ok := rows["k1"]; ok {
				t.Fatalf("%s: acknowledged delete of k1 lost: rows = %v", desc, rows)
			}
		case "k1":
			if _, ok := rows["k1"]; !ok && !modApplied {
				t.Fatalf("%s: acknowledged insert k1 lost: rows = %v", desc, rows)
			}
		default:
			if _, ok := rows[fact]; !ok {
				t.Fatalf("%s: acknowledged insert %s lost: rows = %v", desc, fact, rows)
			}
		}
	}
	if _, ok := rows["k2"]; ok {
		t.Fatalf("%s: aborted transaction's row survived recovery: rows = %v", desc, rows)
	}
	// Atomicity of the final transaction: its two effects appear together
	// or not at all.
	if _, k1Present := rows["k1"]; modApplied && k1Present {
		t.Fatalf("%s: update applied but delete lost: rows = %v", desc, rows)
	}
	if _, uPresent := tableRows(t, db, "u")["mod"]; uPresent != modApplied {
		t.Fatalf("%s: update of k0 applied %v, insert into u applied %v", desc, modApplied, uPresent)
	}
	// No phantom rows.
	for k, v := range rows {
		want := map[string]int64{"k0": 0, "k1": 1, "k3": 3, "k4": 4, "k5": 5}
		if k == "k0" && modApplied {
			want["k0"] = 100
		}
		if wv, ok := want[k]; !ok || wv != v {
			t.Fatalf("%s: phantom or corrupt row %s=%d: rows = %v", desc, k, v, rows)
		}
	}
	// Determinism: recovery of the same image is idempotent.
	assertDBEqual(t, db, openDurable(t, img), desc+" (recover twice)")
}

// crashAt runs the workload against a filesystem armed to die at the given
// write-byte or fsync crash point, then checks recovery under both legal
// post-crash images (unsynced tail kept and dropped).
func crashAt(t *testing.T, writeLimit, syncLimit int64, desc string) {
	t.Helper()
	fs := faultinject.NewMemFS()
	if writeLimit >= 0 {
		fs.LimitWriteBytes(writeLimit)
	}
	if syncLimit >= 0 {
		fs.LimitSyncs(syncLimit)
	}
	acked := crashWorkload(fs)
	for _, drop := range []bool{false, true} {
		checkCrashInvariants(t, fs.AfterCrash(drop), acked,
			fmt.Sprintf("%s dropUnsynced=%v", desc, drop))
	}
}

// TestCrashMatrixRecordBoundaries kills the store exactly after each WAL
// frame lands — the "crash between any two records" axis of the matrix.
func TestCrashMatrixRecordBoundaries(t *testing.T) {
	fs0 := faultinject.NewMemFS()
	acked := crashWorkload(fs0)
	if len(acked) != 6 {
		t.Fatalf("dry run acknowledged %d facts, want 6", len(acked))
	}
	// Reconstruct the frame boundaries of the write stream from the dry
	// run's segments (appends are the only writes in this workload).
	var boundaries []int64
	var off int64
	names, _ := fs0.List()
	for _, name := range names {
		data, _ := fs0.ReadFile(name)
		base := off
		zero := make([]byte, 16) // an all-zero header ends the frames
		for rest := data; len(rest) > 0 && !bytes.Equal(rest[:min(len(rest), 16)], zero[:min(len(rest), 16)]); {
			var err error
			if _, _, rest, err = wal.DecodeFrame(rest); err != nil {
				t.Fatalf("dry-run segment %s has bad frame: %v", name, err)
			}
			off = base + int64(len(data)-len(rest))
			boundaries = append(boundaries, off)
		}
	}
	// One frame per DDL statement and per committed transaction; the
	// aborted transaction wrote none.
	if len(boundaries) != 2+len(acked) {
		t.Fatalf("dry run produced %d records, want %d", len(boundaries), 2+len(acked))
	}
	if boundaries[len(boundaries)-1] != fs0.BytesWritten() {
		t.Fatalf("frame boundaries (%d) disagree with write stream (%d)",
			boundaries[len(boundaries)-1], fs0.BytesWritten())
	}
	for _, b := range append([]int64{0}, boundaries...) {
		crashAt(t, b, -1, fmt.Sprintf("crash at record boundary %d", b))
	}
	t.Logf("crash matrix: %d record-boundary points × 2 images over a %d-byte stream",
		len(boundaries)+1, fs0.BytesWritten())
}

// TestCrashMatrixByteGranular kills the store inside frames — a stride
// sample over every byte offset of the write stream, so torn frames at
// arbitrary positions are exercised, not just clean record boundaries.
func TestCrashMatrixByteGranular(t *testing.T) {
	fs0 := faultinject.NewMemFS()
	crashWorkload(fs0)
	total := fs0.BytesWritten()
	// 13 is coprime to the frame sizes in play, so successive runs land at
	// different offsets within frames.
	points := 0
	for b := int64(1); b < total; b += 13 {
		crashAt(t, b, -1, fmt.Sprintf("crash at byte %d", b))
		points++
	}
	t.Logf("crash matrix: %d byte-granular points × 2 images over a %d-byte stream", points, total)
}

// TestCrashMatrixMidFsync kills the store inside every fsync of the
// workload: the barrier never completes, so the bytes it covered are
// allowed to vanish — and the acknowledgement that would have followed was
// never given.
func TestCrashMatrixMidFsync(t *testing.T) {
	fs0 := faultinject.NewMemFS()
	acked := crashWorkload(fs0)
	syncs := fs0.SyncCount()
	// One barrier per acknowledged commit at least: a commit is one frame,
	// and it is acknowledged only once that frame is fsynced.
	if syncs < int64(len(acked)) {
		t.Fatalf("dry run performed only %d fsyncs for %d acknowledged commits", syncs, len(acked))
	}
	for k := int64(0); k < syncs; k++ {
		crashAt(t, -1, k, fmt.Sprintf("crash inside fsync %d", k))
	}
	t.Logf("crash matrix: %d mid-fsync points × 2 images", syncs)
}

// writeLog writes a log by hand: the frames, then, unless snapshot is empty,
// a checkpoint of snapshot at the last of them, then the frames of more.
func writeLog(t *testing.T, frames []string, snapshot string, more []string) *faultinject.MemFS {
	t.Helper()
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatal(err)
	}
	for _, f := range frames {
		if _, err := w.Append([]byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	if snapshot != "" {
		if err := w.CheckpointAt([]byte(snapshot), w.LastLSN()); err != nil {
			t.Fatal(err)
		}
	}
	for _, f := range more {
		if _, err := w.Append([]byte(f)); err != nil {
			t.Fatal(err)
		}
	}
	if err := w.Close(); err != nil {
		t.Fatal(err)
	}
	return fs
}

// TestRetiredLogFormat pins what a log of the per-operation format opens
// to: a transaction was a Begin record, one record per row it wrote (which
// also carried a "Before" key redo never read), and a Commit or Abort, and
// snapshots carried a transaction counter and a fence. A single node that
// format's release shut down cleanly has its rows in the shutdown snapshot
// and only row-less records above it — it opens to exactly its committed
// state and keeps writing. A log with a row record above its snapshot is
// refused by the record's kind, never partly replayed.
func TestRetiredLogFormat(t *testing.T) {
	const begin, commit, abort, insert, update, del = 2, 3, 4, 5, 6, 7
	row := func(k string, v int) string {
		return fmt.Sprintf(`[{"Kind":3,"I":0,"F":0,"S":%q,"B":false},{"Kind":1,"I":%d,"F":0,"S":"","B":false}]`, k, v)
	}
	rec := func(lsn, txn, op int, table string, rowID int, before, after string) string {
		return fmt.Sprintf(`{"LSN":%d,"Txn":%d,"Op":%d,"Table":%q,"Column":"","Ordered":false,"Schema":null,"RowID":%d,"Before":%s,"After":%s}`,
			lsn, txn, op, table, rowID, before, after)
	}
	history := []string{
		`{"LSN":1,"Txn":0,"Op":0,"Table":"t","Column":"","Ordered":false,"Schema":{"Columns":[{"Name":"k","Kind":3},{"Name":"v","Kind":1}]},"RowID":0,"Before":null,"After":null}`,
		rec(2, 1, begin, "", 0, "null", "null"),
		rec(3, 1, insert, "t", 1, "null", row("a", 1)),
		rec(4, 1, insert, "t", 2, "null", row("b", 2)),
		rec(5, 1, commit, "", 0, "null", "null"),
		rec(6, 2, begin, "", 0, "null", "null"),
		rec(7, 2, update, "t", 1, row("a", 1), row("a", 10)),
		rec(8, 2, del, "t", 2, row("b", 2), "null"),
		rec(9, 2, commit, "", 0, "null", "null"),
	}
	// After its shutdown checkpoint at the last commit: a statement that
	// failed before writing a row, and a transaction that only read.
	rowless := []string{
		rec(10, 3, begin, "", 0, "null", "null"),
		rec(11, 3, abort, "", 0, "null", "null"),
		rec(12, 4, begin, "", 0, "null", "null"),
		rec(13, 4, commit, "", 0, "null", "null"),
	}
	snapshot := `{"TxnSeq":2,"FenceLSN":9,"Tables":[{"Name":"t","Schema":{"Columns":[{"Name":"k","Kind":3},{"Name":"v","Kind":1}]},` +
		`"NextID":2,"Rows":[{"ID":1,"Row":` + row("a", 10) + `}],"HashIdx":null,"OrdIdx":null}]}`
	clean := writeLog(t, history, snapshot, rowless)
	for name, open := range recoveries {
		db := open(t, clean.AfterCrash(false))
		if got, want := tableRows(t, db, "t"), map[string]int64{"a": 10}; !reflect.DeepEqual(got, want) {
			t.Fatalf("%s: clean shutdown recovered %v, want %v", name, got, want)
		}
	}
	// The opened log keeps writing, in the current format.
	db := openDurable(t, clean)
	if _, err := db.Exec("UPDATE t SET v = 11 WHERE k = 'a'"); err != nil {
		t.Fatal(err)
	}
	if got, want := tableRows(t, openDurable(t, clean.AfterCrash(true)), "t"), map[string]int64{"a": 11}; !reflect.DeepEqual(got, want) {
		t.Fatalf("after one more update, recovered %v, want %v", got, want)
	}

	// Row records above the snapshot: the whole history with no checkpoint,
	// and a transaction that wrote a row and aborted after the last one.
	unfinished := []string{rec(10, 3, begin, "", 0, "null", "null"), rec(11, 3, insert, "t", 2, "null", row("c", 3)), rec(12, 3, abort, "", 0, "null", "null")}
	for desc, fs := range map[string]*faultinject.MemFS{
		"no checkpoint":            writeLog(t, history, "", nil),
		"row record above the end": writeLog(t, history, snapshot, unfinished),
	} {
		w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
		if err != nil {
			t.Fatal(err)
		}
		if _, err := OpenDatabase(w); err == nil || !strings.Contains(err.Error(), "(Insert) belongs to the retired per-operation log format") {
			t.Fatalf("%s: OpenDatabase = %v, want a refusal naming the Insert record", desc, err)
		}
	}
}

// TestRetiredIndexRecords pins what data written while reldb had hash and
// ordered indexes opens to: a log holding CreateIndex records ({"Op":1,…},
// naming the column and whether the index was ordered) and a checkpoint
// listing the indexed columns of a table. An index held nothing the rows
// did not, so both open to the same rows, rowIDs and answers as the same
// history with every index declaration left out, and keep writing.
func TestRetiredIndexRecords(t *testing.T) {
	const (
		ddl    = `{"LSN":1,"Op":0,"Table":"t","Schema":{"Columns":[{"Name":"k","Kind":3},{"Name":"v","Kind":1}]}}`
		hash   = `{"LSN":2,"Op":1,"Table":"t","Column":"k"}`
		order  = `{"LSN":3,"Op":1,"Table":"t","Column":"v","Ordered":true}`
		a1, b2 = `[{"Kind":3,"S":"a"},{"Kind":1,"I":1}]`, `[{"Kind":3,"S":"b"},{"Kind":1,"I":2}]`
		c3, d4 = `[{"Kind":3,"S":"c"},{"Kind":1,"I":3}]`, `[{"Kind":3,"S":"d"},{"Kind":1,"I":4}]`
		b20    = `[{"Kind":3,"S":"b"},{"Kind":1,"I":20}]`
		load   = `{"Op":3,"Changes":[{"Table":"t","RowID":1,"Row":` + a1 + `},{"Table":"t","RowID":2,"Row":` + b2 + `},{"Table":"t","RowID":3,"Row":` + c3 + `}]}`
		change = `{"Op":3,"Changes":[{"Table":"t","RowID":2,"Row":` + b20 + `},{"Table":"t","RowID":3,"Row":null},{"Table":"t","RowID":4,"Row":` + d4 + `}]}`
		table  = `{"Name":"t","Schema":{"Columns":[{"Name":"k","Kind":3},{"Name":"v","Kind":1}]},"NextID":3,` +
			`"Rows":[{"ID":1,"Row":` + a1 + `},{"ID":2,"Row":` + b2 + `},{"ID":3,"Row":` + c3 + `}]`
	)
	cases := []struct {
		desc          string
		indexed, bare *faultinject.MemFS
	}{
		{"log", writeLog(t, []string{ddl, hash, order, load, change}, "", nil),
			writeLog(t, []string{ddl, load, change}, "", nil)},
		{"checkpoint", writeLog(t, []string{ddl, hash, order, load}, `{"Tables":[`+table+`,"HashIdx":["k"],"OrdIdx":["v"]}]}`, []string{order, change}),
			writeLog(t, []string{ddl, load}, `{"Tables":[`+table+`}]}`, []string{change})},
	}
	queries := []string{
		"SELECT * FROM t",
		"SELECT k FROM t WHERE k = 'b'",
		"SELECT k, v FROM t WHERE v >= 2 ORDER BY v DESC",
		"SELECT COUNT(*), MAX(v) FROM t WHERE v < 10",
	}
	for _, c := range cases {
		for name, open := range recoveries {
			desc := c.desc + " via " + name
			indexed, bare := open(t, c.indexed.AfterCrash(false)), open(t, c.bare.AfterCrash(false))
			assertDBEqual(t, indexed, bare, desc)
			if got, want := tableRows(t, indexed, "t"), map[string]int64{"a": 1, "b": 20, "d": 4}; !reflect.DeepEqual(got, want) {
				t.Fatalf("%s: rows %v, want %v", desc, got, want)
			}
			for _, q := range queries {
				if got, want := fmt.Sprint(mustExec(t, indexed, q).Rows), fmt.Sprint(mustExec(t, bare, q).Rows); got != want {
					t.Fatalf("%s: %s answers %s, without the index declarations %s", desc, q, got, want)
				}
			}
		}
		db := openDurable(t, c.indexed)
		mustExec(t, db, "INSERT INTO t VALUES ('e', 5)")
		if got := tableRows(t, openDurable(t, c.indexed.AfterCrash(true)), "t"); got["e"] != 5 || len(got) != 4 {
			t.Fatalf("%s: after one more insert, recovered %v", c.desc, got)
		}
	}
}

// TestOpenDatabaseRefusesUnreadableSegment: a log segment that cannot be
// read back after the log itself opened must fail OpenDatabase — never yield
// a database missing the commits that segment held.
func TestOpenDatabaseRefusesUnreadableSegment(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 1024}
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(w)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := db.Exec("CREATE TABLE t (k TEXT, v INT)"); err != nil {
		t.Fatal(err)
	}
	for i := 0; i < 30; i++ {
		if _, err := db.Exec(fmt.Sprintf("INSERT INTO t VALUES ('k%d', %d)", i, i)); err != nil {
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
		if db2, err := OpenDatabase(w2); err == nil {
			t.Fatalf("%s unreadable: OpenDatabase returned a database with %d of 30 rows", seg, len(tableRows(t, db2, "t")))
		}
	}
}

// TestCorruptSealedSegmentRefusesStart: a database whose log has a bad
// frame in a sealed segment — one with a later segment beside it, so
// synced and acknowledged — does not start: its WAL refuses to open with
// wal.ErrCorrupt, and every segment stays on disk as it was, for repair
// or forensics, instead of the log being cut there and the later commits
// dropped.
func TestCorruptSealedSegmentRefusesStart(t *testing.T) {
	fs := faultinject.NewMemFS()
	opts := wal.Options{FS: fs, Policy: wal.SyncAlways, SegmentBytes: 512}
	w, err := wal.Open(opts)
	if err != nil {
		t.Fatal(err)
	}
	db, err := OpenDatabase(w)
	if err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	for i := 0; i < 40; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO kv VALUES ('k%02d', %d)", i, i))
	}
	w.Close()
	assertSealedCorruptionRefused(t, fs, func() error {
		w, err := wal.Open(opts)
		if err != nil {
			return err
		}
		defer w.Close()
		_, err = OpenDatabase(w)
		return err
	})
}

// assertSealedCorruptionRefused flips a bit in the first frame's payload
// of fs's first segment, which must have a later one beside it, and holds
// open to refusing with wal.ErrCorrupt and leaving every file as it was.
func assertSealedCorruptionRefused(t *testing.T, fs *faultinject.MemFS, open func() error) {
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
	if len(segs) < 2 {
		t.Fatalf("want a sealed segment, have %v", names)
	}
	data, _ := fs.ReadFile(segs[0])
	data[16+1] ^= 0x40
	if err := fs.WriteTrunc(segs[0], data); err != nil {
		t.Fatal(err)
	}
	before := map[string][]byte{}
	for _, name := range names {
		before[name], _ = fs.ReadFile(name)
	}
	if err := open(); !errors.Is(err, wal.ErrCorrupt) {
		t.Fatalf("open over a corrupt sealed segment: %v, want wal.ErrCorrupt", err)
	}
	if after, _ := fs.List(); !reflect.DeepEqual(after, names) {
		t.Fatalf("files after the refused open: %v, want %v", after, names)
	}
	for _, name := range names {
		if data, _ := fs.ReadFile(name); !bytes.Equal(data, before[name]) {
			t.Fatalf("the refused open rewrote %s", name)
		}
	}
}
