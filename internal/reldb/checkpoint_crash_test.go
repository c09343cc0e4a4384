package reldb

import (
	"fmt"
	"sync"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// fuzzyCheckpointWorkload is the scripted workload the fuzzy-checkpoint
// crash matrix kills at every point: three commits, then a checkpoint
// taken while one transaction is held open across it (it has written, but
// logged nothing yet) and a committer races the snapshot stream into a
// second table, then the straddling transaction commits, more commits
// land, and a second checkpoint truncates at quiescence. It returns the
// durably acknowledged facts and the LSN every fact's commit was assigned;
// under SyncAlways an acknowledgement means the commit record was fsynced,
// so every acknowledged fact must survive a crash anywhere in the stream —
// including inside the checkpoint's snapshot write, fsync and rename.
func fuzzyCheckpointWorkload(fs *faultinject.MemFS) (acked map[string]bool, lsns map[string]int64) {
	acked, lsns = make(map[string]bool), make(map[string]int64)
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		return acked, lsns
	}
	db, err := OpenDatabase(w)
	if err != nil {
		return acked, lsns
	}
	db.Exec("CREATE TABLE t (k TEXT, v INT)")
	db.Exec("CREATE TABLE u (k TEXT, v INT)")
	var mu sync.Mutex
	finish := func(txn *Txn, k string) {
		lsn, err := txn.commit()
		mu.Lock()
		defer mu.Unlock()
		lsns[k] = lsn
		if err == nil {
			acked[k] = true
		}
	}
	commit := func(table, k string, v int) {
		txn := db.Begin()
		txn.Exec(fmt.Sprintf("INSERT INTO %s VALUES ('%s', %d)", table, k, v))
		finish(txn, k)
	}
	for i := 0; i < 3; i++ {
		commit("t", fmt.Sprintf("k%d", i), i)
	}

	// One transaction straddles the checkpoint (it holds t's lock, so the
	// racing committer targets u) and one goroutine commits while the
	// snapshot streams out — the "commits continue during Checkpoint"
	// half of the fuzzy contract.
	inflight := db.Begin()
	inflight.Exec("INSERT INTO t VALUES ('mid', 100)")
	var race sync.WaitGroup
	race.Add(1)
	go func() {
		defer race.Done()
		for i := 0; i < 3; i++ {
			commit("u", fmt.Sprintf("c%d", i), 10+i)
		}
	}()
	db.Checkpoint() // seclint:exempt crash workload: a fault-injected checkpoint may legally fail; invariants are checked against acknowledgements
	race.Wait()
	finish(inflight, "mid")
	for i := 3; i < 5; i++ {
		commit("t", fmt.Sprintf("k%d", i), i)
	}
	db.Checkpoint() // seclint:exempt crash workload: quiescent this time (full tail truncation); may legally fail under injected faults
	commit("t", "k5", 5)
	return acked, lsns
}

// fuzzyCheckpointFacts maps every fact the workload can acknowledge to
// the table and value it must recover with.
var fuzzyCheckpointFacts = map[string]struct {
	table string
	v     int64
}{
	"k0": {"t", 0}, "k1": {"t", 1}, "k2": {"t", 2},
	"k3": {"t", 3}, "k4": {"t", 4}, "k5": {"t", 5},
	"mid": {"t", 100},
	"c0":  {"u", 10}, "c1": {"u", 11}, "c2": {"u", 12},
}

// openPromoted recovers the way a failover does: open the WAL as a
// follower, then promote it.
func openPromoted(t *testing.T, fs wal.FS) *Database {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	f, err := OpenFollower(w)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	db, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	return db
}

// imageSnapshot returns the checkpoint snapshot in img, restored but not
// replayed onto, and the LSN the WAL holds it at (0 when there is none).
func imageSnapshot(t *testing.T, img *faultinject.MemFS) (map[string]*Table, int64) {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: img.AfterCrash(false), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	payload, lsn, _ := w.Snapshot()
	st, err := restoreSnap(payload)
	if err != nil {
		t.Fatalf("restore snapshot: %v", err)
	}
	return st.frozen(), int64(lsn)
}

// checkFuzzyCheckpointInvariants recovers a post-crash image through open
// and asserts the fuzzy-checkpoint durability contract: every acknowledged
// fact is present with its exact value (a crash mid-snapshot must fall back
// to the previous snapshot plus the untruncated log — a torn snapshot is
// never accepted), nothing unacknowledged materializes corrupted, recovery
// of the same image is deterministic, and the recovered database never
// reassigns an LSN at or below the snapshot's (the next recovery would
// skip a commit stamped there as already inside the snapshot). The
// snapshot itself is the pinned version at its own LSN — fence and
// truncation point are one — so it holds exactly the facts whose commit
// LSN (lsns) is at or below that LSN.
func checkFuzzyCheckpointInvariants(t *testing.T, img *faultinject.MemFS, acked map[string]bool, lsns map[string]int64, desc string, open func(*testing.T, wal.FS) *Database) {
	t.Helper()
	snapTables, fence := imageSnapshot(t, img)
	if fence > 0 {
		for fact, lsn := range lsns {
			tbl, ok := snapTables[fuzzyCheckpointFacts[fact].table]
			in := false
			if ok {
				in = tableHasKey(tbl, fact)
			}
			if in != (lsn > 0 && lsn <= fence) {
				t.Fatalf("%s: snapshot at LSN %d holds %s=%v, committed at LSN %d", desc, fence, fact, in, lsn)
			}
		}
	}
	db := open(t, img)
	rows := map[string]map[string]int64{
		"t": tableRows(t, db, "t"),
		"u": tableRows(t, db, "u"),
	}
	for fact := range acked {
		wf := fuzzyCheckpointFacts[fact]
		tr := rows[wf.table]
		if tr == nil {
			t.Fatalf("%s: table %s lost but %s was acknowledged", desc, wf.table, fact)
		}
		v, ok := tr[fact]
		if !ok {
			t.Fatalf("%s: acknowledged %s lost across checkpoint crash: rows = %v", desc, fact, tr)
		}
		if v != wf.v {
			t.Fatalf("%s: acknowledged %s recovered as %d, want %d", desc, fact, v, wf.v)
		}
	}
	// No phantom or corrupt rows: everything recovered must be a workload
	// fact in its own table with its exact value.
	for tbl, tr := range rows {
		for k, v := range tr {
			wf, ok := fuzzyCheckpointFacts[k]
			if !ok || wf.table != tbl || wf.v != v {
				t.Fatalf("%s: phantom or corrupt row %s=%d in %s", desc, k, v, tbl)
			}
		}
	}
	assertDBEqual(t, db, open(t, img.AfterCrash(false)), desc+" (recover twice)")
	if _, ok := db.Table("t"); !ok {
		return
	}
	res := mustExec(t, db, "INSERT INTO t VALUES ('post', 1)")
	if res.LSN <= fence {
		t.Fatalf("%s: commit after recovery got LSN %d, at or below the snapshot's %d", desc, res.LSN, fence)
	}
	if got := tableRows(t, open(t, img.AfterCrash(true)), "t"); got["post"] != 1 {
		t.Fatalf("%s: commit acknowledged after recovery lost by the next recovery: %v", desc, got)
	}
}

// recoveries are the ways a crashed image comes back: a single-node
// restart, and a replica promoted over the same log. They must agree.
var recoveries = map[string]func(*testing.T, wal.FS) *Database{
	"OpenDatabase":         openDurable,
	"OpenFollower+Promote": openPromoted,
}

// TestCrashMatrixFuzzyCheckpoint kills the store at sampled byte offsets
// and inside every fsync of a stream that contains two checkpoints — one
// taken with a transaction straddling it and commits racing the snapshot
// write, one at quiescence. The committer interleaving varies run to run;
// invariants are checked against the acknowledgements each run actually
// handed out. Both legal post-crash images (unsynced tail kept and
// dropped) are recovered at every point.
func TestCrashMatrixFuzzyCheckpoint(t *testing.T) {
	dry := faultinject.NewMemFS()
	acked, _ := fuzzyCheckpointWorkload(dry)
	if len(acked) != len(fuzzyCheckpointFacts) {
		t.Fatalf("dry run acknowledged %d facts, want %d", len(acked), len(fuzzyCheckpointFacts))
	}
	total := dry.BytesWritten()
	syncs := dry.SyncCount()
	if total == 0 || syncs == 0 {
		t.Fatalf("dry run wrote %d bytes, %d fsyncs", total, syncs)
	}

	byteStride, syncStride := int64(23), int64(1)
	if testing.Short() {
		byteStride, syncStride = 197, 3
	}
	points := 0
	for b := int64(0); b < total; b += byteStride {
		fs := faultinject.NewMemFS()
		fs.LimitWriteBytes(b)
		a, lsns := fuzzyCheckpointWorkload(fs)
		for _, drop := range []bool{false, true} {
			for name, open := range recoveries {
				checkFuzzyCheckpointInvariants(t, fs.AfterCrash(drop), a, lsns,
					fmt.Sprintf("checkpoint crash at byte %d dropUnsynced=%v via %s", b, drop, name), open)
			}
		}
		points++
	}
	for k := int64(0); k < syncs; k += syncStride {
		fs := faultinject.NewMemFS()
		fs.LimitSyncs(k)
		a, lsns := fuzzyCheckpointWorkload(fs)
		for _, drop := range []bool{false, true} {
			for name, open := range recoveries {
				checkFuzzyCheckpointInvariants(t, fs.AfterCrash(drop), a, lsns,
					fmt.Sprintf("checkpoint crash inside fsync %d dropUnsynced=%v via %s", k, drop, name), open)
			}
		}
		points++
	}
	t.Logf("fuzzy-checkpoint crash matrix: %d points × 2 images over ~%d bytes / %d fsyncs", points, total, syncs)
}

// TestRecoveryReanchorsAtFence is the directed case the matrix does not
// reach under SyncAlways: the log does not fsync on commit, so a crash right
// after a fuzzy checkpoint's snapshot rename leaves a durable snapshot above
// every frame on disk (they died unsynced) while a transaction that had
// written straddled the checkpoint. The snapshot's LSN is its fence, so the
// log position every recovery continues from is that fence.
func TestRecoveryReanchorsAtFence(t *testing.T) {
	fs := faultinject.NewMemFS()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncNever})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	db, err := OpenDatabase(w)
	if err != nil {
		t.Fatalf("OpenDatabase: %v", err)
	}
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "CREATE TABLE u (k TEXT, v INT)")
	straddler := db.Begin()
	if _, err := straddler.Exec("INSERT INTO t VALUES ('mid', 100)"); err != nil {
		t.Fatal(err)
	}
	mustExec(t, db, "INSERT INTO u VALUES ('c0', 10)")
	res := mustExec(t, db, "INSERT INTO u VALUES ('c1', 11)")
	if err := db.Checkpoint(); err != nil {
		t.Fatalf("Checkpoint: %v", err)
	}
	img := fs.AfterCrash(true)

	probe, err := wal.Open(wal.Options{FS: img.AfterCrash(false), Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	if _, fence := imageSnapshot(t, img); fence != res.LSN || fence != int64(probe.LastLSN()) {
		t.Fatalf("snapshot at LSN %d, want the last commit's %d and the log's end %d", fence, res.LSN, probe.LastLSN())
	}
	for name, open := range recoveries {
		checkFuzzyCheckpointInvariants(t, img.AfterCrash(false), nil, nil, "fence above log via "+name, open)
	}
}

// tableHasKey reports whether a (k TEXT, v INT) table holds a row with k.
func tableHasKey(tbl *Table, k string) bool {
	found := false
	tbl.Scan(func(_ int64, r Row) bool {
		found = r[0].S == k
		return !found
	})
	return found
}
