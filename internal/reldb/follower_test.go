package reldb

import (
	"errors"
	"testing"

	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/wal"
)

// shipAll streams every durable leader record into the follower via a WAL
// cursor, appending to the follower's local WAL first — the same order the
// replication layer uses.
func shipAll(t *testing.T, leader *wal.WAL, fw *wal.WAL, f *Follower) {
	t.Helper()
	c, err := leader.OpenCursor(fw.LastLSN())
	if err != nil {
		t.Fatalf("OpenCursor: %v", err)
	}
	for {
		rec, ok, err := c.Next()
		if err != nil {
			t.Fatalf("cursor: %v", err)
		}
		if !ok {
			return
		}
		if lsn, err := fw.Append(rec.Payload); err != nil || lsn != rec.LSN {
			t.Fatalf("follower wal append: lsn=%d err=%v, want lsn=%d", lsn, err, rec.LSN)
		}
		if err := f.Apply(rec.LSN, rec.Payload); err != nil {
			t.Fatalf("follower apply lsn %d: %v", rec.LSN, err)
		}
	}
}

func leaderWAL(t *testing.T, fs wal.FS) *wal.WAL {
	t.Helper()
	w, err := wal.Open(wal.Options{FS: fs, Policy: wal.SyncAlways})
	if err != nil {
		t.Fatalf("wal.Open: %v", err)
	}
	return w
}

func TestFollowerTracksLeader(t *testing.T) {
	lfs := faultinject.NewMemFS()
	db := openDurable(t, lfs)
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	mustExec(t, db, "CREATE TABLE other (k TEXT)")
	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO kv VALUES ('a', 1)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	if _, err := txn.Exec("INSERT INTO kv VALUES ('b', 2)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	// An aborted transaction logs nothing, so nothing of it ships.
	txn2 := db.Begin()
	if _, err := txn2.Exec("INSERT INTO kv VALUES ('ghost', 9)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}
	txn2.Abort()
	mustExec(t, db, "UPDATE kv SET v = 10 WHERE k = 'a'")

	ffs := faultinject.NewMemFS()
	fw := leaderWAL(t, ffs)
	f, err := OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	lw := db.Log()
	lw.mu.Lock()
	leaderBack := lw.w
	lw.mu.Unlock()
	shipAll(t, leaderBack, fw, f)
	if got := tableRows(t, f.DB(), "kv"); got["a"] != 10 || got["b"] != 2 || len(got) != 2 {
		t.Fatalf("follower rows = %v", got)
	}
	// The follower's materialization is exactly what crash recovery of the
	// leader's WAL would produce.
	if err := leaderBack.Close(); err != nil {
		t.Fatalf("Close leader wal: %v", err)
	}
	ref := openDurable(t, lfs)
	assertDBEqual(t, ref, f.DB(), "follower vs recovered leader")
}

func TestFollowerBuffersUncommitted(t *testing.T) {
	lfs := faultinject.NewMemFS()
	db := openDurable(t, lfs)
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO kv VALUES ('open', 1)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}

	ffs := faultinject.NewMemFS()
	fw := leaderWAL(t, ffs)
	f, err := OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	lw := db.Log()
	lw.mu.Lock()
	leaderBack := lw.w
	lw.mu.Unlock()
	shipAll(t, leaderBack, fw, f)
	// The transaction is still open: nothing materialized.
	if got := tableRows(t, f.DB(), "kv"); len(got) != 0 {
		t.Fatalf("uncommitted rows visible on follower: %v", got)
	}
	// Follower restarts mid-transaction: the open transaction has shipped
	// nothing, so its own WAL holds nothing of it either.
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	fw = leaderWAL(t, ffs)
	f, err = OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower after restart: %v", err)
	}
	if got := tableRows(t, f.DB(), "kv"); len(got) != 0 {
		t.Fatalf("uncommitted rows visible after restart: %v", got)
	}
	// The commit record — the whole transaction — arrives after the restart.
	if err := txn.Commit(); err != nil {
		t.Fatalf("Commit: %v", err)
	}
	shipAll(t, leaderBack, fw, f)
	if got := tableRows(t, f.DB(), "kv"); got["open"] != 1 {
		t.Fatalf("committed row missing after late commit: %v", got)
	}
}

func TestFollowerPromote(t *testing.T) {
	lfs := faultinject.NewMemFS()
	db := openDurable(t, lfs)
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO kv VALUES ('a', 1)")
	// An in-flight transaction at the moment the leader dies.
	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO kv VALUES ('dangling', 7)"); err != nil {
		t.Fatalf("INSERT: %v", err)
	}

	ffs := faultinject.NewMemFS()
	fw := leaderWAL(t, ffs)
	f, err := OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	lw := db.Log()
	lw.mu.Lock()
	leaderBack := lw.w
	lw.mu.Unlock()
	shipAll(t, leaderBack, fw, f)

	promoted, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	// The dangling transaction died with the old leader.
	if got := tableRows(t, promoted, "kv"); got["a"] != 1 || len(got) != 1 {
		t.Fatalf("promoted rows = %v", got)
	}
	// The promoted database accepts writes and they are durable in the
	// follower's own WAL.
	mustExec(t, promoted, "INSERT INTO kv VALUES ('post', 2)")
	if err := promoted.Log().Err(); err != nil {
		t.Fatalf("promoted log: %v", err)
	}
	if err := fw.Close(); err != nil {
		t.Fatalf("Close: %v", err)
	}
	re := openDurable(t, ffs)
	if got := tableRows(t, re, "kv"); got["a"] != 1 || got["post"] != 2 || len(got) != 2 {
		t.Fatalf("recovered promoted rows = %v", got)
	}
	// The dead follower refuses further replication traffic.
	if err := f.Apply(f.AppliedLSN()+1, []byte("{}")); err == nil {
		t.Fatal("Apply after Promote succeeded")
	}
}

// TestFollowerDatabaseIsReadOnly: the database a follower hands out refuses
// DDL, Begin and every DML statement — leaving its version and log
// position untouched — serves reads, and takes writes once Promote has
// handed it over.
func TestFollowerDatabaseIsReadOnly(t *testing.T) {
	db := openDurable(t, faultinject.NewMemFS())
	mustExec(t, db, "CREATE TABLE kv (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO kv VALUES ('a', 1)")
	fw := leaderWAL(t, faultinject.NewMemFS())
	f, err := OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	lw := db.Log()
	lw.mu.Lock()
	leaderBack := lw.w
	lw.mu.Unlock()
	shipAll(t, leaderBack, fw, f)

	replica := f.DB()
	position := func() (version, lsn int64) {
		replica.log.mu.Lock()
		defer replica.log.mu.Unlock()
		return replica.versions.Load().lsn, replica.log.nextLSN
	}
	version, lsn := position()
	for _, src := range []string{
		"INSERT INTO kv VALUES ('x', 9)",
		"UPDATE kv SET v = 9",
		"DELETE FROM kv",
		"CREATE TABLE other (k TEXT)",
		"CREATE TABLE kv (k TEXT, v INT)",
	} {
		if _, err := replica.Exec(src); !errors.Is(err, errReadOnly) {
			t.Errorf("%q on a follower's database: %v, want errReadOnly", src, err)
		}
	}
	txn := replica.Begin()
	if _, err := txn.Exec("INSERT INTO kv VALUES ('x', 9)"); !errors.Is(err, errReadOnly) {
		t.Errorf("statement in a transaction begun on a follower: %v, want errReadOnly", err)
	}
	if err := txn.Commit(); !errors.Is(err, errReadOnly) {
		t.Errorf("Commit of a transaction begun on a follower: %v, want errReadOnly", err)
	}
	txn.Abort()
	if got := tableRows(t, replica, "kv"); got["a"] != 1 || len(got) != 1 {
		t.Errorf("follower rows after refused writes = %v", got)
	}
	if v2, l2 := position(); v2 != version || l2 != lsn {
		t.Errorf("refused writes moved the follower: version %d -> %d, log %d -> %d", version, v2, lsn, l2)
	}

	promoted, err := f.Promote()
	if err != nil {
		t.Fatalf("Promote: %v", err)
	}
	mustExec(t, promoted, "UPDATE kv SET v = 2 WHERE k = 'a'")
	if got := tableRows(t, promoted, "kv"); got["a"] != 2 {
		t.Errorf("promoted rows = %v", got)
	}
}
