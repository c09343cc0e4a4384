package reldb

import (
	"fmt"
	"reflect"
	"testing"

	"webdbsec/internal/resilience/faultinject"
)

// TestRecoverIdempotent: recovering a recovered database's WAL yields an
// identical database — tables, rows (with rowIDs) and the transaction
// sequence. Regression guard for the redo path: if replay ever
// mutated the log it replays from, or produced state whose re-serialized
// history diverged, chained recoveries (crash during recovery, recovery of
// a standby's copy) would drift.
func TestRecoverIdempotent(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "CREATE TABLE u (k TEXT)")
	for i := 0; i < 10; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO t VALUES ('k%d', %d)", i, i))
	}
	// Interleave commit, abort and mixed-DML transactions so the log has
	// records that must not be redone next to ones that must.
	txn := db.Begin()
	txn.Exec("INSERT INTO t VALUES ('doomed', 666)")
	txn.Abort()
	txn = db.Begin()
	txn.Exec("UPDATE t SET v = 50 WHERE k = 'k5'")
	txn.Exec("DELETE FROM t WHERE k = 'k6'")
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}

	// The first recovery opens (and so may repair) the crash image; the
	// second recovers what the first left on disk.
	crashed := fs.AfterCrash(true)
	once := openDurable(t, crashed)
	twice := openDurable(t, crashed.AfterCrash(true))
	assertDBEqual(t, once, twice, "recover(recover(wal))")

	// And both agree with the live database's committed state. (Content
	// comparison, not structural: the aborted insert consumed a rowID on
	// the live database that recovery — which never materializes aborted
	// rows — legitimately does not reserve.)
	if live, rec := tableRows(t, db, "t"), tableRows(t, once, "t"); !reflect.DeepEqual(live, rec) {
		t.Fatalf("recovered content differs from live: %v vs %v", rec, live)
	}

	// The recovered database is usable: it accepts new transactions whose
	// ids do not collide with replayed history.
	txn = twice.Begin()
	if _, err := txn.Exec("INSERT INTO t VALUES ('post', 1)"); err != nil {
		t.Fatalf("exec on twice-recovered db: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	rows := tableRows(t, twice, "t")
	if rows["post"] != 1 || rows["k5"] != 50 {
		t.Fatalf("twice-recovered db state wrong: %v", rows)
	}
	if _, ok := rows["doomed"]; ok {
		t.Fatal("aborted insert resurrected by recovery")
	}
}
