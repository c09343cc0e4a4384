package reldb

import (
	"fmt"
	"reflect"
	"testing"

	"webdbsec/internal/resilience/faultinject"
)

// TestMultiRowInsertIsOneCommit: N tuples get consecutive row ids in
// order, across chunk boundaries, and one Commit record carrying N
// changes at the statement's LSN. The table equals the one N single-row
// INSERTs build, and redo, a follower opened over the log and a follower
// fed record by record all rebuild it from that record.
func TestMultiRowInsertIsOneCommit(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	ref := NewDatabase()
	for _, d := range []*Database{db, ref} {
		mustExec(t, d, "CREATE TABLE t (k TEXT, v INT)")
		mustExec(t, d, "INSERT INTO t VALUES ('first', -1)")
	}
	w := db.log.w
	last := w.LastLSN()
	rows := make([][]Value, 600) // ids 2..601: three chunks of 256 ids
	for i := range rows {
		rows[i] = []Value{Str(fmt.Sprintf("k%03d", i)), Int(int64(i))}
	}
	res := mustExec(t, db, insertText("t", rows))
	if res.Affected != len(rows) || res.LSN != int64(w.LastLSN()) {
		t.Fatalf("Affected %d at LSN %d, want %d at the log tail %d", res.Affected, res.LSN, len(rows), w.LastLSN())
	}
	recs := recordsSince(t, w, last)
	if len(recs) != 1 || recs[0].Op != OpCommit || len(recs[0].Changes) != len(rows) {
		t.Fatalf("a %d-row INSERT added %d records, want one Commit with %d changes", len(rows), len(recs), len(rows))
	}
	for i, c := range recs[0].Changes {
		if c.Table != "t" || c.RowID != int64(i+2) || !reflect.DeepEqual(c.Row, Row(rows[i])) {
			t.Fatalf("change %d = %+v, want row %d = %v", i, c, i+2, rows[i])
		}
	}

	for _, r := range rows {
		mustExec(t, ref, insertText("t", [][]Value{r}))
	}
	assertDBEqual(t, db, ref, "one multi-row INSERT vs one INSERT per row")
	assertDBEqual(t, db, openDurable(t, fs.AfterCrash(true)), "redo of the Commit record")
	opened, err := OpenFollower(leaderWAL(t, fs.AfterCrash(true)))
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	assertDBEqual(t, db, opened.DB(), "follower opened over the leader's log")
	fw := leaderWAL(t, faultinject.NewMemFS())
	shipped, err := OpenFollower(fw)
	if err != nil {
		t.Fatalf("OpenFollower: %v", err)
	}
	shipAll(t, w, fw, shipped)
	assertDBEqual(t, db, shipped.DB(), "follower applying the shipped records")
}

// TestMultiRowInsertAllOrNothing: when any tuple fails its schema or a
// constraint — the last one included — the statement writes no row and no
// log record, and neither the version nor the LSN moves; inside an
// explicit transaction it leaves nothing for Commit either.
func TestMultiRowInsertAllOrNothing(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	nonNeg := MustParse("SELECT * FROM t WHERE v >= 0").(*SelectStmt).Where
	mustNoErr(t, db.AddCheck(&CheckConstraint{Name: "non-negative", Table: "t", Check: nonNeg}))
	mustNoErr(t, db.AddNotNull("t", "k"))
	w := db.log.w
	nextLSN := func() int64 {
		db.log.mu.Lock()
		defer db.log.mu.Unlock()
		return db.log.nextLSN
	}
	bad := []string{
		"INSERT INTO t VALUES ('b', 2), ('c')",
		"INSERT INTO t VALUES ('b', 2), ('c', 3, 4)",
		"INSERT INTO t VALUES ('b', 2), (3, 'c')",
		"INSERT INTO t VALUES ('b', 2), ('c', 3.5)",
		"INSERT INTO t VALUES ('b', 2), ('c', 3), ('d', -1)",
		"INSERT INTO t VALUES ('b', 2), (NULL, 3)",
		"INSERT INTO t VALUES (1, 'b'), ('c', 3)",
	}
	for _, src := range bad {
		version, walLSN, logLSN := db.versions.Load(), w.LastLSN(), nextLSN()
		if res, err := db.Exec(src); err == nil {
			t.Fatalf("%s: %+v, want an error", src, res)
		}
		if db.versions.Load() != version || w.LastLSN() != walLSN || nextLSN() != logLSN {
			t.Fatalf("%s failed but moved the database: version changed %v, wal LSN %d -> %d, log LSN %d -> %d",
				src, db.versions.Load() != version, walLSN, w.LastLSN(), logLSN, nextLSN())
		}
	}

	last := w.LastLSN()
	txn := db.Begin()
	for _, src := range bad {
		if _, err := txn.Exec(src); err == nil {
			t.Fatalf("%s succeeded inside a transaction", src)
		}
	}
	if res, err := txn.Exec("INSERT INTO t VALUES ('b', 2), ('c', 3)"); err != nil || res.Affected != 2 {
		t.Fatalf("valid INSERT after the failed ones: %+v, %v", res, err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	recs := recordsSince(t, w, last)
	if got, want := fmt.Sprint(recs[0].Changes), "[{t 2 [b 2]} {t 3 [c 3]}]"; len(recs) != 1 || got != want {
		t.Fatalf("the transaction logged %d records, first with %s, want one with %s", len(recs), got, want)
	}
	want := "[[a 1] [b 2] [c 3]]"
	if got := fmt.Sprint(mustExec(t, db, "SELECT * FROM t").Rows); got != want {
		t.Fatalf("table reads %s, want %s", got, want)
	}
	if got := fmt.Sprint(mustExec(t, openDurable(t, fs.AfterCrash(true)), "SELECT * FROM t").Rows); got != want {
		t.Fatalf("after recovery the table reads %s, want %s", got, want)
	}
}
