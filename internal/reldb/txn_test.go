package reldb

import (
	"fmt"
	"sync"
	"testing"
	"time"

	"webdbsec/internal/resilience/faultinject"
)

func TestCommitMakesChangesVisible(t *testing.T) {
	db := empDB(t)
	txn := db.Begin()
	if _, err := txn.Exec("INSERT INTO emp VALUES (6, 'Fay', 'eng', 110)"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT * FROM emp WHERE name = 'Fay'")
	if len(res.Rows) != 1 {
		t.Error("committed insert invisible")
	}
}

func TestAbortUndoesEverything(t *testing.T) {
	db := empDB(t)
	before := mustExec(t, db, "SELECT * FROM emp ORDER BY id")
	txn := db.Begin()
	for _, src := range []string{
		"INSERT INTO emp VALUES (7, 'Gil', 'eng', 60)",
		"UPDATE emp SET salary = 999 WHERE dept = 'eng'",
		"DELETE FROM emp WHERE dept = 'hr'",
	} {
		if _, err := txn.Exec(src); err != nil {
			t.Fatal(err)
		}
	}
	txn.Abort()
	after := mustExec(t, db, "SELECT * FROM emp ORDER BY id")
	if len(after.Rows) != len(before.Rows) {
		t.Fatalf("row count changed: %d -> %d", len(before.Rows), len(after.Rows))
	}
	for i := range before.Rows {
		for j := range before.Rows[i] {
			if Compare(before.Rows[i][j], after.Rows[i][j]) != 0 {
				t.Fatalf("row %d col %d changed: %v -> %v", i, j, before.Rows[i][j], after.Rows[i][j])
			}
		}
	}
}

func TestFinishedTxnRejectsWork(t *testing.T) {
	db := empDB(t)
	txn := db.Begin()
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	if _, err := txn.Exec("SELECT * FROM emp"); err == nil {
		t.Error("exec after commit accepted")
	}
	if err := txn.Commit(); err == nil {
		t.Error("double commit accepted")
	}
	txn.Abort() // no-op, must not panic
}

func TestDDLRejectedInTxn(t *testing.T) {
	db := empDB(t)
	txn := db.Begin()
	defer txn.Abort()
	if _, err := txn.Exec("CREATE TABLE x (a INT)"); err == nil {
		t.Error("DDL in transaction accepted")
	}
}

func TestWriteBlocksWrite(t *testing.T) {
	db := empDB(t)
	db.lockMgr.Timeout = 200 * time.Millisecond
	t1 := db.Begin()
	if _, err := t1.Exec("UPDATE emp SET salary = 1 WHERE id = 1"); err != nil {
		t.Fatal(err)
	}
	t2 := db.Begin()
	_, err := t2.Exec("UPDATE emp SET salary = 2 WHERE id = 2")
	if err != ErrLockTimeout {
		t.Fatalf("conflicting write: err = %v, want lock timeout", err)
	}
	t2.Abort()
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	// After release the table is writable again.
	t3 := db.Begin()
	if _, err := t3.Exec("UPDATE emp SET salary = 3 WHERE id = 2"); err != nil {
		t.Fatalf("write after release: %v", err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestSharedReadersDoNotBlock(t *testing.T) {
	db := empDB(t)
	t1 := db.Begin()
	t2 := db.Begin()
	if _, err := t1.Exec("SELECT * FROM emp"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec("SELECT * FROM emp"); err != nil {
		t.Fatal(err)
	}
	if err := t1.Commit(); err != nil {
		t.Fatal(err)
	}
	if err := t2.Commit(); err != nil {
		t.Fatal(err)
	}
}

// TestReaderDoesNotBlockWriter pins down the MVCC read contract that
// replaced reader/writer locking: a transactional reader takes no lock, so
// a concurrent writer proceeds immediately — and the reader keeps seeing
// its Begin-time snapshot even after the writer's delete commits.
func TestReaderDoesNotBlockWriter(t *testing.T) {
	db := empDB(t)
	db.lockMgr.Timeout = 150 * time.Millisecond
	r := db.Begin()
	res, err := r.Exec("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	before := len(res.Rows)
	w := db.Begin()
	if _, err := w.Exec("DELETE FROM emp"); err != nil {
		t.Fatalf("writer blocked by reader: %v", err)
	}
	if err := w.Commit(); err != nil {
		t.Fatal(err)
	}
	// The reader's snapshot is unaffected by the committed delete.
	res, err = r.Exec("SELECT * FROM emp")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != before {
		t.Fatalf("reader saw %d rows after concurrent delete, want snapshot's %d", len(res.Rows), before)
	}
	if err := r.Commit(); err != nil {
		t.Fatal(err)
	}
	// A fresh reader sees the delete.
	res = mustExec(t, db, "SELECT * FROM emp")
	if len(res.Rows) != 0 {
		t.Fatalf("committed delete invisible to new reader: %d rows", len(res.Rows))
	}
}

func TestReadThenWriteSameTxn(t *testing.T) {
	db := empDB(t)
	txn := db.Begin()
	if _, err := txn.Exec("SELECT * FROM emp"); err != nil {
		t.Fatal(err)
	}
	// Reading never locks; the write acquires the exclusive lock on demand.
	if _, err := txn.Exec("UPDATE emp SET salary = 50 WHERE id = 5"); err != nil {
		t.Fatalf("write after read failed: %v", err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestDeadlockCycleBrokenByTimeout(t *testing.T) {
	// T1 locks a then wants b; T2 locks b then wants a. The lock timeout
	// must break the cycle: at least one transaction errors, the other can
	// finish, and afterwards both tables are writable again.
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE a (v INT)")
	mustExec(t, db, "CREATE TABLE b (v INT)")
	mustExec(t, db, "INSERT INTO a VALUES (1)")
	mustExec(t, db, "INSERT INTO b VALUES (1)")
	db.lockMgr.Timeout = 300 * time.Millisecond

	t1 := db.Begin()
	t2 := db.Begin()
	if _, err := t1.Exec("UPDATE a SET v = 10"); err != nil {
		t.Fatal(err)
	}
	if _, err := t2.Exec("UPDATE b SET v = 20"); err != nil {
		t.Fatal(err)
	}
	errs := make(chan error, 2)
	go func() {
		_, err := t1.Exec("UPDATE b SET v = 11")
		if err != nil {
			t1.Abort()
		} else {
			err = t1.Commit()
		}
		errs <- err
	}()
	go func() {
		_, err := t2.Exec("UPDATE a SET v = 21")
		if err != nil {
			t2.Abort()
		} else {
			err = t2.Commit()
		}
		errs <- err
	}()
	e1, e2 := <-errs, <-errs
	if e1 == nil && e2 == nil {
		t.Fatal("both transactions succeeded through a deadlock cycle")
	}
	if e1 != nil && e2 != nil {
		t.Log("both victims (allowed, though one survivor is preferable)")
	}
	// The system is live afterwards.
	t3 := db.Begin()
	if _, err := t3.Exec("UPDATE a SET v = 99"); err != nil {
		t.Fatalf("system wedged after deadlock: %v", err)
	}
	if _, err := t3.Exec("UPDATE b SET v = 99"); err != nil {
		t.Fatalf("system wedged after deadlock: %v", err)
	}
	if err := t3.Commit(); err != nil {
		t.Fatal(err)
	}
}

func TestConcurrentCommittedInserts(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE n (v INT)")
	var wg sync.WaitGroup
	const workers = 8
	const perWorker = 25
	errs := make(chan error, workers)
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for i := 0; i < perWorker; i++ {
				txn := db.Begin()
				if _, err := txn.Exec("INSERT INTO n VALUES (1)"); err != nil {
					txn.Abort()
					errs <- err
					return
				}
				if err := txn.Commit(); err != nil {
					errs <- err
					return
				}
			}
		}(w)
	}
	wg.Wait()
	close(errs)
	for err := range errs {
		t.Fatal(err)
	}
	res := mustExec(t, db, "SELECT * FROM n")
	if len(res.Rows) != workers*perWorker {
		t.Errorf("rows = %d, want %d", len(res.Rows), workers*perWorker)
	}
}

func TestRecoverReplaysOnlyCommitted(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := loadEmp(t, openDurable(t, fs))

	good := db.Begin()
	good.Exec("INSERT INTO emp VALUES (10, 'Hal', 'eng', 75)")
	if err := good.Commit(); err != nil {
		t.Fatal(err)
	}

	bad := db.Begin()
	bad.Exec("INSERT INTO emp VALUES (11, 'Ivy', 'eng', 76)")
	bad.Abort()

	// Updates and deletes that must replay.
	mustExec(t, db, "UPDATE emp SET salary = 1 WHERE name = 'Ada'")
	mustExec(t, db, "DELETE FROM emp WHERE name = 'Bob'")

	// The crashed transaction starts last: it never commits (and never
	// releases its locks — exactly what a crash looks like to the lock
	// manager).
	crashed := db.Begin()
	crashed.Exec("INSERT INTO emp VALUES (12, 'Jon', 'eng', 77)")

	rec := recoverCrashed(t, fs)
	res := mustExec(t, rec, "SELECT name FROM emp WHERE dept = 'eng' ORDER BY name")
	names := map[string]bool{}
	for _, r := range res.Rows {
		names[r[0].S] = true
	}
	if !names["Hal"] {
		t.Error("committed insert lost in recovery")
	}
	if names["Ivy"] {
		t.Error("aborted insert resurrected — but note abort already undid it; recovery must also skip it")
	}
	if names["Jon"] {
		t.Error("uncommitted insert survived recovery")
	}
	// Untouched rows came back as they were.
	if got := mustExec(t, rec, "SELECT name FROM emp WHERE dept = 'hr'"); len(got.Rows) != 2 {
		t.Errorf("recovered hr rows = %v", got.Rows)
	}
	// Updates and deletes replayed too.
	if got := mustExec(t, rec, "SELECT salary FROM emp WHERE name = 'Ada'"); got.Rows[0][0] != Int(1) {
		t.Error("update not replayed")
	}
	if got := mustExec(t, rec, "SELECT * FROM emp WHERE name = 'Bob'"); len(got.Rows) != 0 {
		t.Error("delete not replayed")
	}
}

// TestFailedStatementInTxnLeavesNoEffect: a statement that fails inside an
// explicit transaction changes nothing — not the rows it reached before the
// row that failed — so committing the transaction afterwards commits only
// what its successful statements did, live and after recovery.
func TestFailedStatementInTxnLeavesNoEffect(t *testing.T) {
	fs := faultinject.NewMemFS()
	db := openDurable(t, fs)
	mustExec(t, db, "CREATE TABLE t (k TEXT, v INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('a', 1)")
	mustExec(t, db, "INSERT INTO t VALUES ('b', 5)")
	pred := MustParse("SELECT * FROM t WHERE k != 'x' OR v < 3").(*SelectStmt).Where
	if err := db.AddCheck(&CheckConstraint{Name: "mix", Table: "t", Check: pred}); err != nil {
		t.Fatal(err)
	}
	txn := db.Begin()
	if _, err := txn.Exec("UPDATE t SET k = 'x' WHERE v >= 0"); err == nil || err.Error() != "reldb: constraint mix violated" {
		t.Fatalf("UPDATE violating mix on its second row: %v", err)
	}
	if _, err := txn.Exec("INSERT INTO t VALUES ('c', 7)"); err != nil {
		t.Fatal(err)
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	want := "[[a 1] [b 5] [c 7]]"
	if got := fmt.Sprint(mustExec(t, db, "SELECT * FROM t").Rows); got != want {
		t.Fatalf("after commit the table reads %s, want %s", got, want)
	}
	if got := fmt.Sprint(mustExec(t, openDurable(t, fs.AfterCrash(true)), "SELECT * FROM t").Rows); got != want {
		t.Fatalf("after recovery the table reads %s, want %s", got, want)
	}
}

func TestAuctionOpenBidModel(t *testing.T) {
	db := NewDatabase()
	a, err := NewAuctionHouse(db)
	if err != nil {
		t.Fatal(err)
	}
	if err := a.Open("painting", "seller1"); err != nil {
		t.Fatal(err)
	}
	// Concurrent bidders do not block each other (no item lock held).
	var wg sync.WaitGroup
	for i := 0; i < 10; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			a.PlaceBid("painting", "bidder", int64(100+i))
		}(i)
	}
	wg.Wait()
	if n, _ := a.Bids("painting"); n != 10 {
		t.Fatalf("bids = %d", n)
	}
	winner, price, err := a.Close("painting")
	if err != nil {
		t.Fatal(err)
	}
	if winner != "bidder" || price != 109 {
		t.Errorf("winner=%s price=%d", winner, price)
	}
	// Closed auction rejects bids and re-close.
	if err := a.PlaceBid("painting", "late", 999); err == nil {
		t.Error("bid on closed auction accepted")
	}
	if _, _, err := a.Close("painting"); err == nil {
		t.Error("double close accepted")
	}
	if err := a.PlaceBid("ghost", "x", 1); err == nil {
		t.Error("bid on unknown item accepted")
	}
}

func TestAuctionNoBids(t *testing.T) {
	db := NewDatabase()
	a, _ := NewAuctionHouse(db)
	a.Open("dud", "seller")
	winner, price, err := a.Close("dud")
	if err != nil {
		t.Fatal(err)
	}
	if winner != "" || price != 0 {
		t.Errorf("winner=%q price=%d", winner, price)
	}
}

// TestAuctionHostileNames: item, seller and bidder names are values, never
// statement text — a quote in a name is stored as written, and a name
// shaped like a predicate matches only the item it names.
func TestAuctionHostileNames(t *testing.T) {
	db := NewDatabase()
	a, err := NewAuctionHouse(db)
	if err != nil {
		t.Fatal(err)
	}
	for _, item := range []string{"o'brien", "plain"} {
		if err := a.Open(item, "o'seller"); err != nil {
			t.Fatalf("Open(%q): %v", item, err)
		}
	}
	if err := a.PlaceBid("o'brien", "d'arcy', 1000) --", 7); err != nil {
		t.Fatal(err)
	}
	if err := NewLockingAuctionHouse(a, 0).PlaceBid("o'brien", "x'y", 5); err != nil {
		t.Fatal(err)
	}
	if n, err := a.Bids("o'brien"); err != nil || n != 2 {
		t.Fatalf("Bids(o'brien) = %d, %v; want 2", n, err)
	}
	if _, _, err := a.Close("z' OR item != '"); err == nil {
		t.Fatal("closing an item nobody opened succeeded")
	}
	winner, price, err := a.Close("o'brien")
	if err != nil || winner != "d'arcy', 1000) --" || price != 7 {
		t.Fatalf("Close(o'brien) = %q, %d, %v", winner, price, err)
	}
	got := fmt.Sprint(mustExec(t, db, "SELECT item, seller, status, winner FROM auction_items ORDER BY item").Rows)
	if want := "[[o'brien o'seller sold d'arcy', 1000) --] [plain o'seller open ]]"; got != want {
		t.Fatalf("items = %s, want %s", got, want)
	}
}

func TestLockingAuctionSerializesBidders(t *testing.T) {
	db := NewDatabase()
	a, _ := NewAuctionHouse(db)
	a.Open("vase", "seller")
	locking := NewLockingAuctionHouse(a, 30*time.Millisecond)

	start := time.Now()
	var wg sync.WaitGroup
	for i := 0; i < 4; i++ {
		wg.Add(1)
		go func(i int) {
			defer wg.Done()
			locking.PlaceBid("vase", "b", int64(i))
		}(i)
	}
	wg.Wait()
	elapsed := time.Since(start)
	// 4 bidders × 30ms think time, fully serialized ≈ 120ms minimum.
	if elapsed < 100*time.Millisecond {
		t.Errorf("locking bids not serialized: %v", elapsed)
	}
	if n, _ := a.Bids("vase"); n != 4 {
		t.Errorf("bids = %d", n)
	}
}
