package reldb

import (
	"fmt"
	"math/rand"
	"testing"
	"testing/quick"

	"webdbsec/internal/resilience/faultinject"
)

// randomTable builds a table with random rows; deterministic in seed.
func randomTable(t *testing.T, seed int64, rows int) *Database {
	return loadRandomTable(t, NewDatabase(), seed, rows)
}

func loadRandomTable(t *testing.T, db *Database, seed int64, rows int) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mustExec(t, db, "CREATE TABLE r (k INT, cat TEXT, v INT)")
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES (%d, 'c%d', %d)",
			rng.Intn(100), rng.Intn(10), rng.Intn(1000)))
	}
	return db
}

func TestQuickIndexScanEquivalence(t *testing.T) {
	// For random data and random point/range predicates, the indexed
	// database and the plain one return identical result sets.
	f := func(seed int64) bool {
		plain := randomTable(t, seed, 200)
		indexed := randomTable(t, seed, 200)
		mustExec(t, indexed, "CREATE HASH INDEX ON r (cat)")
		mustExec(t, indexed, "CREATE ORDERED INDEX ON r (v)")
		rng := rand.New(rand.NewSource(seed ^ 0xabc))
		for i := 0; i < 8; i++ {
			var q string
			switch rng.Intn(3) {
			case 0:
				q = fmt.Sprintf("SELECT k, v FROM r WHERE cat = 'c%d' ORDER BY k", rng.Intn(12))
			case 1:
				q = fmt.Sprintf("SELECT k FROM r WHERE v >= %d ORDER BY k", rng.Intn(1100))
			default:
				q = fmt.Sprintf("SELECT k FROM r WHERE v <= %d AND cat = 'c%d' ORDER BY k",
					rng.Intn(1100), rng.Intn(12))
			}
			a, err := plain.Exec(q)
			if err != nil {
				return false
			}
			b, err := indexed.Exec(q)
			if err != nil {
				return false
			}
			if fmt.Sprint(a.Rows) != fmt.Sprint(b.Rows) {
				t.Logf("divergence on %q:\n plain %v\n idx   %v", q, a.Rows, b.Rows)
				return false
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickAbortIsIdentity(t *testing.T) {
	// A random batch of DML inside an aborted transaction leaves the
	// database byte-identical.
	f := func(seed int64) bool {
		db := randomTable(t, seed, 100)
		before, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0xdef))
		txn := db.Begin()
		for i := 0; i < 10; i++ {
			var stmt string
			switch rng.Intn(3) {
			case 0:
				stmt = fmt.Sprintf("INSERT INTO r VALUES (%d, 'cX', %d)", rng.Intn(100), rng.Intn(1000))
			case 1:
				stmt = fmt.Sprintf("UPDATE r SET v = %d WHERE k = %d", rng.Intn(1000), rng.Intn(100))
			default:
				stmt = fmt.Sprintf("DELETE FROM r WHERE k = %d", rng.Intn(100))
			}
			if _, err := txn.Exec(stmt); err != nil {
				txn.Abort()
				return false
			}
		}
		txn.Abort()
		after, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		return fmt.Sprint(before.Rows) == fmt.Sprint(after.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickRecoverEqualsLiveState(t *testing.T) {
	// After an arbitrary committed history, crash recovery of the WAL
	// reproduces the live table contents exactly.
	f := func(seed int64) bool {
		fs := faultinject.NewMemFS()
		db := loadRandomTable(t, openDurable(t, fs), seed, 50)
		rng := rand.New(rand.NewSource(seed ^ 0x123))
		for i := 0; i < 15; i++ {
			txn := db.Begin()
			stmt := fmt.Sprintf("UPDATE r SET v = %d WHERE k = %d", rng.Intn(1000), rng.Intn(100))
			if rng.Intn(2) == 0 {
				stmt = fmt.Sprintf("DELETE FROM r WHERE k = %d", rng.Intn(100))
			}
			if _, err := txn.Exec(stmt); err != nil {
				txn.Abort()
				continue
			}
			if rng.Intn(4) == 0 {
				txn.Abort()
			} else if err := txn.Commit(); err != nil {
				return false
			}
		}
		live, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		recovered, err := recoverCrashed(t, fs).Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		return fmt.Sprint(live.Rows) == fmt.Sprint(recovered.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	// The parser must reject or accept arbitrary byte soup without
	// panicking — it fronts a network service.
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("parser panicked on %q: %v", src, r)
				ok = false
			}
		}()
		Parse(src)
		Parse("SELECT " + src + " FROM t")
		Parse("SELECT * FROM t WHERE " + src)
		ParseAggregate("SELECT COUNT(" + src + ") FROM t")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

func TestQuickAggregatesConsistentWithRows(t *testing.T) {
	// COUNT/SUM/MIN/MAX agree with a manual pass over SELECT *.
	f := func(seed int64) bool {
		db := randomTable(t, seed, 150)
		rows, err := db.Exec("SELECT v FROM r")
		if err != nil {
			return false
		}
		var sum, minV, maxV int64
		minV, maxV = 1<<62, -(1 << 62)
		for _, r := range rows.Rows {
			v := r[0].I
			sum += v
			if v < minV {
				minV = v
			}
			if v > maxV {
				maxV = v
			}
		}
		st, err := ParseAggregate("SELECT COUNT(*), SUM(v), MIN(v), MAX(v) FROM r")
		if err != nil {
			return false
		}
		agg, err := db.ExecAggregate(st)
		if err != nil {
			return false
		}
		got := agg.Rows[0]
		return got[0].I == int64(len(rows.Rows)) &&
			int64(got[1].F) == sum && got[2].I == minV && got[3].I == maxV
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}
