package reldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"
)

// keyScanDDL is evalSchema plus n, a row number the one-row statements
// below address rows by; genExpr's predicates never name it.
const keyScanDDL = "CREATE TABLE e (i INT, f FLOAT, s TEXT, b BOOL, j INT, n INT)"

// sqlLit writes v as a SQL literal that parses back to v.
func sqlLit(v Value) string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindString:
		return QuoteString(v.S)
	case KindBool:
		return strings.ToUpper(v.String())
	case KindFloat:
		s := strconv.FormatFloat(v.F, 'f', -1, 64)
		if !strings.Contains(s, ".") {
			s += ".0" // without a point the literal is an INT
		}
		return s
	}
	return v.String()
}

// genColValue draws genValue's domain, kept to what a column of the kind
// stores: NULL, its own kind, and INTs in a FLOAT column.
func genColValue(rng *rand.Rand, kind Kind) Value {
	for {
		v := genValue(rng)
		if v.Kind == KindNull || v.Kind == kind || kind == KindFloat && v.Kind == KindInt {
			return v
		}
	}
}

// keyScanRow is an INSERT of a random row numbered n.
func keyScanRow(rng *rand.Rand, n int) string {
	vals := make([]string, 0, 6)
	for _, c := range evalSchema.Columns {
		vals = append(vals, sqlLit(genColValue(rng, c.Kind)))
	}
	return fmt.Sprintf("INSERT INTO e VALUES (%s, %d)", strings.Join(vals, ", "), n)
}

// keyScanDB is a table of rows random rows, numbered 1.. like their rowIDs,
// loaded in one transaction: no statement has scanned it, so no chunk has
// keys yet.
func keyScanDB(t *testing.T, rng *rand.Rand, rows int) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, keyScanDDL)
	txn := db.Begin()
	for n := 1; n <= rows; n++ {
		if _, err := txn.Exec(keyScanRow(rng, n)); err != nil {
			t.Fatal(err)
		}
	}
	if err := txn.Commit(); err != nil {
		t.Fatal(err)
	}
	return db
}

// refMatches is the brute-force answer: the ids and rows of tbl, in rowID
// order, that refEval accepts (every row for a nil predicate). Readers call
// it on their own goroutines, so a predicate refEval refuses is reported
// with Errorf and matches nothing.
func refMatches(t *testing.T, tbl *Table, where Expr) (ids []int64, rows []Row) {
	t.Helper()
	tbl.Scan(func(id int64, r Row) bool {
		ok := true
		if where != nil {
			var err error
			if ok, err = refEval(where, &tbl.Schema, r); err != nil {
				t.Errorf("reference on %v: %v", where, err)
				return false
			}
		}
		if ok {
			ids, rows = append(ids, id), append(rows, r)
		}
		return true
	})
	return ids, rows
}

// checkPlan holds scanPlan.run on tbl to the brute-force answer.
func checkPlan(t *testing.T, desc string, tbl *Table, where Expr) {
	t.Helper()
	p, err := planScan(tbl, where)
	if err != nil {
		t.Fatalf("%s: plan %v: %v", desc, where, err)
	}
	var got []int64
	p.run(func(id int64, _ Row) bool {
		got = append(got, id)
		return true
	})
	if want, _ := refMatches(t, tbl, where); !slices.Equal(got, want) {
		t.Fatalf("%s: %v over %d rows: scan %v, reference %v", desc, where, tbl.Len(), got, want)
	}
}

// keyScanPreds are the shapes random predicates rarely draw: intervals at
// the ends of the INT range, folds that leave an empty interval, more tests
// than a filter holds.
var keyScanPreds = []string{
	"s = 'a'",
	"s = 'a' AND i >= 0",
	"s = 'a' AND s = 'b'",
	"i < -9223372036854775808",
	"i > 9223372036854775807",
	"i <= -9223372036854775808 OR j >= 9223372036854775807",
	"i >= -9223372036854775808 AND j <= 9223372036854775807",
	"i > 2 AND i < 1",
	"i = 1 AND i = 2",
	"i >= -1 AND i <= 1 AND i != 0",
	"j >= 1 AND j <= 1 AND s = ''",
	"i = 9007199254740993",
	"i > 9007199254740992 AND j != 0",
	"f = 9007199254740992.0 AND i >= 0",
	"f = 1 AND s = 'ab'",
	"i >= 0 AND i >= 1 AND j < 3 AND s = 'ab' AND b = TRUE AND j > -3",
	"NOT (s = 'a') AND i = 1",
	"(s = 'a' OR s = 'b') AND j <= 0",
}

// keyScanExprs returns count random predicates and every keyScanPreds one.
func keyScanExprs(t *testing.T, rng *rand.Rand, count int) []Expr {
	out := []Expr{nil}
	for _, p := range keyScanPreds {
		out = append(out, MustParse("SELECT * FROM e WHERE "+p).(*SelectStmt).Where)
	}
	for len(out) < count+len(keyScanPreds)+1 {
		out = append(out, genExpr(rng, rng.Intn(4)))
	}
	return out
}

// TestKeyScanEqualsReference is the differential oracle of the narrowed
// scan: on tables of 0, 1, 255, 256, 257 and about 700 rows — NULLs, a
// FLOAT column holding INTs, a chunk emptied by deletes — scanPlan.run
// returns exactly the rows refEval accepts. It is checked on the loaded
// version, along a chain of one-row commits made after the keys were built,
// and inside a transaction after its own UPDATE and DELETE; aggregates and
// Affected counts are held to the same reference.
func TestKeyScanEqualsReference(t *testing.T) {
	cols := []string{"i", "f", "s", "b", "j", "n"}
	for _, size := range []int{0, 1, 255, 256, 257, 700} {
		rng := rand.New(rand.NewSource(int64(size) + 1))
		db := keyScanDB(t, rng, size)
		if size == 700 {
			mustExec(t, db, "DELETE FROM e WHERE n >= 256 AND n <= 511") // all of chunk 1
			mustExec(t, db, "DELETE FROM e WHERE n = 3 OR n = 600 OR n = 700")
		}
		preds := keyScanExprs(t, rng, 150)
		tbl, _ := db.Table("e")
		for k, where := range preds {
			checkPlan(t, fmt.Sprintf("size %d, loaded, predicate %d", size, k), tbl, where)
		}

		// One-row commits on the scanned table: each copies one chunk, keys
		// and all, and the next scans read the copy.
		next := size + 1
		for step := 0; step < 40; step++ {
			n := 1 + rng.Intn(size+1)
			switch rng.Intn(4) {
			case 0:
				mustExec(t, db, keyScanRow(rng, next))
				next++
			case 1:
				mustExec(t, db, fmt.Sprintf("DELETE FROM e WHERE n = %d", n))
			default:
				mustExec(t, db, fmt.Sprintf("UPDATE e SET s = %s, i = %s, f = %s WHERE n = %d",
					sqlLit(genColValue(rng, KindString)), sqlLit(genColValue(rng, KindInt)), sqlLit(genColValue(rng, KindFloat)), n))
			}
			tbl, _ := db.Table("e")
			for k := 0; k < 4; k++ {
				checkPlan(t, fmt.Sprintf("size %d, commit %d", size, step), tbl, preds[rng.Intn(len(preds))])
			}
		}

		// Aggregates fold exactly the rows the reference accepts.
		tbl, _ = db.Table("e")
		for k := 0; k < 30; k++ {
			where := preds[rng.Intn(len(preds))]
			agg := &SelectStmt{Table: "e", Where: where, Limit: -1, Aggs: []AggExpr{
				{AggCount, "*"}, {AggSum, "i"}, {AggAvg, "f"}, {AggMin, "s"}, {AggMax, "f"}, {AggCount, "b"}}}
			if rng.Intn(2) == 0 {
				agg.GroupBy = cols[rng.Intn(len(cols))]
			}
			got, err := bindSelect(tbl, agg)
			if err != nil {
				t.Fatal(err)
			}
			got.own()
			_, rows := refMatches(t, tbl, where)
			if want := foldRef(cols, rows, agg.Aggs, agg.GroupBy); fmt.Sprint(got.Rows) != fmt.Sprint(want) {
				t.Fatalf("size %d: aggregate over %v grouped by %q:\n got  %v\n want %v", size, where, agg.GroupBy, got.Rows, want)
			}
		}

		// Read-your-writes: a transaction's UPDATE and DELETE change the
		// keys of its own chunk copies, and its scans read them.
		for round := 0; round < 6; round++ {
			txn := db.Begin()
			view, _ := db.Table("e")
			where := preds[rng.Intn(len(preds))]
			set := map[string]Value{"s": genColValue(rng, KindString), "j": genColValue(rng, KindInt)}
			ids, _ := refMatches(t, view, where)
			res, err := txn.ExecStmt(&UpdateStmt{Table: "e", Set: set, Where: where})
			if err != nil || res.Affected != len(ids) {
				t.Fatalf("size %d: UPDATE … WHERE %v: affected %v, err %v; reference %d", size, where, res, err, len(ids))
			}
			work := txn.work["e"]
			updated := map[int64]bool{}
			for _, id := range ids {
				updated[id] = true
			}
			view.Scan(func(id int64, old Row) bool {
				want := old.Clone()
				if updated[id] {
					want[view.Schema.ColIndex("s")], want[view.Schema.ColIndex("j")] = set["s"], set["j"]
				}
				if got := work.rows.get(id); !reflect.DeepEqual(got, want) {
					t.Fatalf("size %d: after UPDATE … WHERE %v row %d = %v, want %v", size, where, id, got, want)
				}
				return true
			})
			for k := 0; k < 10; k++ {
				checkPlan(t, fmt.Sprintf("size %d, txn %d after UPDATE", size, round), work, preds[rng.Intn(len(preds))])
			}
			where = preds[rng.Intn(len(preds))]
			ids, _ = refMatches(t, work, where)
			res, err = txn.ExecStmt(&DeleteStmt{Table: "e", Where: where})
			if err != nil || res.Affected != len(ids) {
				t.Fatalf("size %d: DELETE … WHERE %v: affected %v, err %v; reference %d", size, where, res, err, len(ids))
			}
			for _, id := range ids {
				if work.rows.get(id) != nil {
					t.Fatalf("size %d: DELETE … WHERE %v left row %d", size, where, id)
				}
			}
			for k := 0; k < 10; k++ {
				checkPlan(t, fmt.Sprintf("size %d, txn %d after DELETE", size, round), work, preds[rng.Intn(len(preds))])
			}
			txn.Abort()
		}
	}
}

// TestKeyBuildRacesWithCommits: readers pin one frozen version nobody has
// scanned, so they race to build and install its keys, while a writer
// commits one-row UPDATEs whose scans and chunk copies read the same keys.
// Every reader's answer equals the brute-force answer on its own snapshot.
// Run under -race (make race).
func TestKeyBuildRacesWithCommits(t *testing.T) {
	rng := rand.New(rand.NewSource(27))
	db := keyScanDB(t, rng, 700)
	preds := keyScanExprs(t, rng, 40)
	start, wrote := make(chan struct{}), make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 4; r++ {
		wg.Add(1)
		go func(rng *rand.Rand) {
			defer wg.Done()
			<-start
			for q := 0; ; q++ {
				select {
				case <-wrote:
					if q >= 20 {
						return
					}
				default:
				}
				snap := db.Snapshot()
				tbl, _ := snap.Table("e")
				where := preds[rng.Intn(len(preds))]
				res, err := snap.ExecSelect(&SelectStmt{Table: "e", Where: where, Limit: -1})
				if err != nil {
					t.Errorf("%v: %v", where, err)
				} else if _, want := refMatches(t, tbl, where); len(res.Rows) != len(want) || len(want) > 0 && !reflect.DeepEqual(res.Rows, want) {
					t.Errorf("%v on a pinned snapshot: %d rows, brute force %d", where, len(res.Rows), len(want))
				}
				snap.Release()
			}
		}(rand.New(rand.NewSource(int64(r))))
	}
	close(start)
	func() {
		defer close(wrote) // on a failed write too, or the readers never stop
		for k := 0; k < 100; k++ {
			mustExec(t, db, fmt.Sprintf("UPDATE e SET s = %s, i = %d WHERE n = %d",
				sqlLit(genColValue(rng, KindString)), rng.Intn(7)-3, 1+rng.Intn(700)))
		}
	}()
	wg.Wait()
}

// countingExpr holds on every row and counts the rows it is asked about.
type countingExpr struct {
	TrueExpr
	calls *int
}

func (c countingExpr) bind(*Schema) (matcher, error) {
	return func(Row) bool { *c.calls++; return true }, nil
}

// TestKeyScanMatchesCandidatesOnly: with a key test in the AND chain, the
// row matcher runs on the slots the keys let through — the matching row
// (or a fingerprint collision) — not on all 5,000 rows.
func TestKeyScanMatchesCandidatesOnly(t *testing.T) {
	db := patientsDB(t, 5000)
	calls := 0
	where := &AndExpr{L: countingExpr{calls: &calls}, R: &CmpExpr{Col: "name", Op: "=", Val: Str("person-002500")}}
	for _, sel := range []*SelectStmt{
		{Table: "patients", Where: where, Limit: -1},
		{Table: "patients", Where: where, Limit: -1, Aggs: []AggExpr{{AggCount, "*"}}},
	} {
		calls = 0
		res, err := db.ExecStmt(sel)
		if err != nil || len(res.Rows) != 1 {
			t.Fatalf("rows %v, err %v", res, err)
		}
		if calls > 1 {
			t.Errorf("the matcher ran on %d rows; one row matches", calls)
		}
	}
}

// TestKeysBuiltLazilyAndCarried: an INSERT-only load builds no keys; the
// first scan builds them; a one-row commit copies its chunk with the keys
// (its slot rekeyed, the frozen original untouched) and shares the rest.
func TestKeysBuiltLazilyAndCarried(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, patientsDDL)
	for i := 0; i < 600; i++ {
		r := patientRow(i)
		mustExec(t, db, fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
			QuoteString(r[0].S), QuoteString(r[1].S), r[2].I, QuoteString(r[3].S)))
	}
	keyed := func(tbl *Table) (n int) {
		for _, c := range tbl.rows.chunks {
			if c != nil && c.keys.Load() != nil {
				n++
			}
		}
		return n
	}
	before, _ := db.Table("patients")
	if n := keyed(before); n != 0 {
		t.Fatalf("the load built keys for %d chunks", n)
	}
	mustExec(t, db, "SELECT zip FROM patients WHERE name = 'person-000300'")
	if n := keyed(before); n != len(before.rows.chunks) {
		t.Fatalf("a scan built keys for %d of %d chunks", n, len(before.rows.chunks))
	}
	mustExec(t, db, "UPDATE patients SET zip = '99999' WHERE name = 'person-000300'")
	after, _ := db.Table("patients")
	const id = 301 // person-000300's rowID
	ci, slot := id>>chunkBits, id&slotMask
	for i, c := range after.rows.chunks {
		if shared := c == before.rows.chunks[i]; shared != (i != ci) {
			t.Errorf("chunk %d: shared with the previous version = %v", i, shared)
		}
	}
	k := after.rows.chunks[ci].keys.Load()
	if k == nil {
		t.Fatal("the chunk a one-row commit copied lost its keys")
	}
	if got := (*k)[1]; got.kind[slot] != uint8(KindString) || got.key[slot] != textKey("99999") {
		t.Errorf("the updated slot's zip key is %d/%x, want the key of '99999'", got.kind[slot], got.key[slot])
	}
	if old := (*before.rows.chunks[ci].keys.Load())[1]; old.key[slot] != textKey(patientRow(300)[1].S) {
		t.Error("the commit rekeyed the frozen version's chunk")
	}
}
