package reldb

import (
	"fmt"
	"math/rand"
	"slices"
	"sort"
	"strings"
	"testing"

	"webdbsec/internal/policy"
)

// FuzzParse feeds arbitrary bytes to the SQL parser — statement text is
// attacker-controlled on every securedb route. Parse must never panic, and
// any SELECT it accepts, aggregate or not, must execute against a small
// fixed table without panicking: directly, under Explain (which must not
// refuse what executes), and through a SecureDB whose subject has a row
// policy and hidden columns (the fold and the projection read those as
// NULL). Errors are fine; panics are not. A row SELECT must also return
// what a brute-force scan with its bound matcher does, and with LIMIT k the
// first k rows of its answer without LIMIT (checkRowSelect).
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// The statements this package's tests run, one of each shape.
		"CREATE TABLE t (g TEXT, k INT, x FLOAT, b BOOL)",
		"CREATE TABLE d (a INT, a TEXT)",
		"SELECT g FROM t WHERE k > 9007199254740992 AND x <= 4611686018427387904.0 ORDER BY x",
		"INSERT INTO t VALUES ('it''s', -3, 2.5, TRUE)",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE), (NULL, -2, NULL, FALSE),('z',3,0.5,NULL)",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE), ('b', 'two', 2.5, FALSE)",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE), ('b')",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE),",
		"INSERT INTO t VALUES ('a', 1, 1.5, TRUE), ()",
		"INSERT INTO ghost VALUES (1), (2)",
		"UPDATE t SET k = 10, g = NULL WHERE g = 'a'",
		"DELETE FROM t WHERE NOT (k < 3 OR x >= 1.5)",
		"SELECT * FROM t",
		"SELECT k, g FROM t WHERE g = 'a' AND k != 2 ORDER BY k DESC, g ASC LIMIT 3",
		"SELECT g FROM t WHERE b = FALSE OR x = NULL",
		"SELECT * FROM t WHERE k >= 2 AND k < 4 AND g = 'a'",
		"SELECT COUNT(*), SUM(k), AVG(x), MIN(g), MAX(b) FROM t",
		"SELECT COUNT(k) FROM t WHERE k <= 5 GROUP BY g",
		"select count(*) from t group by k",
		"SELECT count, max FROM t",
		"SELECT SUM(g) FROM t",
		"SELECT COUNT(*) FROM t ORDER BY g",
		"SELECT g, COUNT(*) FROM t",
		"SELECT COUNT( FROM t",
		"SELECT * FROM ghost WHERE k = 1",
		"SELECT k FROM t LIMIT 99999999999999999999",
		"SELECT k FROM t WHERE k = 9223372036854775808",
		"SELEC",
		"",
	} {
		f.Add(src)
	}

	sdb := NewSecureDB(NewDatabase(), nil)
	owner := &policy.Subject{ID: "o", Roles: []string{"r"}}
	if err := sdb.CreateTable(owner, "CREATE TABLE t (g TEXT, k INT, x FLOAT, b BOOL)"); err != nil {
		f.Fatal(err)
	}
	for _, row := range []string{"('a', 1, 1.5, TRUE)", "('a', 2, NULL, FALSE)", "('b', NULL, 3, NULL)", "(NULL, 4, 0.25, TRUE)"} {
		if _, err := sdb.DB().Exec("INSERT INTO t VALUES " + row); err != nil {
			f.Fatal(err)
		}
	}
	pred := MustParse("SELECT * FROM t WHERE k >= 0").(*SelectStmt).Where
	if err := sdb.AddRowPolicy(&RowPolicy{Name: "rows", Table: "t", Subject: policy.SubjectSpec{Roles: []string{"r"}}, Pred: pred}); err != nil {
		f.Fatal(err)
	}
	if err := sdb.AddColPolicy(&ColPolicy{Name: "cols", Table: "t", Subject: policy.SubjectSpec{Roles: []string{"r"}}, Columns: []string{"g", "x"}}); err != nil {
		f.Fatal(err)
	}

	f.Fuzz(func(t *testing.T, src string) {
		st, err := Parse(src)
		if err != nil {
			return
		}
		if ins, ok := st.(*InsertStmt); ok {
			checkInsert(t, sdb.DB(), src, ins)
			return
		}
		sel, ok := st.(*SelectStmt)
		if !ok {
			return
		}
		if len(sel.Aggs) > 0 && (sel.Columns != nil || sel.OrderBy != nil || sel.Limit != -1) {
			t.Fatalf("%q parsed to an aggregate with a row statement's clauses: %#v", src, sel)
		}
		if len(sel.Aggs) == 0 && sel.GroupBy != "" {
			t.Fatalf("%q parsed to a row statement with GROUP BY", src)
		}
		plain, errPlain := sdb.DB().ExecStmt(sel)
		// Explain runs the executor's planner, so it refuses nothing the
		// executor accepts.
		if _, err := sdb.DB().Explain(src); err != nil && errPlain == nil {
			t.Fatalf("%q executed, but Explain refused it: %v", src, err)
		}
		view, errView := sdb.ExecStmt(owner, sel)
		// The view only narrows rows and NULLs cells: it errs exactly when
		// the plain execution does, and never shows more rows.
		if (errPlain == nil) != (errView == nil) {
			t.Fatalf("%q: plain error %v, view error %v", src, errPlain, errView)
		}
		if errPlain == nil && len(sel.Aggs) == 0 && len(view.Rows) > len(plain.Rows) {
			t.Fatalf("%q: view has %d rows, table query %d", src, len(view.Rows), len(plain.Rows))
		}
		if errPlain == nil && len(sel.Aggs) == 0 {
			checkRowSelect(t, sdb.DB(), src, sel, plain)
		}
	})
}

// checkInsert runs a parsed INSERT in a transaction it then aborts: every
// tuple is non-empty, and the statement either writes all of its tuples,
// under consecutive new row ids, or none of them.
func checkInsert(t *testing.T, db *Database, src string, ins *InsertStmt) {
	for _, vals := range ins.Rows {
		if len(vals) == 0 {
			t.Fatalf("%q parsed to an empty tuple", src)
		}
	}
	txn := db.Begin()
	defer txn.Abort()
	res, err := txn.ExecStmt(ins)
	if err != nil {
		if len(txn.changes) != 0 {
			t.Fatalf("%q failed (%v) but left %d changes for Commit", src, err, len(txn.changes))
		}
		if w, ok := txn.work[ins.Table]; ok {
			if before, _ := db.Table(ins.Table); w.Len() != before.Len() {
				t.Fatalf("%q failed (%v) but wrote %d rows", src, err, w.Len()-before.Len())
			}
		}
		return
	}
	before, _ := db.Table(ins.Table)
	if res.Affected != len(ins.Rows) || len(txn.changes) != len(ins.Rows) {
		t.Fatalf("%q: %d tuples, Affected %d, %d changes", src, len(ins.Rows), res.Affected, len(txn.changes))
	}
	for i, c := range txn.changes {
		if c.RowID != before.nextID+int64(i)+1 {
			t.Fatalf("%q: tuple %d got row id %d, want %d", src, i, c.RowID, before.nextID+int64(i)+1)
		}
	}
}

// checkRowSelect holds the result of a row SELECT to brute force. Without
// LIMIT: as a multiset, its rows are the projection of the table rows the
// bound matcher accepts, scanned one by one; and the same statement over
// every column returns them in ORDER BY order, projecting to the result
// row for row. With LIMIT k, its rows are the first k of the same
// statement's without LIMIT — which is held to the same oracle — ties in
// ORDER BY included: the top-k heap must equal a stable sort truncated.
func checkRowSelect(t *testing.T, db *Database, src string, sel *SelectStmt, got *Result) {
	if sel.Limit >= 0 {
		unlimited := *sel
		unlimited.Limit = -1
		all, err := db.ExecStmt(&unlimited)
		if err != nil {
			t.Fatalf("%q without LIMIT: %v", src, err)
		}
		checkRowSelect(t, db, src+" without LIMIT", &unlimited, all)
		if want := all.Rows[:min(sel.Limit, len(all.Rows))]; !sameRows(got.Rows, want) {
			t.Fatalf("%q returned\n%#v\nthe first %d rows without LIMIT are\n%#v", src, got.Rows, sel.Limit, want)
		}
		return
	}
	tbl, _ := db.Table(sel.Table)
	match := matcher(matchAll)
	if sel.Where != nil {
		var err error
		if match, err = sel.Where.bind(&tbl.Schema); err != nil {
			t.Fatalf("%q executed, but its predicate does not bind: %v", src, err)
		}
	}
	_, cols, err := bindColumns(&tbl.Schema, sel.Columns, nil)
	if err != nil {
		t.Fatalf("%q executed, but its select list does not bind: %v", src, err)
	}
	var matched []Row
	tbl.Scan(func(_ int64, r Row) bool {
		if match(r) {
			matched = append(matched, r)
		}
		return true
	})
	multiset := func(rows []Row) []string {
		out := make([]string, len(rows))
		for i, r := range rows {
			out[i] = fmt.Sprintf("%#v", r)
		}
		sort.Strings(out)
		return out
	}
	if g, w := multiset(got.Rows), multiset(project(matched, cols)); !slices.Equal(g, w) {
		t.Fatalf("%q returned %v, brute force %v", src, g, w)
	}

	star := *sel
	star.Columns = nil
	all, err := db.ExecStmt(&star)
	if err != nil {
		t.Fatalf("%q over every column: %v", src, err)
	}
	if order, _ := bindOrder(&tbl.Schema, sel.OrderBy); order != nil {
		for i := 1; i < len(all.Rows); i++ {
			if order(all.Rows[i-1], all.Rows[i]) > 0 {
				t.Fatalf("%q: row %d %v sorts before row %d %v", src, i-1, all.Rows[i-1], i, all.Rows[i])
			}
		}
	}
	if want := project(all.Rows, cols); !sameRows(got.Rows, want) {
		t.Fatalf("%q returned\n%#v\nits every-column form projects to\n%#v", src, got.Rows, want)
	}
}

// sameRows reports whether a and b hold equal rows in the same order.
func sameRows(a, b []Row) bool {
	if len(a) != len(b) {
		return false
	}
	for i := range a {
		if fmt.Sprintf("%#v", a[i]) != fmt.Sprintf("%#v", b[i]) {
			return false
		}
	}
	return true
}

// FuzzApplyCommit feeds arbitrary bytes to a follower as its next log
// record: a shipped frame is bytes another node wrote. Decoding and
// applying must never panic; a record redo refuses leaves the follower's
// version and position as they were; every table the follower holds
// afterwards has a schema CREATE TABLE accepts; and every row it stores
// passes its table's schema under a rowID the table issued — what the live
// write path guarantees for every table and row it stores.
func FuzzApplyCommit(f *testing.F) {
	const a, b = `[{"Kind":3,"S":"a"},{"Kind":1,"I":10}]`, `[{"Kind":3,"S":"c"},{"Kind":1,"I":3}]`
	for _, seed := range []string{
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":1,"Row":` + a + `},{"Table":"t","RowID":2,"Row":null},{"Table":"t","RowID":3,"Row":` + b + `},{"Table":"t","RowID":3}]}`,
		`{"Op":3}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":` + a + `},{"Table":"t","RowID":4,"Row":` + b + `},{"Table":"t","RowID":5,"Row":` + a + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":` + a + `},{"Table":"t","RowID":5,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":` + a + `},{"Table":"t","RowID":4,"Row":[{"Kind":1,"I":4},{"Kind":3,"S":"d"}]}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":-1,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":0,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":4611686018427387904,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":5,"Row":` + b + `}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":[{"Kind":1,"I":1}]}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":1,"Row":[{"Kind":1,"I":1},{"Kind":3,"S":"x"}]}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":3,"Row":[]}]}`,
		`{"Op":3,"Changes":[{"Table":"t","RowID":9,"Row":null}]}`,
		`{"Op":3,"Changes":[{"Table":"ghost","RowID":1,"Row":null}]}`,
		`{"Op":0,"Table":"t","Schema":{"Columns":[{"Name":"k","Kind":3}]}}`,
		`{"Op":0,"Table":"n","Schema":{"Columns":[{"Name":"z","Kind":1}]}}`,
		`{"Op":0,"Table":"n"}`,
		`{"Op":0,"Table":"n","Schema":{"Columns":[]}}`,
		`{"Op":0,"Table":"n","Schema":{"Columns":[{"Name":"z","Kind":1},{"Name":"z","Kind":3}]}}`,
		`{"Op":1,"Table":"t","Column":"v","Ordered":true}`,
		`{"Op":1,"Table":"t","Column":"ghost"}`,
		`{"LSN":7,"Op":1,"Table":"ghost","Column":"k","Ordered":false}`,
		`{"LSN":8,"Txn":1,"Op":5,"Table":"t","RowID":3,"After":` + b + `}`,
		`{"Op":2,"Txn":1}`,
		`{"Op":99}`,
		`not json`,
		``,
	} {
		f.Add([]byte(seed))
	}

	base := NewDatabase()
	for _, src := range []string{
		"CREATE TABLE t (k TEXT, v INT)",
		"INSERT INTO t VALUES ('a', 1)",
		"INSERT INTO t VALUES ('b', 2)",
	} {
		if _, err := base.Exec(src); err != nil {
			f.Fatal(err)
		}
	}
	start := *base.versions.Load()

	f.Fuzz(func(t *testing.T, payload []byte) {
		fo := &Follower{db: newDatabaseAt(start, true), appliedLSN: uint64(start.lsn)}
		before := fo.db.versions.Load()
		if err := fo.Apply(uint64(start.lsn)+1, payload); err != nil {
			if fo.db.versions.Load() != before || fo.AppliedLSN() != uint64(start.lsn) {
				t.Fatalf("refused record %q moved the follower", payload)
			}
			return
		}
		for name, tbl := range fo.db.versions.Load().tables {
			if err := tbl.Schema.check(name); err != nil {
				t.Fatalf("%q created a table CREATE TABLE refuses: %v", payload, err)
			}
			tbl.Scan(func(id int64, r Row) bool {
				if err := tbl.Schema.CheckRow(r); err != nil {
					t.Fatalf("%q stored row %d of %s that its schema refuses: %v", payload, id, name, err)
				}
				if id <= 0 || id > tbl.nextID {
					t.Fatalf("%q stored row %d of %s outside the ids it issued (next %d)", payload, id, name, tbl.nextID)
				}
				return true
			})
		}
	})
}

// FuzzTopK holds ORDER BY ... LIMIT k — the bounded heap — and LIMIT
// without ORDER BY — the early-exit scan — to checkRowSelect's oracle over
// a table whose keys tie often: n rows drawn from seed over tiny domains,
// NULLs included, ordered by one or two keys in either direction, with
// and without a WHERE that narrows on chunk keys.
func FuzzTopK(f *testing.F) {
	f.Add(int64(1), uint16(40), 3, uint8(0))
	f.Add(int64(2), uint16(300), 0, uint8(1))
	f.Add(int64(3), uint16(600), 7, uint8(6))
	f.Add(int64(4), uint16(9), 20, uint8(15))
	f.Add(int64(5), uint16(0), 1, uint8(3))
	f.Fuzz(func(t *testing.T, seed int64, n uint16, k int, shape uint8) {
		if k < 0 {
			k = -k
		}
		if k < 0 || n > 1000 {
			return
		}
		rng := rand.New(rand.NewSource(seed))
		db := NewDatabase()
		mustExec(t, db, "CREATE TABLE t (a INT, b TEXT, c INT)")
		if n > 0 {
			var vals []string
			for i := 0; i < int(n); i++ {
				a, b := "NULL", "NULL"
				if rng.Intn(8) > 0 {
					a = fmt.Sprint(rng.Intn(4))
				}
				if rng.Intn(8) > 0 {
					b = fmt.Sprintf("'%c'", 'p'+rng.Intn(3))
				}
				vals = append(vals, fmt.Sprintf("(%s, %s, %d)", a, b, i))
			}
			mustExec(t, db, "INSERT INTO t VALUES "+strings.Join(vals, ", "))
		}
		src := "SELECT b, c FROM t"
		if shape&1 != 0 {
			src += " WHERE a >= 1"
		}
		switch dirs := []string{"", " DESC"}; shape >> 1 & 3 {
		case 1:
			src += " ORDER BY a" + dirs[shape>>3&1]
		case 2, 3:
			src += " ORDER BY b" + dirs[shape>>3&1] + ", a" + dirs[shape>>4&1]
		}
		src += fmt.Sprintf(" LIMIT %d", k)
		sel := MustParse(src).(*SelectStmt)
		got, err := db.ExecStmt(sel)
		if err != nil {
			t.Fatalf("%q: %v", src, err)
		}
		checkRowSelect(t, db, src, sel, got)
	})
}
