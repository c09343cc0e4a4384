package reldb

import (
	"testing"

	"webdbsec/internal/policy"
)

// FuzzParse feeds arbitrary bytes to the SQL parser — statement text is
// attacker-controlled on every securedb route. Parse must never panic, and
// any SELECT it accepts, aggregate or not, must execute against a small
// fixed table without panicking: directly, under Explain, and through a
// SecureDB whose subject has a row policy and hidden columns (the fold and
// the projection read those as NULL). Errors are fine; panics are not.
func FuzzParse(f *testing.F) {
	for _, src := range []string{
		// The statements this package's tests run, one of each shape.
		"CREATE TABLE t (g TEXT, k INT, x FLOAT, b BOOL)",
		"CREATE HASH INDEX ON t (g)",
		"CREATE ORDERED INDEX ON t (k)",
		"INSERT INTO t VALUES ('it''s', -3, 2.5, TRUE)",
		"UPDATE t SET k = 10, g = NULL WHERE g = 'a'",
		"DELETE FROM t WHERE NOT (k < 3 OR x >= 1.5)",
		"SELECT * FROM t",
		"SELECT k, g FROM t WHERE g = 'a' AND k != 2 ORDER BY k DESC, g ASC LIMIT 3",
		"SELECT g FROM t WHERE b = FALSE OR x = NULL",
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
	for _, ddl := range []string{"CREATE HASH INDEX ON t (g)", "CREATE ORDERED INDEX ON t (k)"} {
		if _, err := sdb.DB().Exec(ddl); err != nil {
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
		sdb.DB().Explain(src)
		view, errView := sdb.ExecStmt(owner, sel)
		// The view only narrows rows and NULLs cells: it errs exactly when
		// the plain execution does, and never shows more rows.
		if (errPlain == nil) != (errView == nil) {
			t.Fatalf("%q: plain error %v, view error %v", src, errPlain, errView)
		}
		if errPlain == nil && len(sel.Aggs) == 0 && len(view.Rows) > len(plain.Rows) {
			t.Fatalf("%q: view has %d rows, table query %d", src, len(view.Rows), len(plain.Rows))
		}
	})
}
