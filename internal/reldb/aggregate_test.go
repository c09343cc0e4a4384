package reldb

import (
	"fmt"
	"math"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/sysr"
)

func aggDB(t *testing.T) *Database {
	t.Helper()
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE sales (region TEXT, amount INT, rep TEXT)")
	for _, r := range []string{
		"('east', 100, 'a')",
		"('east', 200, 'b')",
		"('west', 50, 'c')",
		"('west', 150, 'a')",
		"('west', NULL, 'd')",
	} {
		mustExec(t, db, "INSERT INTO sales VALUES "+r)
	}
	return db
}

func execAgg(t *testing.T, db *Database, src string) *Result {
	t.Helper()
	res, err := db.Exec(src)
	if err != nil {
		t.Fatalf("exec %q: %v", src, err)
	}
	return res
}

func TestAggregateGlobal(t *testing.T) {
	db := aggDB(t)
	res := execAgg(t, db, "SELECT COUNT(*), SUM(amount), AVG(amount), MIN(amount), MAX(amount) FROM sales")
	if len(res.Rows) != 1 {
		t.Fatalf("rows = %d", len(res.Rows))
	}
	r := res.Rows[0]
	if r[0] != Int(5) {
		t.Errorf("count(*) = %v", r[0])
	}
	if r[1] != Float(500) {
		t.Errorf("sum = %v", r[1])
	}
	if math.Abs(r[2].F-125) > 1e-9 {
		t.Errorf("avg = %v (nulls must not count)", r[2])
	}
	if r[3] != Int(50) || r[4] != Int(200) {
		t.Errorf("min/max = %v/%v", r[3], r[4])
	}
}

func TestAggregateCountColumnSkipsNulls(t *testing.T) {
	db := aggDB(t)
	res := execAgg(t, db, "SELECT COUNT(amount) FROM sales")
	if res.Rows[0][0] != Int(4) {
		t.Errorf("count(amount) = %v, want 4", res.Rows[0][0])
	}
}

func TestAggregateWhere(t *testing.T) {
	db := aggDB(t)
	res := execAgg(t, db, "SELECT SUM(amount) FROM sales WHERE region = 'east'")
	if res.Rows[0][0] != Float(300) {
		t.Errorf("east sum = %v", res.Rows[0][0])
	}
}

func TestAggregateGroupBy(t *testing.T) {
	db := aggDB(t)
	res := execAgg(t, db, "SELECT COUNT(*), SUM(amount) FROM sales GROUP BY region")
	if len(res.Rows) != 2 {
		t.Fatalf("groups = %d", len(res.Rows))
	}
	if res.Columns[0] != "region" || res.Columns[2] != "SUM(amount)" {
		t.Errorf("columns = %v", res.Columns)
	}
	// Groups sorted by key: east then west.
	if res.Rows[0][0] != Str("east") || res.Rows[0][1] != Int(2) || res.Rows[0][2] != Float(300) {
		t.Errorf("east row = %v", res.Rows[0])
	}
	if res.Rows[1][0] != Str("west") || res.Rows[1][1] != Int(3) || res.Rows[1][2] != Float(200) {
		t.Errorf("west row = %v", res.Rows[1])
	}
}

func TestAggregateEmptyTable(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE empty (v INT)")
	res := execAgg(t, db, "SELECT COUNT(*), SUM(v), MIN(v) FROM empty")
	r := res.Rows[0]
	if r[0] != Int(0) || !r[1].IsNull() || !r[2].IsNull() {
		t.Errorf("empty aggregate = %v", r)
	}
	// Grouped over empty: no rows.
	res = execAgg(t, db, "SELECT COUNT(*) FROM empty GROUP BY v")
	if len(res.Rows) != 0 {
		t.Errorf("grouped empty = %v", res.Rows)
	}
}

func TestAggregateParseErrors(t *testing.T) {
	for _, src := range []string{
		"SELECT region, COUNT(*) FROM sales", // columns or aggregates, not both
		"SELECT COUNT(*), region FROM sales",
		"SELECT region FROM sales GROUP BY region", // GROUP BY wants an aggregate list
		"SELECT * FROM sales GROUP BY region",
		"SELECT COUNT(*) FROM sales ORDER BY region", // ORDER BY / LIMIT want a row list
		"SELECT COUNT(*) FROM sales GROUP BY region ORDER BY region",
		"SELECT COUNT(*) FROM sales LIMIT 1",
		"SELECT COUNT( FROM sales",
		"SELECT COUNT(amount FROM sales",
		"SELECT SUM(*) FROM sales",           // * only for COUNT
		"SELECT NOPE(x) FROM sales",          // unknown function
		"SELECT COUNT(*) FROM",               // missing table
		"SELECT COUNT(*) FROM sales GROUP x", // bad group by
		"SELECT COUNT(*) FROM sales trailing",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("%q: want error", src)
		}
	}
}

func TestAggregateExecErrors(t *testing.T) {
	db := aggDB(t)
	for _, src := range []string{
		"SELECT SUM(region) FROM sales",  // non-numeric sum
		"SELECT COUNT(ghost) FROM sales", // unknown column
		"SELECT COUNT(*) FROM ghost",     // unknown table
		"SELECT COUNT(*) FROM sales GROUP BY ghost",
	} {
		if _, err := db.Exec(src); err == nil {
			t.Errorf("%q: want exec error", src)
		}
	}
	// Whether a statement errs is decided from the schema alone: the same
	// statements fail over a table with no row to trip on.
	mustExec(t, db, "DELETE FROM sales")
	if _, err := db.Exec("SELECT SUM(region) FROM sales"); err == nil {
		t.Error("SUM over a TEXT column accepted on an empty table")
	}
}

// TestAggregateIsASelect: an aggregate text parses to the same statement
// type as any SELECT, a column may share an aggregate function's name, and
// the result names each column's source attribute.
func TestAggregateIsASelect(t *testing.T) {
	st, err := Parse("select count(*), Sum(amount), MIN(rep) from sales where amount > 1 group by region")
	if err != nil {
		t.Fatal(err)
	}
	sel, ok := st.(*SelectStmt)
	if !ok || len(sel.Aggs) != 3 || sel.GroupBy != "region" || sel.Columns != nil || sel.Where == nil || sel.Limit != -1 {
		t.Fatalf("parsed %#v", st)
	}
	if sel.Aggs[0] != (AggExpr{AggCount, "*"}) || sel.Aggs[1] != (AggExpr{AggSum, "amount"}) {
		t.Errorf("aggs = %v", sel.Aggs)
	}
	db := aggDB(t)
	res := execAgg(t, db, "SELECT COUNT(*), SUM(amount), MIN(rep) FROM sales GROUP BY region")
	if got, want := fmt.Sprint(res.Attributes()), "[region  amount rep]"; got != want {
		t.Errorf("attributes = %s, want %s", got, want)
	}
	if rows := execAgg(t, db, "SELECT region FROM sales"); rows.Attrs != nil || fmt.Sprint(rows.Attributes()) != "[region]" {
		t.Errorf("row result attributes = %v / %v", rows.Attrs, rows.Attributes())
	}
	mustExec(t, db, "CREATE TABLE odd (count INT, max TEXT)")
	mustExec(t, db, "INSERT INTO odd VALUES (3, 'x')")
	if res := execAgg(t, db, "SELECT count, max FROM odd"); res.Rows[0][0] != Int(3) {
		t.Errorf("columns named like aggregates = %v", res.Rows)
	}
	if res := execAgg(t, db, "SELECT MAX(count) FROM odd"); res.Rows[0][0] != Int(3) {
		t.Errorf("MAX(count) = %v", res.Rows)
	}
}

// TestAggregateInTxnAndExplain: what the one SELECT path gives aggregates
// for free — read-your-writes inside a transaction, a plan from Explain.
func TestAggregateInTxnAndExplain(t *testing.T) {
	db := aggDB(t)
	txn := db.Begin()
	defer txn.Abort()
	if _, err := txn.Exec("INSERT INTO sales VALUES ('east', 700, 'z')"); err != nil {
		t.Fatal(err)
	}
	res, err := txn.Exec("SELECT COUNT(*), SUM(amount) FROM sales WHERE region = 'east'")
	if err != nil || res.Rows[0][0] != Int(3) || res.Rows[0][1] != Float(1000) {
		t.Errorf("aggregate inside the transaction = %v, %v; want its own insert counted", res, err)
	}
	if out := execAgg(t, db, "SELECT COUNT(*) FROM sales WHERE region = 'east'"); out.Rows[0][0] != Int(2) {
		t.Errorf("aggregate outside the transaction = %v, want the committed 2", out.Rows)
	}
	plan, err := db.Explain("SELECT COUNT(*) FROM sales WHERE region = 'east' GROUP BY rep")
	if err != nil || plan.Access != "key-scan" || plan.EstRows != 5 {
		t.Errorf("Explain of an aggregate = %v, %v; want key-scan over the 5 committed rows", plan, err)
	}
}

func TestAggregateMinMaxStrings(t *testing.T) {
	db := aggDB(t)
	res := execAgg(t, db, "SELECT MIN(rep), MAX(rep) FROM sales")
	if res.Rows[0][0] != Str("a") || res.Rows[0][1] != Str("d") {
		t.Errorf("min/max rep = %v", res.Rows[0])
	}
}

func TestSecureAggregateRespectsRowPolicies(t *testing.T) {
	sdb := NewSecureDB(NewDatabase(), nil)
	dba := &policy.Subject{ID: "dba"}
	if err := sdb.CreateTable(dba, "CREATE TABLE sales (region TEXT, amount INT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"('east', 100)", "('east', 200)", "('west', 50)"} {
		if _, err := sdb.Exec(dba, "INSERT INTO sales VALUES "+r); err != nil {
			t.Fatal(err)
		}
	}
	if err := sdb.Grants().Grant("dba", "east-analyst", sysr.Select, "sales", false); err != nil {
		t.Fatal(err)
	}
	pred := MustParse("SELECT * FROM sales WHERE region = 'east'").(*SelectStmt).Where
	sdb.AddRowPolicy(&RowPolicy{
		Name: "east-only", Table: "sales",
		Subject: policy.SubjectSpec{IDs: []string{"east-analyst"}}, Pred: pred,
	})
	analyst := &policy.Subject{ID: "east-analyst"}
	res, err := sdb.Exec(analyst, "SELECT COUNT(*), SUM(amount) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != Int(2) || res.Rows[0][1] != Float(300) {
		t.Errorf("aggregate over visible rows = %v (west row must not count)", res.Rows[0])
	}
	// Stranger with grants but no row policy sees zero rows, not an error
	// revealing the table size.
	if err := sdb.Grants().Grant("dba", "outsider", sysr.Select, "sales", false); err != nil {
		t.Fatal(err)
	}
	res, err = sdb.Exec(&policy.Subject{ID: "outsider"}, "SELECT COUNT(*) FROM sales")
	if err != nil {
		t.Fatal(err)
	}
	if res.Rows[0][0] != Int(0) {
		t.Errorf("outsider count = %v, want 0", res.Rows[0][0])
	}
	// No privilege at all: refused.
	if _, err := sdb.Exec(&policy.Subject{ID: "nobody"}, "SELECT COUNT(*) FROM sales"); err == nil {
		t.Error("aggregate without SELECT privilege accepted")
	}
}
