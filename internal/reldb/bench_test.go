package reldb

import (
	"fmt"
	"testing"
)

// The demo schema of cmd/securedb and bench/: every read there is a
// policy-rewritten predicate scan over it.
const patientsDDL = "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"

func patientRow(i int) Row {
	return Row{Str(fmt.Sprintf("person-%06d", i)), Str(fmt.Sprintf("%05d", 10000+i%97)),
		Int(int64(18 + i%70)), Str(fmt.Sprintf("d%d", i%11))}
}

// patientsTable is a frozen n-row patients table, built below SQL.
func patientsTable(tb testing.TB, n int) *Table {
	tb.Helper()
	t := NewTable("patients", MustParse(patientsDDL).(*CreateTableStmt).Schema)
	for i := 0; i < n; i++ {
		if _, err := t.Insert(patientRow(i)); err != nil {
			tb.Fatal(err)
		}
	}
	return t.freeze()
}

// patientsDB is an in-memory database holding patientsTable(n).
func patientsDB(tb testing.TB, n int) *Database {
	tb.Helper()
	return newDatabaseAt(dbVersion{tables: map[string]*Table{"patients": patientsTable(tb, n)}}, false)
}

var benchSizes = []int{200, 5000, 50000}

var benchSink *Result

// BenchmarkSelectScan is the policy-rewritten point lookup: a full
// predicate scan returning one row. The two named cases are the repository
// benchmark's query shapes over its 5,000 rows, with the demo row policy
// (age >= 0) AND-ed on the right as SecureDB.rewriteWhere does.
func BenchmarkSelectScan(b *testing.B) {
	run := func(name string, n, rows int, sql string) {
		b.Run(name, func(b *testing.B) {
			db := patientsDB(b, n)
			sel := MustParse(sql).(*SelectStmt)
			sel.Where = &AndExpr{L: sel.Where, R: &CmpExpr{Col: "age", Op: ">=", Val: Int(0)}}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				res, err := db.execSelect(sel)
				if err != nil || len(res.Rows) != rows {
					b.Fatalf("rows %v, err %v", res, err)
				}
				benchSink = res
			}
		})
	}
	for _, n := range benchSizes {
		run(fmt.Sprintf("rows=%d", n), n, 1, fmt.Sprintf("SELECT name, age FROM patients WHERE name = 'person-%06d'", n/2))
	}
	run("point_text_eq", 5000, 1, "SELECT name, zip FROM patients WHERE name = 'person-002500'")
	run("range_int", 5000, 20, "SELECT name, age FROM patients WHERE age >= 40 AND age < 45 ORDER BY age LIMIT 20")
}

// BenchmarkCommitOneRow is the storage cost of a single-row commit: clone
// the committed table, update one row by id, freeze. (The SQL UPDATE adds a
// scan to find the row; this is what the commit itself costs.)
func BenchmarkCommitOneRow(b *testing.B) {
	for _, n := range benchSizes {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			t := patientsTable(b, n)
			row := patientRow(n / 2)
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				w := t.clone()
				row[1] = Str(fmt.Sprintf("%05d", i%100000))
				if _, err := w.Update(int64(n/2+1), row); err != nil {
					b.Fatal(err)
				}
				t = w.freeze()
			}
		})
	}
}

// BenchmarkLoadRows is the demo load: n autocommit INSERT statements, each
// its own transaction and commit.
func BenchmarkLoadRows(b *testing.B) {
	for _, n := range []int{200, 1000, 5000} {
		b.Run(fmt.Sprintf("rows=%d", n), func(b *testing.B) {
			stmts := make([]string, n)
			for i := range stmts {
				r := patientRow(i)
				stmts[i] = fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
					QuoteString(r[0].S), QuoteString(r[1].S), r[2].I, QuoteString(r[3].S))
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				db := NewDatabase()
				if _, err := db.Exec(patientsDDL); err != nil {
					b.Fatal(err)
				}
				for _, s := range stmts {
					if _, err := db.Exec(s); err != nil {
						b.Fatal(err)
					}
				}
			}
		})
	}
}
