package main

import (
	"fmt"
	"net/http"
	"reflect"
	"testing"

	"webdbsec/internal/reldb"
	"webdbsec/internal/synth"
)

// idRow is one stored row with its row id.
type idRow struct {
	ID  int64
	Row reldb.Row
}

func patients(t *testing.T, db *reldb.Database) []idRow {
	t.Helper()
	tbl, ok := db.Table("patients")
	if !ok {
		t.Fatal("no patients table")
	}
	var out []idRow
	tbl.Scan(func(id int64, r reldb.Row) bool {
		out = append(out, idRow{id, r})
		return true
	})
	return out
}

// TestDemoLoadMatchesRowByRow: the demo's multi-row INSERTs build the same
// patients table, ids and rows, as one INSERT per person, at sizes on
// either side of the batch size; they take ceil(people/demoInsertRows)
// statements, none of which enters the SELECT parse cache.
func TestDemoLoadMatchesRowByRow(t *testing.T) {
	for _, people := range []int{1, demoInsertRows - 1, demoInsertRows, demoInsertRows + 1, 5000} {
		s, err := newServer(config{people: people})
		if err != nil {
			t.Fatalf("people=%d: newServer: %v", people, err)
		}
		sdb := s.serving.Load().DB()
		got := patients(t, sdb.DB())
		if n := sdb.ParseCacheStats().Size; n != 0 {
			t.Errorf("people=%d: the demo load left %d texts in the SELECT parse cache", people, n)
		}
		s.close()

		ref := reldb.NewDatabase()
		if _, err := ref.Exec("CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"); err != nil {
			t.Fatal(err)
		}
		for _, p := range synth.People(1, people) {
			stmt := fmt.Sprintf("INSERT INTO patients VALUES (%s, %s, %d, %s)",
				reldb.QuoteString(p.Name), reldb.QuoteString(p.Zip), p.Age, reldb.QuoteString(p.Disease))
			if _, err := ref.Exec(stmt); err != nil {
				t.Fatal(err)
			}
		}
		if want := patients(t, ref); !reflect.DeepEqual(got, want) {
			t.Errorf("people=%d: the demo load differs from a row-by-row load (%d vs %d rows)", people, len(got), len(want))
		}
		if got, want := len(demoInserts(people)), (people+demoInsertRows-1)/demoInsertRows; got != want {
			t.Errorf("people=%d: %d INSERT statements, want %d", people, got, want)
		}
	}
}

// TestFreshDurableStartAppends: a fresh durable start writes the demo as
// two db-log records, CREATE TABLE and one Commit, and so pays at most two
// fsyncs; a row-by-row load wrote one record and one fsync per person.
func TestFreshDurableStartAppends(t *testing.T) {
	c := config{people: 200, dbWAL: memWAL(t), auditWAL: memWAL(t)}
	s, err := newServer(c)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	defer s.close()
	if st := c.dbWAL.Stats(); st.Appends != 2 || st.Fsyncs > 2 {
		t.Fatalf("fresh start: %d db-log appends and %d fsyncs, want 2 and at most 2", st.Appends, st.Fsyncs)
	}
	if n := len(patients(t, s.serving.Load().DB().DB())); n != 200 {
		t.Fatalf("fresh start loaded %d patients, want 200", n)
	}
}

// TestExecMultiRowInsert: /exec answers a multi-row INSERT with its row
// count and one audit record; a subject without the Insert grant, or a
// statement with one malformed tuple, gets 403, one deny record and no row.
func TestExecMultiRowInsert(t *testing.T) {
	s := startSingle(t)
	client := newClient(s.mux(false))
	db := s.serving.Load().DB().DB()
	cases := []struct {
		subject, sql string
		status       int
		body         string
		outcome      string
		added        int
	}{
		{"dba", "INSERT INTO patients VALUES ('p-a', '10001', 40, 'flu'), ('p-b', '10002', 41, 'cold'), ('p-c', '10003', 42, 'flu')",
			200, "ok, 3 row(s) affected\n", "permit", 3},
		{"ana", "INSERT INTO patients VALUES ('p-d', '10004', 43, 'flu'), ('p-e', '10005', 44, 'cold')",
			http.StatusForbidden, "", "deny", 0},
		{"dba", "INSERT INTO patients VALUES ('p-f', '10006', 45, 'flu'), ('p-g', '10007', 'old', 'cold'), ('p-h', '10008', 47, 'flu')",
			http.StatusForbidden, "", "deny", 0},
		{"dba", "INSERT INTO patients VALUES ('p-i', '10009', 48, 'flu')",
			200, "ok, 1 row(s) affected\n", "permit", 1},
	}
	for _, c := range cases {
		rows, trail := patients(t, db), s.auditLog.Len()
		r := client.post("/exec", sqlForm(c.subject, "analyst", c.sql))
		if r.status != c.status || c.body != "" && r.body != c.body {
			t.Errorf("%s: %s = %d %q, want %d %q", c.subject, c.sql, r.status, r.body, c.status, c.body)
		}
		after := patients(t, db)
		if len(after) != len(rows)+c.added || !reflect.DeepEqual(after[:len(rows)], rows) {
			t.Errorf("%s: %s took the table from %d to %d rows, want %d added", c.subject, c.sql, len(rows), len(after), c.added)
		}
		for i, ir := range after[len(rows):] {
			if want := rows[len(rows)-1].ID + int64(i) + 1; ir.ID != want {
				t.Errorf("%s: inserted row %d has id %d, want %d", c.subject, i, ir.ID, want)
			}
		}
		recs := s.auditLog.Records()
		if len(recs) != trail+1 {
			t.Errorf("%s: %s added %d audit records, want 1", c.subject, c.sql, len(recs)-trail)
			continue
		}
		if last := recs[trail]; last.Actor != c.subject || last.Action != "execute" || last.Object != c.sql || last.Outcome != c.outcome {
			t.Errorf("%s: audit record %+v, want execute %s", c.subject, last, c.outcome)
		}
	}
}
