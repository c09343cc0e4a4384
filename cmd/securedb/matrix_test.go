package main

import (
	"fmt"
	"net/http"
	"testing"
)

// tableState renders everything a statement could have changed: the table
// list and every patients row, read below the gates.
func tableState(t *testing.T, s *server) string {
	t.Helper()
	db := s.serving.Load().DB().DB()
	res, err := db.Exec("SELECT * FROM patients")
	if err != nil {
		t.Fatalf("read patients: %v", err)
	}
	return fmt.Sprint(db.Tables(), res.Rows)
}

// TestRouteKindMatrix: the statement, not the route it arrived on, decides
// what runs. Every route × statement kind × subject cell answers the status
// the kind and the grant call for, changes the database only when a
// permitted write arrives on /exec, and leaves exactly one audit record —
// on a single node and on the leader of a group. /agg, the old name of
// /query, is gone: it answers 404 and leaves no record.
func TestRouteKindMatrix(t *testing.T) {
	statements := []struct {
		kind, sql   string
		read, write bool
	}{
		{"SELECT", "SELECT age FROM patients WHERE age > 40", true, false},
		{"aggregate SELECT", "SELECT COUNT(*), AVG(age) FROM patients GROUP BY zip", true, false},
		{"INSERT", "INSERT INTO patients VALUES ('eve', '99999', 33, 'flu')", false, true},
		{"UPDATE", "UPDATE patients SET age = 1 WHERE name = 'person-0001'", false, true},
		{"DELETE", "DELETE FROM patients WHERE name = 'person-0002'", false, true},
		{"CREATE TABLE", "CREATE TABLE loot (a INT)", false, false},
		{"unparsable", "SELEC age FROM patients", false, false},
	}
	subjects := []struct {
		id      string
		granted bool
	}{{"dba", true}, {"mallory", false}}

	_, leader := startGroup(t, "n1", "n2", "n3")
	for name, s := range map[string]*server{"single": startSingle(t), "leader": leader} {
		h := s.mux(false)
		for _, route := range []string{"/query", "/exec"} {
			for _, st := range statements {
				for _, sub := range subjects {
					cell := fmt.Sprintf("%s: %s %s as %s", name, route, st.kind, sub.id)
					served := st.read
					if route == "/exec" {
						served = st.write
					}
					want := http.StatusForbidden
					if served && sub.granted {
						want = http.StatusOK
					}
					before, records := tableState(t, s), s.auditLog.Len()
					r := do(h, "POST", route, sqlForm(sub.id, "analyst", st.sql), "")
					if r.status != want {
						t.Errorf("%s = %d %q, want %d", cell, r.status, r.body, want)
					}
					if changed := tableState(t, s) != before; changed != (want == http.StatusOK && st.write) {
						t.Errorf("%s: database changed = %v", cell, changed)
					}
					if grew := s.auditLog.Len() - records; grew != 1 {
						t.Errorf("%s: audit log grew by %d records, want 1", cell, grew)
					}
				}
			}
		}
		records := s.auditLog.Len()
		if r := do(h, "POST", "/agg", sqlForm("dba", "analyst", "SELECT COUNT(*) FROM patients"), ""); r.status != http.StatusNotFound {
			t.Errorf("%s: POST /agg = %d %q, want 404", name, r.status, r.body)
		}
		if grew := s.auditLog.Len() - records; grew != 0 {
			t.Errorf("%s: POST /agg grew the audit log by %d records, want 0", name, grew)
		}
	}
}
