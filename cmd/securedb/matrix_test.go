package main

import (
	"fmt"
	"net/http"
	"strings"
	"testing"
	"time"

	"webdbsec/internal/authtoken"
	"webdbsec/internal/credential"
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

// material is one way a request can try to prove the identity it claims:
// the header it sets, if any, and the status the front door answers it
// with (200: the request reaches the pipeline).
type material struct {
	name   string
	header func(t *testing.T, s *server, subject string) (key, value string)
	door   int
}

// materials are the route × material matrix's material axis: only a valid
// token, or a wallet from a trusted issuer, of the claimed subject itself
// gets past the front door.
func materials(trusted, rogue *credential.Authority) []material {
	wallet := func(t *testing.T, ca *credential.Authority, subject string) string {
		w := credential.NewWallet(subject)
		if err := w.Add(ca.Issue("analyst", subject, nil)); err != nil {
			t.Fatal(err)
		}
		enc, err := authtoken.EncodeWallet(w)
		if err != nil {
			t.Fatal(err)
		}
		return enc
	}
	other := map[string]string{"dba": "ana", "ana": "dba"}
	return []material{
		{"no material", nil, http.StatusUnauthorized},
		{"a malformed token", func(*testing.T, *server, string) (string, string) {
			return authtoken.TokenHeader, "not base64url!"
		}, http.StatusBadRequest},
		{"an expired token", func(t *testing.T, s *server, subject string) (string, string) {
			return authtoken.TokenHeader, mint(t, s, subject, time.Now().Add(-2*time.Minute))
		}, http.StatusUnauthorized},
		{"another subject's token", func(t *testing.T, s *server, subject string) (string, string) {
			return authtoken.TokenHeader, mint(t, s, other[subject], time.Now())
		}, http.StatusUnauthorized},
		{"a wallet from an untrusted issuer", func(t *testing.T, _ *server, subject string) (string, string) {
			return authtoken.WalletHeader, wallet(t, rogue, subject)
		}, http.StatusUnauthorized},
		{"a valid token", func(t *testing.T, s *server, subject string) (string, string) {
			return authtoken.TokenHeader, mint(t, s, subject, time.Now())
		}, http.StatusOK},
		{"a trusted wallet", func(t *testing.T, _ *server, subject string) (string, string) {
			return authtoken.WalletHeader, wallet(t, trusted, subject)
		}, http.StatusOK},
	}
}

// TestRouteKindMatrix: the front door decides who is asking, then the
// statement, not the route it arrived on, decides what runs. Every node ×
// route × material × subject × statement kind cell answers the status the
// material and the grant call for, changes the database only when a
// permitted write arrives on /exec from a proven subject, and leaves
// exactly one audit record: deny:auth, naming the claimed subject, for a
// request the front door refused. Nodes are a single node and the leader
// of a group, with authentication on, and a single node with
// authentication off, which serves the identity a request asserts. /agg,
// the old name of /query, is gone: it answers 404 and leaves no record.
func TestRouteKindMatrix(t *testing.T) {
	statements := []struct {
		kind, sql   string
		read, write bool
	}{
		{"SELECT", "SELECT age FROM patients WHERE age > 40", true, false},
		{"aggregate SELECT", "SELECT COUNT(*), AVG(age) FROM patients GROUP BY zip", true, false},
		{"INSERT", "INSERT INTO patients VALUES ('eve', '99999', 33, 'flu')", false, true},
		{"UPDATE", "UPDATE patients SET age = %d WHERE name = 'person-0001'", false, true},
		{"DELETE", "DELETE FROM patients WHERE name = 'eve'", false, true},
		{"CREATE TABLE", "CREATE TABLE loot (a INT)", false, false},
		{"unparsable", "SELEC age FROM patients", false, false},
	}
	// dba owns patients; ana holds only Select on it; mallory holds nothing.
	granted := func(subject string, read bool) bool { return subject == "dba" || subject == "ana" && read }

	trusted, err := credential.NewAuthority("test-ca")
	if err != nil {
		t.Fatal(err)
	}
	rogue, err := credential.NewAuthority("rogue-ca")
	if err != nil {
		t.Fatal(err)
	}
	off := testConfig(t)
	off.tokenTTL = 0
	authOff, err := newServer(off)
	if err != nil {
		t.Fatalf("newServer: %v", err)
	}
	t.Cleanup(authOff.close)
	_, leader := startGroup(t, "n1", "n2", "n3")
	nodes := []struct {
		name      string
		s         *server
		subjects  []string
		materials []material
	}{
		{"single", startSingle(t), []string{"dba", "ana"}, materials(trusted, rogue)},
		{"leader", leader, []string{"dba", "ana"}, materials(trusted, rogue)},
		{"authentication off", authOff, []string{"dba", "ana", "mallory"}, []material{{"no material", nil, http.StatusOK}}},
	}
	update := 100
	for _, node := range nodes {
		s, h := node.s, node.s.mux(false)
		if s.creds != nil {
			s.creds.TrustAuthority(trusted)
		}
		for _, route := range []string{"/query", "/exec"} {
			for _, sub := range node.subjects {
				for _, m := range node.materials {
					for _, st := range statements {
						sql := st.sql
						if strings.Contains(sql, "%d") {
							update++
							sql = fmt.Sprintf(sql, update)
						}
						cell := fmt.Sprintf("%s: %s %s as %s with %s", node.name, route, st.kind, sub, m.name)
						served := st.read
						if route == "/exec" {
							served = st.write
						}
						want := m.door
						if want == http.StatusOK && (!served || !granted(sub, st.read)) {
							want = http.StatusForbidden
						}
						req := formRequest("POST", route, sqlForm(sub, "analyst", sql))
						if m.header != nil {
							k, v := m.header(t, s, sub)
							req.Header.Set(k, v)
						}
						before, records := tableState(t, s), s.auditLog.Len()
						r := send(h, req)
						if r.status != want {
							t.Errorf("%s = %d %q, want %d", cell, r.status, r.body, want)
						}
						if changed := tableState(t, s) != before; changed != (want == http.StatusOK && st.write) {
							t.Errorf("%s: database changed = %v", cell, changed)
						}
						recs := s.auditLog.Records()
						if grew := len(recs) - records; grew != 1 {
							t.Errorf("%s: audit log grew by %d records, want 1", cell, grew)
							continue
						}
						if last := recs[records]; (last.Outcome == "deny:auth") != (m.door != http.StatusOK) || last.Actor != sub || last.Object != sql {
							t.Errorf("%s: audit record %+v", cell, last)
						}
					}
				}
			}
		}
		records := s.auditLog.Len()
		if r := do(h, "POST", "/agg", sqlForm("dba", "analyst", "SELECT COUNT(*) FROM patients"), ""); r.status != http.StatusNotFound {
			t.Errorf("%s: POST /agg = %d %q, want 404", node.name, r.status, r.body)
		}
		if grew := s.auditLog.Len() - records; grew != 0 {
			t.Errorf("%s: POST /agg grew the audit log by %d records, want 0", node.name, grew)
		}
	}
}
