package reldb_test

import (
	"testing"

	"webdbsec/internal/core"
	"webdbsec/internal/inference"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/sysr"
)

// TestRefusedQueryReadsNoRow: the pipeline decides privacy masking,
// inference and audit from the bound statement, so a query it refuses runs
// the row matcher on no row — an inference refusal and a GROUP BY over a
// withheld attribute alike — and a permitted one runs it only when its
// result is read. The subject's row policy is the counting predicate.
func TestRefusedQueryReadsNoRow(t *testing.T) {
	w := core.NewSecureWebDB(core.Config{})
	dba := &policy.Subject{ID: "dba"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"))
	for _, r := range []string{"('Ada', '10001', 34, 'flu')", "('Bob', '10002', 56, 'cancer')", "('Cy', '10001', 41, 'flu')"} {
		if _, err := w.DB().Exec(dba, "INSERT INTO patients VALUES "+r); err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().Grants().Grant("dba", "ana", sysr.Select, "patients", false))
	calls := 0
	must(w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "counted", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst"}}, Pred: reldb.CountingPred(&calls),
	}))
	must(w.Privacy().Add(&privacy.Constraint{Name: "disease-alone", Attrs: []string{"disease"}, Class: privacy.Private}))
	must(w.Privacy().Add(&privacy.Constraint{Name: "identity-age", Attrs: []string{"identity", "age"}, Class: privacy.Private}))
	must(w.Inference().AddRule(&inference.Rule{Name: "reid", Body: []string{"name", "zip"}, Head: "identity"}))
	ana := &policy.Subject{ID: "ana", Roles: []string{"analyst"}}

	for _, q := range []struct{ sql, outcome string }{
		{"SELECT name, zip, age FROM patients", "deny:inference:identity-age"},
		{"SELECT COUNT(*) FROM patients GROUP BY disease", "deny:privacy:disease"},
	} {
		if _, err := w.Query(ana, q.sql); err == nil {
			t.Fatalf("%s: answered, want %s", q.sql, q.outcome)
		}
		if got := w.Audit().Records()[w.Audit().Len()-1].Outcome; got != q.outcome {
			t.Fatalf("%s: outcome %q, want %q", q.sql, got, q.outcome)
		}
		if calls != 0 {
			t.Errorf("%s: refused, yet the matcher ran on %d rows", q.sql, calls)
		}
	}

	for _, sql := range []string{"SELECT name, disease FROM patients ORDER BY name LIMIT 2", "SELECT COUNT(*), MAX(disease) FROM patients"} {
		calls = 0
		out, err := w.Query(ana, sql)
		if err != nil {
			t.Fatalf("%s: %v", sql, err)
		}
		if calls != 0 {
			t.Errorf("%s: the matcher ran on %d rows before the result was read", sql, calls)
		}
		out.Result.Each(func(reldb.Row, []int) {})
		if calls != 3 {
			t.Errorf("%s: reading the result ran the matcher on %d rows, want 3", sql, calls)
		}
	}
}
