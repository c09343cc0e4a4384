package core

import (
	"strings"
	"testing"

	"webdbsec/internal/inference"
	"webdbsec/internal/policy"
	"webdbsec/internal/privacy"
	"webdbsec/internal/reldb"
	"webdbsec/internal/sysr"
)

// setupPipeline builds a SecureWebDB over a patients table with grants for
// "analyst", a row policy exposing all rows, a privacy constraint making
// {name, disease} private, and an inference rule name ∧ zip → identity
// with {identity, disease} private.
func setupPipeline(t *testing.T) (*SecureWebDB, *policy.Subject) {
	t.Helper()
	w := NewSecureWebDB(Config{})
	dba := &policy.Subject{ID: "dba"}
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().CreateTable(dba, "CREATE TABLE patients (name TEXT, zip TEXT, age INT, disease TEXT)"))
	for _, r := range []string{
		"('Ada', '10001', 34, 'flu')",
		"('Bob', '10002', 56, 'cancer')",
	} {
		if _, err := w.DB().Exec(dba, "INSERT INTO patients VALUES "+r); err != nil {
			t.Fatal(err)
		}
	}
	must(w.DB().Grants().Grant("dba", "ana", sysr.Select, "patients", false))
	pred := reldb.MustParse("SELECT * FROM patients WHERE age >= 0").(*reldb.SelectStmt).Where
	must(w.DB().AddRowPolicy(&reldb.RowPolicy{
		Name: "analysts-all", Table: "patients",
		Subject: policy.SubjectSpec{Roles: []string{"analyst"}}, Pred: pred,
	}))
	must(w.Privacy().Add(&privacy.Constraint{
		Name: "name-disease", Attrs: []string{"name", "disease"}, Class: privacy.Private,
	}))
	must(w.Privacy().Add(&privacy.Constraint{
		Name: "identity-disease", Attrs: []string{"identity", "disease"}, Class: privacy.Private,
	}))
	must(w.Inference().AddRule(&inference.Rule{
		Name: "reid", Body: []string{"name", "zip"}, Head: "identity",
	}))
	analyst := &policy.Subject{ID: "ana", Roles: []string{"analyst"}}
	return w, analyst
}

// rowsOf reads a result the way a reply does, through Each: each result
// column's value, NULL where the column map hides it.
func rowsOf(res *reldb.Result) []reldb.Row {
	var out []reldb.Row
	res.Each(func(r reldb.Row, cols []int) {
		row := make(reldb.Row, len(cols))
		for j, c := range cols {
			if c >= 0 {
				row[j] = r[c]
			}
		}
		out = append(out, row)
	})
	return out
}

func TestPipelineCleanQuery(t *testing.T) {
	w, analyst := setupPipeline(t)
	out, err := w.Query(analyst, "SELECT age, zip FROM patients")
	if err != nil {
		t.Fatal(err)
	}
	if len(rowsOf(out.Result)) != 2 || len(out.MaskedColumns) != 0 {
		t.Errorf("out = %+v", out)
	}
	if w.Audit().Len() == 0 {
		t.Error("no audit record")
	}
}

func TestPipelinePrivacyMasking(t *testing.T) {
	w, analyst := setupPipeline(t)
	out, err := w.Query(analyst, "SELECT name, disease FROM patients")
	if err != nil {
		t.Fatal(err)
	}
	if len(out.MaskedColumns) != 1 || out.MaskedColumns[0] != "disease" {
		t.Fatalf("masked = %v", out.MaskedColumns)
	}
	rows := rowsOf(out.Result)
	if len(rows) != 2 {
		t.Fatalf("rows = %v", rows)
	}
	for _, r := range rows {
		if !r[1].IsNull() || r[0].IsNull() {
			t.Errorf("row %v: want the name kept and the disease withheld", r)
		}
	}
}

func TestPipelineInferenceGate(t *testing.T) {
	w, analyst := setupPipeline(t)
	// Query 1: name+zip derives identity; identity alone is not protected,
	// so this flows.
	if _, err := w.Query(analyst, "SELECT name, zip FROM patients"); err != nil {
		t.Fatalf("first query blocked: %v", err)
	}
	// Query 2: disease now combines with the remembered identity into a
	// private combination.
	_, err := w.Query(analyst, "SELECT age, disease FROM patients")
	if err == nil {
		t.Fatal("inference channel not blocked")
	}
	// The closure contains both {identity, disease} and — via the
	// remembered name — {name, disease}; either constraint may be the one
	// reported.
	if !strings.Contains(err.Error(), "-disease") {
		t.Errorf("err = %v", err)
	}
	recs := w.Audit().Records()
	last := recs[len(recs)-1]
	if !strings.HasPrefix(last.Outcome, "deny:inference") {
		t.Errorf("last audit outcome = %q", last.Outcome)
	}
}

func TestMaskedColumnsDoNotFeedInference(t *testing.T) {
	w, analyst := setupPipeline(t)
	// name+disease: disease is masked by privacy, so the subject only
	// actually receives name — which must not poison its history with
	// disease.
	if _, err := w.Query(analyst, "SELECT name, disease FROM patients"); err != nil {
		t.Fatal(err)
	}
	hist := w.Inference().History("ana")
	for _, a := range hist {
		if a == "disease" {
			t.Error("masked column entered inference history")
		}
	}
}

func TestPipelineAccessDenied(t *testing.T) {
	w, _ := setupPipeline(t)
	stranger := &policy.Subject{ID: "nobody"}
	if _, err := w.Query(stranger, "SELECT age FROM patients"); err == nil {
		t.Fatal("stranger query accepted")
	}
	recs := w.Audit().Records()
	if recs[len(recs)-1].Outcome != "deny:access" {
		t.Errorf("outcome = %q", recs[len(recs)-1].Outcome)
	}
}

func TestExecuteAudited(t *testing.T) {
	w, _ := setupPipeline(t)
	dba := &policy.Subject{ID: "dba"}
	if _, err := w.Execute(dba, "INSERT INTO patients VALUES ('Cyd', '10003', 40, 'cold')"); err != nil {
		t.Fatal(err)
	}
	stranger := &policy.Subject{ID: "nobody"}
	if _, err := w.Execute(stranger, "DELETE FROM patients"); err == nil {
		t.Fatal("stranger DML accepted")
	}
	if got := w.Audit().Verify(); got != -1 {
		t.Errorf("audit chain corrupt at %d", got)
	}
}

// lastOutcome is the newest audit record's outcome.
func lastOutcome(w *SecureWebDB) string {
	recs := w.Audit().Records()
	return recs[len(recs)-1].Outcome
}

// TestAggregateIsAQuery: an aggregate passes the same four stages as any
// SELECT, keyed on source attributes — MIN(disease) beside name is the
// private pair, COUNT(*) releases nothing, and what MIN(name), MIN(zip)
// release feeds the inference history like the columns themselves.
func TestAggregateIsAQuery(t *testing.T) {
	w, analyst := setupPipeline(t)
	before := w.Audit().Len()
	out, err := w.Query(analyst, "SELECT COUNT(*), MIN(disease) FROM patients GROUP BY name")
	if err != nil {
		t.Fatal(err)
	}
	rows := rowsOf(out.Result)
	if len(out.MaskedColumns) != 1 || out.MaskedColumns[0] != "MIN(disease)" || len(rows) != 2 {
		t.Fatalf("masked = %v, rows = %v", out.MaskedColumns, rows)
	}
	for _, r := range rows {
		if !r[2].IsNull() || r[1] != reldb.Int(1) {
			t.Errorf("row %v: want the disease withheld and the count kept", r)
		}
	}
	if w.Audit().Len() != before+1 || lastOutcome(w) != "permit" {
		t.Errorf("audit grew by %d, last %q", w.Audit().Len()-before, lastOutcome(w))
	}
	if hist := w.Inference().History("ana"); strings.Join(hist, ",") != "name" {
		t.Errorf("history after the masked aggregate = %v, want only name", hist)
	}
	if _, err := w.Query(analyst, "SELECT COUNT(*) FROM patients"); err != nil {
		t.Fatal(err)
	}
	if hist := w.Inference().History("ana"); strings.Join(hist, ",") != "name" {
		t.Errorf("COUNT(*) entered the history: %v", hist)
	}
	if _, err := w.Query(analyst, "SELECT MIN(name), MAX(zip) FROM patients"); err != nil {
		t.Fatalf("name and zip aggregates blocked: %v", err)
	}
	if _, err := w.Query(analyst, "SELECT MAX(disease) FROM patients"); err == nil || !strings.HasPrefix(lastOutcome(w), "deny:inference") {
		t.Errorf("MAX(disease) after name and zip: err %v, outcome %q; want an inference refusal", err, lastOutcome(w))
	}
}

// TestGroupByWithheldAttributeRefused: when the GROUP BY column is itself
// withheld, masking its cells afterwards would leave one row per hidden
// value; the query is refused instead.
func TestGroupByWithheldAttributeRefused(t *testing.T) {
	w, analyst := setupPipeline(t)
	if err := w.Privacy().Add(&privacy.Constraint{Name: "disease-alone", Attrs: []string{"disease"}, Class: privacy.Private}); err != nil {
		t.Fatal(err)
	}
	if _, err := w.Query(analyst, "SELECT COUNT(*) FROM patients GROUP BY disease"); err == nil || lastOutcome(w) != "deny:privacy:disease" {
		t.Errorf("grouping by a withheld attribute: err %v, outcome %q", err, lastOutcome(w))
	}
	if out, err := w.Query(analyst, "SELECT COUNT(*), MAX(disease) FROM patients GROUP BY age"); err != nil || !rowsOf(out.Result)[0][2].IsNull() {
		t.Errorf("aggregating a withheld attribute: %v, %v; want it masked, not refused", out, err)
	}
}

// TestStatementKindDecidesTheEntry: a write sent to Query and a read sent to
// Execute are refused and audited before they touch a table, whoever sends
// them.
func TestStatementKindDecidesTheEntry(t *testing.T) {
	w, analyst := setupPipeline(t)
	dba := &policy.Subject{ID: "dba"}
	for _, s := range []*policy.Subject{dba, analyst} {
		for _, sql := range []string{
			"UPDATE patients SET zip = 'x'", "DELETE FROM patients",
			"INSERT INTO patients VALUES ('Eve', '1', 1, 'flu')", "CREATE TABLE t (a INT)",
		} {
			before := w.Audit().Len()
			if _, err := w.Query(s, sql); err == nil || !strings.Contains(err.Error(), "not a SELECT") {
				t.Errorf("Query(%s, %q) = %v, want a kind refusal", s.ID, sql, err)
			}
			if w.Audit().Len() != before+1 || lastOutcome(w) != "deny:access" {
				t.Errorf("Query(%s, %q): audit grew by %d, last %q", s.ID, sql, w.Audit().Len()-before, lastOutcome(w))
			}
		}
		for _, sql := range []string{"SELECT age FROM patients", "SELECT COUNT(*) FROM patients"} {
			before := w.Audit().Len()
			if res, err := w.Execute(s, sql); err == nil || !strings.Contains(err.Error(), "is a query") {
				t.Errorf("Execute(%s, %q) = %v, %v, want a kind refusal", s.ID, sql, res, err)
			}
			if w.Audit().Len() != before+1 || lastOutcome(w) != "deny" {
				t.Errorf("Execute(%s, %q): audit grew by %d, last %q", s.ID, sql, w.Audit().Len()-before, lastOutcome(w))
			}
		}
	}
	raw, err := w.DB().DB().Exec("SELECT name, zip FROM patients ORDER BY name")
	if err != nil || len(raw.Rows) != 2 || raw.Rows[0][1] != reldb.Str("10001") {
		t.Errorf("table after the refused statements = %v, %v", raw, err)
	}
	if hist := w.Inference().History("ana"); len(hist) != 0 {
		t.Errorf("a refused Execute fed the inference history: %v", hist)
	}
}

func TestDefaultsConstructed(t *testing.T) {
	w := NewSecureWebDB(Config{})
	if w.DB() == nil || w.Privacy() == nil || w.Inference() == nil || w.Audit() == nil {
		t.Error("defaults missing")
	}
}
