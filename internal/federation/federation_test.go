package federation

import (
	"context"
	"strings"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/rdf"
	"webdbsec/internal/reldb"
)

// twoHospitals builds a federation of two sources with heterogeneous local
// names: city hospital exports all its cases; military hospital is Secret
// and exports only non-officer cases.
func twoHospitals(t *testing.T) *Federation {
	t.Helper()
	mk := func(table string, rows []string) *reldb.Database {
		db := reldb.NewDatabase()
		if _, err := db.Exec("CREATE TABLE " + table + " (patient TEXT, disease TEXT, rank TEXT)"); err != nil {
			t.Fatal(err)
		}
		for _, r := range rows {
			if _, err := db.Exec("INSERT INTO " + table + " VALUES " + r); err != nil {
				t.Fatal(err)
			}
		}
		return db
	}
	city := NewSource("city", mk("cases", []string{
		"('c1', 'flu', 'civilian')",
		"('c2', 'cold', 'civilian')",
	}), rdf.Unclassified)
	if err := city.ExportTable(&Export{
		Virtual: "cases", Local: "cases", Columns: []string{"patient", "disease"},
	}); err != nil {
		t.Fatal(err)
	}
	milPred := reldb.MustParse("SELECT * FROM mil_cases WHERE rank = 'enlisted'").(*reldb.SelectStmt).Where
	mil := NewSource("military", mk("mil_cases", []string{
		"('m1', 'flu', 'enlisted')",
		"('m2', 'burn', 'officer')",
	}), rdf.Secret)
	if err := mil.ExportTable(&Export{
		Virtual: "cases", Local: "mil_cases", Columns: []string{"patient", "disease"}, Pred: milPred,
	}); err != nil {
		t.Fatal(err)
	}
	f := New()
	if err := f.AddSource(city); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource(mil); err != nil {
		t.Fatal(err)
	}
	return f
}

func TestFederatedUnionWithProvenance(t *testing.T) {
	f := twoHospitals(t)
	req := &Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: rdf.Secret}
	res, err := f.Query(context.Background(), req, "SELECT patient, disease FROM cases")
	if err != nil {
		t.Fatal(err)
	}
	if res.Columns[0] != "_source" {
		t.Errorf("columns = %v", res.Columns)
	}
	// city c1, c2 + military m1 (officer row filtered by export pred).
	if len(res.Rows) != 3 {
		t.Fatalf("rows = %v", res.Rows)
	}
	for _, r := range res.Rows {
		if r[1].S == "m2" {
			t.Error("export predicate bypassed: officer row leaked")
		}
	}
	// Sources ordered by name: city, city, military.
	if res.Rows[0][0].S != "city" || res.Rows[2][0].S != "military" {
		t.Errorf("provenance order = %v", res.Rows)
	}
}

func TestClearanceExcludesSources(t *testing.T) {
	f := twoHospitals(t)
	low := &Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: rdf.Unclassified}
	res, err := f.Query(context.Background(), low, "SELECT patient FROM cases")
	if err != nil {
		t.Fatal(err)
	}
	for _, r := range res.Rows {
		if r[0].S == "military" {
			t.Error("secret source reached at unclassified clearance")
		}
	}
	if len(res.Rows) != 2 {
		t.Errorf("rows = %d", len(res.Rows))
	}
}

func TestUnexportedColumnRefused(t *testing.T) {
	f := twoHospitals(t)
	req := &Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: rdf.Secret}
	if _, err := f.Query(context.Background(), req, "SELECT rank FROM cases"); err == nil {
		t.Error("unexported column served")
	}
	// SELECT * projects to the EXPORTED columns only.
	res, err := f.Query(context.Background(), req, "SELECT * FROM cases")
	if err != nil {
		t.Fatal(err)
	}
	for _, c := range res.Columns {
		if c == "rank" {
			t.Error("SELECT * leaked unexported column")
		}
	}
}

func TestFederatedWhereComposesWithExportPred(t *testing.T) {
	f := twoHospitals(t)
	req := &Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: rdf.Secret}
	res, err := f.Query(context.Background(), req, "SELECT patient FROM cases WHERE disease = 'flu'")
	if err != nil {
		t.Fatal(err)
	}
	if len(res.Rows) != 2 { // c1 and m1
		t.Fatalf("rows = %v", res.Rows)
	}
}

func TestSchemaMismatchRejected(t *testing.T) {
	f := twoHospitals(t)
	db := reldb.NewDatabase()
	db.Exec("CREATE TABLE cases (patient TEXT, disease TEXT, rank TEXT)")
	odd := NewSource("odd", db, rdf.Unclassified)
	if err := odd.ExportTable(&Export{
		Virtual: "cases", Local: "cases", Columns: []string{"patient"}, // mismatched list
	}); err != nil {
		t.Fatal(err)
	}
	if err := f.AddSource(odd); err == nil || !strings.Contains(err.Error(), "schema mismatch") {
		t.Errorf("schema mismatch accepted: %v", err)
	}
}

func TestExportValidation(t *testing.T) {
	db := reldb.NewDatabase()
	db.Exec("CREATE TABLE t (a INT)")
	s := NewSource("s", db, rdf.Unclassified)
	if err := s.ExportTable(&Export{Virtual: "v", Local: "ghost", Columns: []string{"a"}}); err == nil {
		t.Error("unknown local table accepted")
	}
	if err := s.ExportTable(&Export{Virtual: "v", Local: "t", Columns: []string{"ghost"}}); err == nil {
		t.Error("unknown column accepted")
	}
	if err := s.ExportTable(&Export{Virtual: "v", Local: "t"}); err == nil {
		t.Error("empty column list accepted")
	}
	if err := s.ExportTable(&Export{Local: "t", Columns: []string{"a"}}); err == nil {
		t.Error("missing virtual name accepted")
	}
}

func TestFederationErrors(t *testing.T) {
	f := twoHospitals(t)
	req := &Requestor{Subject: &policy.Subject{ID: "r"}, Clearance: rdf.Secret}
	if _, err := f.Query(context.Background(), req, "SELECT x FROM ghost_table"); err == nil {
		t.Error("unknown virtual table accepted")
	}
	if _, err := f.Query(context.Background(), req, "DELETE FROM cases"); err == nil {
		t.Error("federated DML accepted")
	}
	// A union of per-source aggregates would be silently wrong: refused as
	// a request-level error, before any source runs.
	for _, agg := range []string{"SELECT COUNT(*) FROM cases", "SELECT MAX(patient) FROM cases GROUP BY disease"} {
		res, err := f.Query(context.Background(), req, agg)
		if err == nil || !strings.Contains(err.Error(), "aggregate SELECT is not federated") {
			t.Errorf("%q = %v, %v; want the aggregate refusal", agg, res, err)
		}
	}
	// Duplicate source names rejected.
	dup := NewSource("city", reldb.NewDatabase(), rdf.Unclassified)
	if err := f.AddSource(dup); err == nil {
		t.Error("duplicate source accepted")
	}
	if got := f.VirtualTables(); len(got) != 1 || got[0] != "cases" {
		t.Errorf("virtual tables = %v", got)
	}
}
