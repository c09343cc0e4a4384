package reldb

import (
	"fmt"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/sysr"
)

// hrFixture: an employee table owned by dba, with row policies (managers
// see all rows, staff see only their department) and a column policy
// hiding salaries from staff.
func hrFixture(t *testing.T) (*SecureDB, *policy.Subject, *policy.Subject, *policy.Subject) {
	t.Helper()
	sdb := NewSecureDB(NewDatabase(), nil)
	dba := &policy.Subject{ID: "dba"}
	if err := sdb.CreateTable(dba, "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{
		"(1, 'Ada', 'eng', 120)", "(2, 'Bob', 'eng', 90)", "(3, 'Cyd', 'hr', 80)",
	} {
		if _, err := sdb.Exec(dba, "INSERT INTO emp VALUES "+r); err != nil {
			t.Fatal(err)
		}
	}
	// Grants.
	mustNoErr(t, sdb.Grants().Grant("dba", "mgr", sysr.Select, "emp", false))
	mustNoErr(t, sdb.Grants().Grant("dba", "eng-staff", sysr.Select, "emp", false))
	mustNoErr(t, sdb.Grants().Grant("dba", "mgr", sysr.Update, "emp", false))
	mustNoErr(t, sdb.Grants().Grant("dba", "eng-staff", sysr.Update, "emp", false))
	// Row policies.
	mgrPred := MustParse("SELECT * FROM emp WHERE salary >= 0").(*SelectStmt).Where
	engPred := MustParse("SELECT * FROM emp WHERE dept = 'eng'").(*SelectStmt).Where
	mustNoErr(t, sdb.AddRowPolicy(&RowPolicy{
		Name: "mgr-all", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"manager"}}, Pred: mgrPred,
	}))
	mustNoErr(t, sdb.AddRowPolicy(&RowPolicy{
		Name: "eng-own-dept", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"eng"}}, Pred: engPred,
	}))
	// Column policy: staff don't see salaries.
	mustNoErr(t, sdb.AddColPolicy(&ColPolicy{
		Name: "hide-salary", Table: "emp",
		Subject: policy.SubjectSpec{Roles: []string{"eng"}}, Columns: []string{"salary"},
	}))
	mgr := &policy.Subject{ID: "mgr", Roles: []string{"manager"}}
	eng := &policy.Subject{ID: "eng-staff", Roles: []string{"eng"}}
	return sdb, dba, mgr, eng
}

func mustNoErr(t *testing.T, err error) {
	t.Helper()
	if err != nil {
		t.Fatal(err)
	}
}

func TestPrivilegeRequired(t *testing.T) {
	sdb, _, _, _ := hrFixture(t)
	stranger := &policy.Subject{ID: "nobody"}
	if _, err := sdb.Exec(stranger, "SELECT * FROM emp"); err == nil {
		t.Error("SELECT without privilege accepted")
	}
	if _, err := sdb.Exec(stranger, "INSERT INTO emp VALUES (9,'X','eng',1)"); err == nil {
		t.Error("INSERT without privilege accepted")
	}
	if _, err := sdb.Exec(stranger, "UPDATE emp SET salary = 0"); err == nil {
		t.Error("UPDATE without privilege accepted")
	}
	if _, err := sdb.Exec(stranger, "DELETE FROM emp"); err == nil {
		t.Error("DELETE without privilege accepted")
	}
}

func TestRowLevelRewrite(t *testing.T) {
	sdb, _, mgr, eng := hrFixture(t)
	res, err := sdb.Exec(mgr, "SELECT name FROM emp ORDER BY name")
	mustNoErr(t, err)
	if len(res.Rows) != 3 {
		t.Errorf("manager sees %d rows", len(res.Rows))
	}
	res, err = sdb.Exec(eng, "SELECT name FROM emp ORDER BY name")
	mustNoErr(t, err)
	if len(res.Rows) != 2 {
		t.Fatalf("eng staff sees %d rows, want 2", len(res.Rows))
	}
	for _, r := range res.Rows {
		if r[0].S == "Cyd" {
			t.Error("hr row leaked to eng staff")
		}
	}
	// User's own WHERE composes with the policy predicate.
	res, err = sdb.Exec(eng, "SELECT name FROM emp WHERE salary > 100")
	mustNoErr(t, err)
	if len(res.Rows) != 1 || res.Rows[0][0] != Str("Ada") {
		t.Errorf("composed where = %v", res.Rows)
	}
}

func TestNoApplicablePolicyMeansNoRows(t *testing.T) {
	sdb, dba, _, _ := hrFixture(t)
	// dba has privileges (owner) but matches no row policy: closed.
	mustNoErr(t, sdb.Grants().Grant("dba", "outsider", sysr.Select, "emp", false))
	outsider := &policy.Subject{ID: "outsider"}
	res, err := sdb.Exec(outsider, "SELECT * FROM emp")
	mustNoErr(t, err)
	if len(res.Rows) != 0 {
		t.Errorf("outsider sees %d rows", len(res.Rows))
	}
	_ = dba
}

func TestColumnMasking(t *testing.T) {
	sdb, _, mgr, eng := hrFixture(t)
	res, err := sdb.Exec(eng, "SELECT name, salary FROM emp ORDER BY name")
	mustNoErr(t, err)
	for _, r := range res.Rows {
		if !r[1].IsNull() {
			t.Errorf("salary visible to staff: %v", r)
		}
		if r[0].IsNull() {
			t.Error("unmasked column damaged")
		}
	}
	res, err = sdb.Exec(mgr, "SELECT name, salary FROM emp ORDER BY name")
	mustNoErr(t, err)
	for _, r := range res.Rows {
		if r[1].IsNull() {
			t.Errorf("salary masked for manager: %v", r)
		}
	}
	// SELECT * masks too.
	res, err = sdb.Exec(eng, "SELECT * FROM emp")
	mustNoErr(t, err)
	si := 3 // salary column position
	for _, r := range res.Rows {
		if !r[si].IsNull() {
			t.Error("salary visible via SELECT *")
		}
	}
	// A hidden column reads NULL before an aggregate groups or folds it:
	// one NULL-labelled group, never one unlabeled row per hidden value.
	res, err = sdb.Exec(eng, "SELECT COUNT(*), MAX(salary), COUNT(salary) FROM emp GROUP BY salary")
	mustNoErr(t, err)
	if got := fmt.Sprint(res.Rows); got != "[[NULL 2 NULL 0]]" {
		t.Errorf("staff aggregate over the hidden salary = %s, want one NULL group of its 2 visible rows", got)
	}
	res, err = sdb.Exec(mgr, "SELECT COUNT(*), MAX(salary) FROM emp GROUP BY salary")
	mustNoErr(t, err)
	if len(res.Rows) != 3 {
		t.Errorf("manager groups = %v, want one per salary", res.Rows)
	}
}

func TestUpdateDeleteScopedByRowPolicy(t *testing.T) {
	sdb, dba, _, eng := hrFixture(t)
	// eng staff tries to zero every salary; only eng rows are reachable.
	res, err := sdb.Exec(eng, "UPDATE emp SET salary = 0")
	mustNoErr(t, err)
	if res.Affected != 2 {
		t.Fatalf("affected = %d, want 2", res.Affected)
	}
	check, _ := sdb.Exec(dba, "SELECT salary FROM emp WHERE dept = 'hr'")
	_ = check
	raw, err := sdb.DB().Exec("SELECT salary FROM emp WHERE dept = 'hr'")
	mustNoErr(t, err)
	if raw.Rows[0][0] != Int(80) {
		t.Error("hr row modified through eng policy")
	}
}

func TestGrantRevokeIntegration(t *testing.T) {
	sdb, _, mgr, _ := hrFixture(t)
	if _, err := sdb.Exec(mgr, "SELECT name FROM emp"); err != nil {
		t.Fatal(err)
	}
	mustNoErr(t, sdb.Grants().Revoke("dba", "mgr", sysr.Select, "emp"))
	if _, err := sdb.Exec(mgr, "SELECT name FROM emp"); err == nil {
		t.Error("SELECT after revoke accepted")
	}
}

func TestPolicyValidation(t *testing.T) {
	sdb := NewSecureDB(NewDatabase(), nil)
	if err := sdb.AddRowPolicy(&RowPolicy{Name: "x"}); err == nil {
		t.Error("row policy without table/pred accepted")
	}
	if err := sdb.AddColPolicy(&ColPolicy{Name: "x", Table: "t"}); err == nil {
		t.Error("column policy without columns accepted")
	}
	if err := sdb.CreateTable(&policy.Subject{ID: "o"}, "SELECT * FROM t"); err == nil {
		t.Error("CreateTable accepted non-DDL")
	}
}
