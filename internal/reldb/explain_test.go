package reldb

import (
	"strings"
	"testing"

	"webdbsec/internal/policy"
	"webdbsec/internal/sysr"
)

// TestExplainChoosesAccessPath: Explain reports the executor's own plan — a
// key-narrowed scan when the predicate's top-level AND chain holds a key
// test, a full scan otherwise — over the table's row count.
func TestExplainChoosesAccessPath(t *testing.T) {
	db := empDB(t)
	for q, access := range map[string]string{
		"SELECT * FROM emp WHERE dept = 'eng'":                   "key-scan",
		"SELECT * FROM emp WHERE salary >= 85":                   "key-scan",
		"SELECT name FROM emp WHERE name != 'Ada' AND id < 4":    "key-scan",
		"SELECT * FROM emp WHERE name = 'Ada' OR dept = 'hr'":    "full-scan",
		"SELECT * FROM emp WHERE salary != 85":                   "full-scan",
		"SELECT * FROM emp WHERE salary > 8.5":                   "full-scan",
		"SELECT * FROM emp":                                      "full-scan",
		"SELECT COUNT(*) FROM emp WHERE dept = 'hr' GROUP BY id": "key-scan",
	} {
		p, err := db.Explain(q)
		if err != nil {
			t.Fatalf("%s: %v", q, err)
		}
		if p.Access != access || p.EstRows != 5 || p.Table != "emp" {
			t.Errorf("%s: plan = %+v, want %s over 5 rows", q, p, access)
		}
		if want := strings.ToUpper(strings.ReplaceAll(access, "-", " ")) + " emp (est 5 rows"; !strings.HasPrefix(p.String(), want) {
			t.Errorf("%s: plan string = %q, want prefix %q", q, p.String(), want)
		}
	}
}

// TestExplainCostOrdersAlternatives: the cost model charges every candidate
// row once per predicate node, so a wider predicate over the same table, and
// the same predicate over a bigger table, cost more.
func TestExplainCostOrdersAlternatives(t *testing.T) {
	db := empDB(t)
	cost := func(q string) int {
		t.Helper()
		p, err := db.Explain(q)
		if err != nil {
			t.Fatal(err)
		}
		return p.EstCost
	}
	const narrow, wide = "SELECT * FROM emp WHERE dept = 'ops'", "SELECT * FROM emp WHERE dept = 'ops' AND salary > 60"
	small := cost(narrow)
	if w := cost(wide); w <= small {
		t.Errorf("wider predicate cost %d !> narrower %d", w, small)
	}
	mustExec(t, db, "INSERT INTO emp VALUES (6, 'Fay', 'ops', 65)")
	if big := cost(narrow); big <= small {
		t.Errorf("cost over 6 rows %d !> over 5 rows %d", big, small)
	}
}

// TestExplainErrors: Explain refuses what executing the statement refuses,
// a predicate naming an unknown column included.
func TestExplainErrors(t *testing.T) {
	db := empDB(t)
	for _, q := range []string{
		"DELETE FROM emp",
		"SELECT * FROM ghost",
		"garbage",
		"SELECT * FROM emp WHERE ghost = 1",
		"SELECT * FROM emp WHERE id > 0 OR ghost = 2",
		"SELECT * FROM emp WHERE id == 1",
	} {
		if _, err := db.Explain(q); err == nil {
			t.Errorf("Explain(%q) accepted", q)
		}
	}
}

func TestDescribe(t *testing.T) {
	db := empDB(t)
	info, err := db.Describe("emp")
	if err != nil {
		t.Fatal(err)
	}
	if info.Name != "emp" || info.Rows != 5 || len(info.Columns) != 4 {
		t.Errorf("info = %+v", info)
	}
	if _, err := db.Describe("ghost"); err == nil {
		t.Error("unknown table accepted")
	}
}

func TestSecurityMetadata(t *testing.T) {
	sdb := NewSecureDB(NewDatabase(), nil)
	dba := &policy.Subject{ID: "dba"}
	if err := sdb.CreateTable(dba, "CREATE TABLE t (a INT)"); err != nil {
		t.Fatal(err)
	}
	sdb.Grants().Grant("dba", "u", sysr.Select, "t", false)
	pred := MustParse("SELECT * FROM t WHERE a >= 0").(*SelectStmt).Where
	sdb.AddRowPolicy(&RowPolicy{Name: "rp", Table: "t", Subject: policy.SubjectSpec{IDs: []string{"u"}}, Pred: pred})
	sdb.AddColPolicy(&ColPolicy{Name: "cp", Table: "t", Subject: policy.SubjectSpec{IDs: []string{"u"}}, Columns: []string{"a"}})
	md := sdb.Metadata()
	if len(md.Grants["t"]) != 2 { // dba (owner) + u
		t.Errorf("grants = %v", md.Grants)
	}
	if len(md.RowPolicies["t"]) != 1 || md.RowPolicies["t"][0] != "rp" {
		t.Errorf("row policies = %v", md.RowPolicies)
	}
	if len(md.ColPolicies["t"]) != 1 || md.ColPolicies["t"][0] != "cp" {
		t.Errorf("col policies = %v", md.ColPolicies)
	}
}
