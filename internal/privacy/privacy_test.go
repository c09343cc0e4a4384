package privacy

import (
	"testing"

	"webdbsec/internal/mining"
	"webdbsec/internal/policy"
	"webdbsec/internal/reldb"
)

func controller(t *testing.T) *Controller {
	t.Helper()
	c := NewController()
	must := func(err error) {
		t.Helper()
		if err != nil {
			t.Fatal(err)
		}
	}
	must(c.Add(&Constraint{
		Name:  "name-disease-private",
		Attrs: []string{"name", "disease"},
		Class: Private,
	}))
	must(c.Add(&Constraint{
		Name:       "zip-disease-semiprivate",
		Attrs:      []string{"zip", "disease"},
		Class:      SemiPrivate,
		NeedToKnow: []string{"researcher"},
	}))
	return c
}

func TestAddValidation(t *testing.T) {
	c := NewController()
	if err := c.Add(&Constraint{Name: "x", Class: Private}); err == nil {
		t.Error("constraint without attrs accepted")
	}
	if err := c.Add(&Constraint{Name: "x", Attrs: []string{"a"}, Class: SemiPrivate}); err == nil {
		t.Error("semi-private without need-to-know accepted")
	}
}

func TestClassifyCombinations(t *testing.T) {
	c := controller(t)
	cases := []struct {
		attrs []string
		want  Class
	}{
		{[]string{"name"}, Public},
		{[]string{"disease"}, Public},
		{[]string{"name", "age"}, Public},
		{[]string{"name", "disease"}, Private},
		{[]string{"name", "disease", "age"}, Private},
		{[]string{"zip", "disease"}, SemiPrivate},
		{[]string{"DISEASE", "ZIP"}, SemiPrivate}, // case-insensitive
	}
	for _, tc := range cases {
		got, _ := c.Classify(tc.attrs)
		if got != tc.want {
			t.Errorf("Classify(%v) = %v, want %v", tc.attrs, got, tc.want)
		}
	}
	// Strictest wins when multiple match.
	got, hit := c.Classify([]string{"name", "zip", "disease"})
	if got != Private || hit == nil || hit.Name != "name-disease-private" {
		t.Errorf("strictest = %v, %+v", got, hit)
	}
}

func TestMayRelease(t *testing.T) {
	c := controller(t)
	public := &policy.Subject{ID: "anyone"}
	researcher := &policy.Subject{ID: "r", Roles: []string{"researcher"}}

	if !c.MayRelease(public, []string{"name", "age"}) {
		t.Error("public combination blocked")
	}
	if c.MayRelease(public, []string{"name", "disease"}) {
		t.Error("private combination released to public")
	}
	if c.MayRelease(researcher, []string{"name", "disease"}) {
		t.Error("private combination released to researcher")
	}
	if c.MayRelease(public, []string{"zip", "disease"}) {
		t.Error("semi-private released without need to know")
	}
	if !c.MayRelease(researcher, []string{"zip", "disease"}) {
		t.Error("semi-private blocked for need-to-know role")
	}
	if c.MayRelease(nil, []string{"zip", "disease"}) {
		t.Error("semi-private released to nil subject")
	}
}

func TestFilterResultMasksViolatingColumns(t *testing.T) {
	c := controller(t)
	res := &reldb.Result{
		Columns: []string{"name", "zip", "disease"},
		Rows: []reldb.Row{
			{reldb.Str("Ada"), reldb.Str("10001"), reldb.Str("flu")},
			{reldb.Str("Bob"), reldb.Str("10002"), reldb.Str("cold")},
		},
	}
	masked := c.FilterResult(&policy.Subject{ID: "anyone"}, res)
	// name, then zip are fine; disease completes both protected combos.
	if len(masked) != 1 || masked[0] != "disease" {
		t.Fatalf("masked = %v", masked)
	}
	for _, r := range res.Rows {
		if !r[2].IsNull() {
			t.Error("disease value survived masking")
		}
		if r[0].IsNull() || r[1].IsNull() {
			t.Error("public columns damaged")
		}
	}
}

// TestFilterResultKeysOnSourceAttributes: an aggregate column is judged by
// the attribute it was computed from — MIN(disease) beside name is the
// private {name, disease} combination — and COUNT(*) by none.
func TestFilterResultKeysOnSourceAttributes(t *testing.T) {
	c := controller(t)
	res := &reldb.Result{
		Columns: []string{"name", "COUNT(*)", "MIN(disease)", "MAX(age)"},
		Attrs:   []string{"name", "", "disease", "age"},
		Rows:    []reldb.Row{{reldb.Str("Ada"), reldb.Int(1), reldb.Str("flu"), reldb.Int(30)}},
	}
	masked := c.FilterResult(&policy.Subject{ID: "anyone"}, res)
	if len(masked) != 1 || masked[0] != "MIN(disease)" {
		t.Fatalf("masked = %v, want the MIN(disease) column", masked)
	}
	if r := res.Rows[0]; !r[2].IsNull() || r[0].IsNull() || r[1].IsNull() || r[3].IsNull() {
		t.Errorf("row after masking = %v", r)
	}
}

func TestFilterResultRespectsNeedToKnow(t *testing.T) {
	c := controller(t)
	res := &reldb.Result{
		Columns: []string{"zip", "disease"},
		Rows:    []reldb.Row{{reldb.Str("10001"), reldb.Str("flu")}},
	}
	masked := c.FilterResult(&policy.Subject{ID: "r", Roles: []string{"researcher"}}, res)
	if len(masked) != 0 {
		t.Errorf("researcher masked: %v", masked)
	}
	if res.Rows[0][1].IsNull() {
		t.Error("disease masked for researcher")
	}
}

func TestReleasePatterns(t *testing.T) {
	c := controller(t)
	names := []string{"name", "zip", "disease", "age"}
	itemName := func(i int) string { return names[i] }
	patterns := []mining.FrequentItemset{
		{Items: []int{0, 3}, Support: 0.5}, // name+age: public
		{Items: []int{0, 2}, Support: 0.3}, // name+disease: private
		{Items: []int{1, 2}, Support: 0.2}, // zip+disease: semi-private
		{Items: []int{3}, Support: 0.9},    // age: public
	}
	rel, withheld := c.ReleasePatterns(&policy.Subject{ID: "anyone"}, patterns, itemName)
	if len(rel) != 2 || len(withheld) != 2 {
		t.Fatalf("released %d, withheld %d", len(rel), len(withheld))
	}
	rel, withheld = c.ReleasePatterns(&policy.Subject{ID: "r", Roles: []string{"researcher"}}, patterns, itemName)
	if len(rel) != 3 || len(withheld) != 1 {
		t.Fatalf("researcher: released %d, withheld %d", len(rel), len(withheld))
	}
}

func TestConstraintsListing(t *testing.T) {
	c := controller(t)
	got := c.Constraints()
	if len(got) != 2 || got[0] != "name-disease-private" {
		t.Errorf("constraints = %v", got)
	}
}
