package reldb

import (
	"fmt"
	"sort"
	"strings"
)

// Query cost model and metadata catalog. §2.1 asks "Query processing
// involves developing a cost model. Are there special cost models for
// Internet database management?" and "what is metadata? Metadata describes
// all of the information pertaining to a data source ... access control
// issues, and policies enforced." Explain exposes the planner's choice and
// estimated cost; Describe and SecureDB.Metadata expose the catalog
// including its security content.

// Plan describes how a SELECT would execute.
type Plan struct {
	Table string
	// Access is "key-scan" when the predicate has key tests that narrow the
	// scan chunk by chunk, and "full-scan" when the matcher reads every row.
	Access string
	// EstRows is the estimated candidate rows: the table's row count, which
	// a key-narrowed scan still bounds.
	EstRows int
	// EstCost is the cost-model estimate: candidates examined plus a
	// per-result predicate charge.
	EstCost int
}

func (p Plan) String() string {
	return fmt.Sprintf("%s %s (est %d rows, cost %d)",
		strings.ToUpper(strings.ReplaceAll(p.Access, "-", " ")), p.Table, p.EstRows, p.EstCost)
}

// Explain plans a SELECT without executing it, through the planner the
// executor runs: a statement whose predicate does not bind is refused here
// as it would be there.
func (db *Database) Explain(src string) (*Plan, error) {
	st, err := Parse(src)
	if err != nil {
		return nil, err
	}
	sel, ok := st.(*SelectStmt)
	if !ok {
		return nil, fmt.Errorf("reldb: EXPLAIN supports SELECT only")
	}
	t, okT := db.Table(sel.Table)
	if !okT {
		return nil, fmt.Errorf("reldb: unknown table %s", sel.Table)
	}
	scan, err := planScan(t, sel.Where)
	if err != nil {
		return nil, err
	}
	plan := &Plan{Table: sel.Table, Access: "full-scan", EstRows: t.Len()}
	if scan.keys.n > 0 {
		plan.Access = "key-scan"
	}
	// Cost model: one unit per candidate row plus one per predicate node
	// evaluated over it.
	predCost := 1
	if sel.Where != nil {
		predCost += exprNodes(sel.Where)
	}
	plan.EstCost = plan.EstRows * predCost
	return plan, nil
}

func exprNodes(e Expr) int {
	switch x := e.(type) {
	case *AndExpr:
		return 1 + exprNodes(x.L) + exprNodes(x.R)
	case *OrExpr:
		return 1 + exprNodes(x.L) + exprNodes(x.R)
	case *NotExpr:
		return 1 + exprNodes(x.E)
	default:
		return 1
	}
}

// TableInfo is one catalog row.
type TableInfo struct {
	Name    string
	Columns []Column
	Rows    int
}

// Describe returns the catalog entry of a table.
func (db *Database) Describe(table string) (*TableInfo, error) {
	t, ok := db.Table(table)
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", table)
	}
	return &TableInfo{Name: table, Columns: t.Schema.Columns, Rows: t.Len()}, nil
}

// SecurityMetadata summarizes the security content of the catalog — "the
// metadata ... also includes security policies".
type SecurityMetadata struct {
	// Grants maps object -> subjects holding SELECT (representative of the
	// grant state; full detail via Grants()).
	Grants map[string][]string
	// RowPolicies maps table -> policy names.
	RowPolicies map[string][]string
	// ColPolicies maps table -> policy names.
	ColPolicies map[string][]string
}

// Metadata returns the security metadata of the secured database.
func (s *SecureDB) Metadata() SecurityMetadata {
	md := SecurityMetadata{
		Grants:      map[string][]string{},
		RowPolicies: map[string][]string{},
		ColPolicies: map[string][]string{},
	}
	for _, table := range s.db.Tables() {
		if subs := s.grants.Subjects("SELECT", table); len(subs) > 0 {
			md.Grants[table] = subs
		}
	}
	for _, p := range s.rowPols {
		md.RowPolicies[p.Table] = append(md.RowPolicies[p.Table], p.Name)
	}
	for _, p := range s.colPols {
		md.ColPolicies[p.Table] = append(md.ColPolicies[p.Table], p.Name)
	}
	for _, m := range []map[string][]string{md.RowPolicies, md.ColPolicies} {
		for k := range m {
			sort.Strings(m[k])
		}
	}
	return md
}
