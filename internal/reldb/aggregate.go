package reldb

import (
	"fmt"
	"sort"
	"strings"

	"webdbsec/internal/policy"
	"webdbsec/internal/sysr"
)

// Aggregate queries: SELECT COUNT(*), SUM(col), AVG(col), MIN(col),
// MAX(col) FROM t [WHERE ...] [GROUP BY col]. Statistical queries are the
// workhorse of the paper's privacy scenarios — researchers get aggregates
// while row-level access is constrained — so they are first-class here.

// AggFunc names an aggregate function.
type AggFunc string

// Aggregate functions.
const (
	AggCount AggFunc = "COUNT"
	AggSum   AggFunc = "SUM"
	AggAvg   AggFunc = "AVG"
	AggMin   AggFunc = "MIN"
	AggMax   AggFunc = "MAX"
)

// AggExpr is one aggregate in a select list.
type AggExpr struct {
	Func AggFunc
	// Col is the aggregated column; "*" only for COUNT.
	Col string
}

func (a AggExpr) String() string { return fmt.Sprintf("%s(%s)", a.Func, a.Col) }

// AggregateStmt is a parsed aggregate query.
type AggregateStmt struct {
	Table   string
	Aggs    []AggExpr
	Where   Expr
	GroupBy string
}

func (*AggregateStmt) stmt() {}

// ParseAggregate parses an aggregate SELECT. It returns an error when the
// statement is not an aggregate query (callers fall back to Parse).
// seclint:sanitizer
func ParseAggregate(src string) (*AggregateStmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	if !p.atKeyword("SELECT") {
		return nil, fmt.Errorf("reldb: not a SELECT")
	}
	p.next()
	st := &AggregateStmt{}
	for {
		fn, err := p.ident()
		if err != nil {
			return nil, err
		}
		var agg AggFunc
		switch strings.ToUpper(fn) {
		case "COUNT":
			agg = AggCount
		case "SUM":
			agg = AggSum
		case "AVG":
			agg = AggAvg
		case "MIN":
			agg = AggMin
		case "MAX":
			agg = AggMax
		default:
			return nil, fmt.Errorf("reldb: %q is not an aggregate function", fn)
		}
		if err := p.expectPunct("("); err != nil {
			return nil, err
		}
		col := ""
		if p.cur().kind == "punct" && p.cur().text == "*" {
			p.next()
			col = "*"
		} else {
			col, err = p.ident()
			if err != nil {
				return nil, err
			}
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		if col == "*" && agg != AggCount {
			return nil, fmt.Errorf("reldb: %s(*) is not valid", agg)
		}
		st.Aggs = append(st.Aggs, AggExpr{Func: agg, Col: col})
		if p.cur().kind == "punct" && p.cur().text == "," {
			p.next()
			continue
		}
		break
	}
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st.Table = table
	if p.atKeyword("WHERE") {
		p.next()
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	if p.atKeyword("GROUP") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		st.GroupBy, err = p.ident()
		if err != nil {
			return nil, err
		}
	}
	if p.cur().kind != "eof" {
		return nil, fmt.Errorf("reldb: trailing input %q in %q", p.cur().text, src)
	}
	return st, nil
}

// ExecAggregate evaluates an aggregate query. Group rows are sorted by
// group key. NULLs are skipped by SUM/AVG/MIN/MAX and by COUNT(col);
// COUNT(*) counts rows.
//
// seclint:exempt storage engine below the access-control gate; SecureDB authorizes before aggregation
// seclint:sink
func (db *Database) ExecAggregate(st *AggregateStmt) (*Result, error) {
	t, ok := db.Table(st.Table)
	if !ok {
		return nil, fmt.Errorf("reldb: unknown table %s", st.Table)
	}
	// Resolve columns up front.
	colIdx := make([]int, len(st.Aggs))
	for i, a := range st.Aggs {
		if a.Col == "*" {
			colIdx[i] = -1
			continue
		}
		ci := t.Schema.ColIndex(a.Col)
		if ci < 0 {
			return nil, fmt.Errorf("reldb: unknown column %s", a.Col)
		}
		colIdx[i] = ci
	}
	groupIdx := -1
	if st.GroupBy != "" {
		groupIdx = t.Schema.ColIndex(st.GroupBy)
		if groupIdx < 0 {
			return nil, fmt.Errorf("reldb: unknown GROUP BY column %s", st.GroupBy)
		}
	}
	plan, err := planScan(t, st.Where)
	if err != nil {
		return nil, err
	}
	var rows []Row
	plan.run(func(_ int64, r Row) { rows = append(rows, r) })

	type acc struct {
		groupVal Value
		count    []int64
		sum      []float64
		min      []Value
		max      []Value
		seen     []bool
	}
	newAcc := func(gv Value) *acc {
		return &acc{
			groupVal: gv,
			count:    make([]int64, len(st.Aggs)),
			sum:      make([]float64, len(st.Aggs)),
			min:      make([]Value, len(st.Aggs)),
			max:      make([]Value, len(st.Aggs)),
			seen:     make([]bool, len(st.Aggs)),
		}
	}
	groups := map[string]*acc{}
	var order []string
	for _, r := range rows {
		key := ""
		gv := Null()
		if groupIdx >= 0 {
			gv = r[groupIdx]
			key = gv.Key()
		}
		a := groups[key]
		if a == nil {
			a = newAcc(gv)
			groups[key] = a
			order = append(order, key)
		}
		for i, ag := range st.Aggs {
			if colIdx[i] < 0 { // COUNT(*)
				a.count[i]++
				continue
			}
			v := r[colIdx[i]]
			if v.IsNull() {
				continue
			}
			a.count[i]++
			if f, ok := v.asFloat(); ok {
				a.sum[i] += f
			} else if ag.Func == AggSum || ag.Func == AggAvg {
				return nil, fmt.Errorf("reldb: %s over non-numeric column %s", ag.Func, ag.Col)
			}
			if !a.seen[i] || Compare(v, a.min[i]) < 0 {
				a.min[i] = v
			}
			if !a.seen[i] || Compare(v, a.max[i]) > 0 {
				a.max[i] = v
			}
			a.seen[i] = true
		}
	}
	// Assemble result.
	res := &Result{}
	if groupIdx >= 0 {
		res.Columns = append(res.Columns, st.GroupBy)
	}
	for _, a := range st.Aggs {
		res.Columns = append(res.Columns, a.String())
	}
	sort.Strings(order)
	for _, key := range order {
		a := groups[key]
		var row Row
		if groupIdx >= 0 {
			row = append(row, a.groupVal)
		}
		for i, ag := range st.Aggs {
			switch ag.Func {
			case AggCount:
				row = append(row, Int(a.count[i]))
			case AggSum:
				if a.count[i] == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(a.sum[i]))
				}
			case AggAvg:
				if a.count[i] == 0 {
					row = append(row, Null())
				} else {
					row = append(row, Float(a.sum[i]/float64(a.count[i])))
				}
			case AggMin:
				if !a.seen[i] {
					row = append(row, Null())
				} else {
					row = append(row, a.min[i])
				}
			case AggMax:
				if !a.seen[i] {
					row = append(row, Null())
				} else {
					row = append(row, a.max[i])
				}
			}
		}
		res.Rows = append(res.Rows, row)
	}
	// An ungrouped aggregate over zero rows still yields one row.
	if groupIdx < 0 && len(res.Rows) == 0 {
		var row Row
		for _, ag := range st.Aggs {
			if ag.Func == AggCount {
				row = append(row, Int(0))
			} else {
				row = append(row, Null())
			}
		}
		res.Rows = append(res.Rows, row)
	}
	res.Affected = len(res.Rows)
	return res, nil
}

// ExecAggregateSecure runs an aggregate query for a subject through the
// same privilege + row-policy gates as SecureDB.Exec: aggregates are
// computed over the subject's VISIBLE rows only, which is how statistical
// access composes with row-level protection.
func (s *SecureDB) ExecAggregateSecure(subject *policy.Subject, src string) (*Result, error) {
	st, err := ParseAggregate(src)
	if err != nil {
		return nil, err
	}
	if !s.grants.HasPrivilege(subject.ID, sysr.Select, st.Table) {
		return nil, fmt.Errorf("reldb: %s lacks SELECT on %s", subject.ID, st.Table)
	}
	rewritten, empty := s.rewriteWhere(subject, st.Table, st.Where)
	if empty {
		// No visible rows: COUNT 0 / NULLs, never an information leak.
		st2 := *st
		st2.Where = &falseExpr{}
		return s.db.ExecAggregate(&st2)
	}
	st2 := *st
	st2.Where = rewritten
	return s.db.ExecAggregate(&st2)
}

// falseExpr matches nothing.
type falseExpr struct{}

func (falseExpr) Eval(*Schema, Row) (bool, error) { return false, nil }
func (falseExpr) String() string                  { return "FALSE" }
