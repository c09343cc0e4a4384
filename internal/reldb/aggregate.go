package reldb

import (
	"fmt"
	"sort"
)

// Aggregate SELECTs: COUNT(*), COUNT/SUM/AVG/MIN/MAX(col) [GROUP BY col].
// Statistical queries are the workhorse of the paper's privacy scenarios —
// researchers get aggregates while row-level access is constrained — and
// they are ordinary SELECTs: the same parser, scan and gates, with a fold
// where a row statement sorts and projects.

// Aggregate inputs that are not a position in the row.
const (
	aggStar   = -1 // COUNT(*): every row counts
	aggHidden = -2 // a column the subject's view hides: NULL in every row
)

// aggAcc folds one aggregate's input over one group.
type aggAcc struct {
	n        int64 // inputs folded: rows for COUNT(*), non-NULL values otherwise
	sum      float64
	min, max Value
}

// value is the aggregate over what was folded: NULL over no input, except
// COUNT.
func (a *aggAcc) value(f AggFunc) Value {
	switch {
	case f == AggCount:
		return Int(a.n)
	case a.n == 0:
		return Null()
	case f == AggSum:
		return Float(a.sum)
	case f == AggAvg:
		return Float(a.sum / float64(a.n))
	case f == AggMin:
		return a.min
	}
	return a.max
}

// bindAggInput resolves a column an aggregate statement reads to its row
// position — aggHidden when the subject's view hides it — and its kind.
func bindAggInput(schema *Schema, s *SelectStmt, col string) (int, Kind, error) {
	ci := schema.ColIndex(col)
	switch {
	case ci < 0:
		return 0, 0, fmt.Errorf("reldb: unknown column %s", col)
	case s.hidden[col]:
		return aggHidden, schema.Columns[ci].Kind, nil
	}
	return ci, schema.Columns[ci].Kind, nil
}

// aggregate folds the rows the plan accepts: one result row per group,
// sorted by group key, or exactly one without GROUP BY (over zero rows too).
// NULLs are skipped by SUM/AVG/MIN/MAX and COUNT(col); COUNT(*) counts rows.
// Each result column carries its source attribute in Result.Attrs, which is
// what the privacy and inference layers reason about: F(col) releases
// something about col, COUNT(*) about no column.
//
// Everything the statement names is resolved against the schema before a
// row is read — SUM and AVG want a numeric column — so whether a statement
// errs never depends on what the table holds.
func aggregate(plan scanPlan, s *SelectStmt) (*Result, error) {
	schema := &plan.t.Schema
	res := &Result{}
	groupIdx := aggStar // no GROUP BY: one group
	if s.GroupBy != "" {
		var err error
		if groupIdx, _, err = bindAggInput(schema, s, s.GroupBy); err != nil {
			return nil, err
		}
		res.Columns, res.Attrs = append(res.Columns, s.GroupBy), append(res.Attrs, s.GroupBy)
	}
	inputs := make([]int, len(s.Aggs))
	for i, a := range s.Aggs {
		attr := ""
		if inputs[i] = aggStar; a.Col != "*" {
			var kind Kind
			var err error
			if inputs[i], kind, err = bindAggInput(schema, s, a.Col); err != nil {
				return nil, err
			}
			if (a.Func == AggSum || a.Func == AggAvg) && kind != KindInt && kind != KindFloat {
				return nil, fmt.Errorf("reldb: %s over non-numeric column %s", a.Func, a.Col)
			}
			attr = a.Col
		}
		res.Columns, res.Attrs = append(res.Columns, a.String()), append(res.Attrs, attr)
	}

	type group struct {
		key  Value
		accs []aggAcc
	}
	groups := map[string]*group{}
	if s.GroupBy == "" {
		groups[Null().Key()] = &group{accs: make([]aggAcc, len(inputs))}
	}
	plan.run(func(_ int64, r Row) {
		var key Value // NULL: no GROUP BY, or a hidden GROUP BY column
		if groupIdx >= 0 {
			key = r[groupIdx]
		}
		k := key.Key()
		g := groups[k]
		if g == nil {
			g = &group{key: key, accs: make([]aggAcc, len(inputs))}
			groups[k] = g
		}
		for i, ci := range inputs {
			a := &g.accs[i]
			if ci == aggStar {
				a.n++
				continue
			}
			if ci == aggHidden || r[ci].IsNull() {
				continue
			}
			v := &r[ci]
			if a.n == 0 || compareTo(v, &a.min) < 0 {
				a.min = *v
			}
			if a.n == 0 || compareTo(v, &a.max) > 0 {
				a.max = *v
			}
			f, _ := v.asFloat()
			a.sum += f
			a.n++
		}
	})

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	for _, k := range keys {
		g := groups[k]
		row := make(Row, 0, len(res.Columns))
		if s.GroupBy != "" {
			row = append(row, g.key)
		}
		for i, a := range s.Aggs {
			row = append(row, g.accs[i].value(a.Func))
		}
		res.Rows = append(res.Rows, row)
	}
	res.Affected = len(res.Rows)
	return res, nil
}
