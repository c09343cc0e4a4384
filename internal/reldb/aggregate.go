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

// aggPlan is an aggregate statement bound to its table's schema: the row
// position of the group key and of each aggregate's input.
type aggPlan struct {
	grouped  bool
	groupIdx int // the group key's position; aggHidden when the view hides it
	aggs     []AggExpr
	inputs   []int // aggs[i] folds row position inputs[i]
}

// bindAggregate resolves an aggregate statement against the schema and
// returns its plan and its result's columns and their source attributes
// (Result.Attrs), which is what the privacy and inference layers reason
// about: F(col) releases something about col, COUNT(*) about no column.
//
// Everything the statement names is resolved before a row is read — SUM
// and AVG want a numeric column — so whether a statement errs never
// depends on what the table holds.
func bindAggregate(schema *Schema, s *SelectStmt) (a *aggPlan, names, attrs []string, err error) {
	a = &aggPlan{grouped: s.GroupBy != "", groupIdx: aggStar, aggs: s.Aggs, inputs: make([]int, len(s.Aggs))}
	if a.grouped {
		if a.groupIdx, _, err = bindAggInput(schema, s, s.GroupBy); err != nil {
			return nil, nil, nil, err
		}
		names, attrs = append(names, s.GroupBy), append(attrs, s.GroupBy)
	}
	for i, agg := range s.Aggs {
		attr := ""
		if a.inputs[i] = aggStar; agg.Col != "*" {
			var kind Kind
			if a.inputs[i], kind, err = bindAggInput(schema, s, agg.Col); err != nil {
				return nil, nil, nil, err
			}
			if (agg.Func == AggSum || agg.Func == AggAvg) && kind != KindInt && kind != KindFloat {
				return nil, nil, nil, fmt.Errorf("reldb: %s over non-numeric column %s", agg.Func, agg.Col)
			}
			attr = agg.Col
		}
		names, attrs = append(names, agg.String()), append(attrs, attr)
	}
	return a, names, attrs, nil
}

// fold folds the rows the plan accepts: one result row per group, sorted
// by group key, or exactly one without GROUP BY (over zero rows too).
// NULLs are skipped by SUM/AVG/MIN/MAX and COUNT(col); COUNT(*) counts
// rows. The rows are new: the caller owns them.
func (a *aggPlan) fold(plan *scanPlan) []Row {
	type group struct {
		key  Value
		accs []aggAcc
	}
	groups := map[string]*group{}
	if !a.grouped {
		groups[Null().Key()] = &group{accs: make([]aggAcc, len(a.inputs))}
	}
	plan.run(func(_ int64, r Row) bool {
		var key Value // NULL: no GROUP BY, or a hidden GROUP BY column
		if a.groupIdx >= 0 {
			key = r[a.groupIdx]
		}
		k := key.Key()
		g := groups[k]
		if g == nil {
			g = &group{key: key, accs: make([]aggAcc, len(a.inputs))}
			groups[k] = g
		}
		for i, ci := range a.inputs {
			acc := &g.accs[i]
			if ci == aggStar {
				acc.n++
				continue
			}
			if ci == aggHidden || r[ci].IsNull() {
				continue
			}
			v := &r[ci]
			if acc.n == 0 || compareTo(v, &acc.min) < 0 {
				acc.min = *v
			}
			if acc.n == 0 || compareTo(v, &acc.max) > 0 {
				acc.max = *v
			}
			f, _ := v.asFloat()
			acc.sum += f
			acc.n++
		}
		return true
	})

	keys := make([]string, 0, len(groups))
	for k := range groups {
		keys = append(keys, k)
	}
	sort.Strings(keys)
	var rows []Row
	for _, k := range keys {
		g := groups[k]
		row := make(Row, 0, len(a.inputs)+1)
		if a.grouped {
			row = append(row, g.key)
		}
		for i, agg := range a.aggs {
			row = append(row, g.accs[i].value(agg.Func))
		}
		rows = append(rows, row)
	}
	return rows
}
