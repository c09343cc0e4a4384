package reldb

import (
	"cmp"
	"fmt"
)

// Predicate evaluation. An Expr is bound to a table's schema once per
// execution — column names become positions, the operator string becomes a
// code, a NULL literal becomes the constant false — and the resulting
// matcher runs once per row with nothing left to resolve or report. This
// file is the only evaluator: Expr.Eval is bind followed by one match.

// matcher reports whether a row of the bound schema satisfies a predicate.
type matcher func(Row) bool

func matchAll(Row) bool  { return true }
func matchNone(Row) bool { return false }

// evalBound is Expr.Eval for every node: bind, then match the one row.
func evalBound(e Expr, s *Schema, r Row) (bool, error) {
	m, err := e.bind(s)
	if err != nil {
		return false, err
	}
	return m(r), nil
}

// bind implements Expr. SQL's three-valued logic is collapsed to two: a
// comparison involving NULL, in the row or as the literal, is false.
func (e *CmpExpr) bind(s *Schema) (matcher, error) {
	ci := s.ColIndex(e.Col)
	if ci < 0 {
		return nil, fmt.Errorf("reldb: unknown column %s", e.Col)
	}
	// holds[c+1] is the comparison's verdict for Compare(value, literal) == c.
	var holds [3]bool
	switch e.Op {
	case "=":
		holds = [3]bool{false, true, false}
	case "!=":
		holds = [3]bool{true, false, true}
	case "<":
		holds = [3]bool{true, false, false}
	case "<=":
		holds = [3]bool{true, true, false}
	case ">":
		holds = [3]bool{false, false, true}
	case ">=":
		holds = [3]bool{false, true, true}
	default:
		return nil, fmt.Errorf("reldb: unknown operator %s", e.Op)
	}
	lit := e.Val
	if lit.IsNull() {
		return matchNone, nil
	}
	// The literal's kind and the operator are known here, so the pairings
	// scans spend their rows on — TEXT = 'x', an INT column against an INT
	// — get a matcher that is compareTo's answer for that pairing without
	// its per-row kind dispatch. Everything else, including any other kind
	// turning up in an INT literal's column, is the generic closure.
	if lit.Kind == KindString && e.Op == "=" {
		want := lit.S
		return func(r Row) bool {
			v := &r[ci]
			return v.Kind == KindString && v.S == want
		}, nil
	}
	generic := func(r Row) bool {
		v := &r[ci]
		return v.Kind != KindNull && holds[compareTo(v, &lit)+1]
	}
	if lit.Kind == KindInt {
		n := lit.I
		return func(r Row) bool {
			if v := &r[ci]; v.Kind == KindInt {
				return holds[cmp.Compare(v.I, n)+1]
			}
			return generic(r)
		}, nil
	}
	return generic, nil
}

// bind implements Expr.
func (e *AndExpr) bind(s *Schema) (matcher, error) {
	l, err := e.L.bind(s)
	if err != nil {
		return nil, err
	}
	r, err := e.R.bind(s)
	if err != nil {
		return nil, err
	}
	return func(row Row) bool { return l(row) && r(row) }, nil
}

// bind implements Expr.
func (e *OrExpr) bind(s *Schema) (matcher, error) {
	l, err := e.L.bind(s)
	if err != nil {
		return nil, err
	}
	r, err := e.R.bind(s)
	if err != nil {
		return nil, err
	}
	return func(row Row) bool { return l(row) || r(row) }, nil
}

// bind implements Expr.
func (e *NotExpr) bind(s *Schema) (matcher, error) {
	m, err := e.E.bind(s)
	if err != nil {
		return nil, err
	}
	return func(row Row) bool { return !m(row) }, nil
}

func (TrueExpr) bind(*Schema) (matcher, error)  { return matchAll, nil }
func (falseExpr) bind(*Schema) (matcher, error) { return matchNone, nil }
