package reldb

import (
	"cmp"
	"fmt"
	"math"
)

// Predicate evaluation. An Expr is bound to a table's schema once per
// execution — column names become positions, the operator string becomes a
// code, a NULL literal becomes the constant false — and the resulting
// matcher runs once per row with nothing left to resolve or report. This
// file is the only evaluator: Expr.Eval is bind followed by one match. The
// key tests bound here too (bindKeys) only pick the rows a scan hands the
// matcher; they never decide one.

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

// bindKeys fills f with the key tests of where's top-level AND chain — the
// conjuncts chunk keys can evaluate: a TEXT column = a TEXT literal, and an
// INT column compared by =, <, <=, > or >= with an INT literal, all of one
// column's INT comparisons folded into one closed interval. Every row the
// predicate accepts passes them (a TEXT test also passes a fingerprint
// collision), so they narrow a scan and the matcher still decides. Any
// other conjunct — != included — and everything under OR or NOT gets no
// test.
func bindKeys(where Expr, s *Schema, f *keyFilter) {
	switch e := where.(type) {
	case *AndExpr:
		bindKeys(e.L, s, f)
		bindKeys(e.R, s, f)
		return
	case *CmpExpr:
		ci := s.ColIndex(e.Col)
		switch {
		case ci < 0 || s.Columns[ci].Kind != e.Val.Kind:
		case e.Val.Kind == KindString && e.Op == "=":
			h := textKey(e.Val.S)
			f.set(f.n, keyTest{col: ci, kind: uint8(KindString), lo: h, hi: h})
		case e.Val.Kind == KindInt:
			f.addInt(ci, e.Op, e.Val.I)
		}
	}
}

// keyTest passes a slot whose column col has kind kind and a key in
// [lo, hi].
type keyTest struct {
	col    int
	kind   uint8
	lo, hi uint64
}

// noKind is a key-test kind no slot has: the test of an empty interval.
const noKind = 0xFF

// maxKeyTests caps a filter's tests: a plan carries them in an array, so
// binding a predicate allocates nothing for them. A conjunct beyond the cap
// only narrows less.
const maxKeyTests = 4

// keyFilter is a conjunction of key tests, the narrowest interval first:
// the first test is the one that reads every slot of a chunk.
type keyFilter struct {
	n     int
	tests [maxKeyTests]keyTest
}

// addInt narrows column ci's INT interval to the values v with v op n.
func (f *keyFilter) addInt(ci int, op string, n int64) {
	lo, hi := int64(math.MinInt64), int64(math.MaxInt64)
	switch op {
	case "=":
		lo, hi = n, n
	case "<=":
		hi = n
	case ">=":
		lo = n
	case "<":
		if hi = n - 1; n == math.MinInt64 {
			lo, hi = 0, -1 // empty
		}
	case ">":
		if lo = n + 1; n == math.MaxInt64 {
			lo, hi = 0, -1 // empty
		}
	default: // !=
		return
	}
	t := keyTest{col: ci, kind: uint8(KindInt), lo: intKey(lo), hi: intKey(hi)}
	i := 0
	for i < f.n && (f.tests[i].col != ci || f.tests[i].kind != t.kind) {
		i++
	}
	if i < f.n {
		t.lo, t.hi = max(t.lo, f.tests[i].lo), min(t.hi, f.tests[i].hi)
	}
	if t.lo > t.hi {
		t = keyTest{col: ci, kind: noKind}
	}
	f.set(i, t)
}

// set stores t as test i, appending it when i is f.n (unless the filter is
// full), and moves it to the front when its interval is narrower than the
// front test's.
func (f *keyFilter) set(i int, t keyTest) {
	if i == maxKeyTests {
		return
	}
	f.tests[i] = t
	if i == f.n {
		f.n++
	}
	if a, b := &f.tests[i], &f.tests[0]; a.hi-a.lo < b.hi-b.lo {
		*a, *b = *b, *a
	}
}
