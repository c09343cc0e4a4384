package reldb

import (
	"fmt"
	"strconv"
	"strings"
)

// The SQL subset:
//
//	CREATE TABLE t (col TYPE, ...)            TYPE ∈ INT | FLOAT | TEXT | BOOL
//	INSERT INTO t VALUES (v, ...), ...        one or more tuples
//	SELECT * | col, ... FROM t [WHERE expr] [ORDER BY col [DESC]] [LIMIT n]
//	SELECT agg, ... FROM t [WHERE expr] [GROUP BY col]
//	                                          agg ∈ COUNT(*) | COUNT|SUM|AVG|MIN|MAX(col)
//	UPDATE t SET col = value, ... [WHERE expr]
//	                                          each col at most once
//	DELETE FROM t [WHERE expr]
//
// Expressions: column refs, literals (42, 3.5, 'text', TRUE, FALSE, NULL),
// comparisons (=, !=, <, <=, >, >=), AND, OR, NOT, parentheses.

// Stmt is a parsed statement.
type Stmt interface{ stmt() }

// CreateTableStmt creates a table.
type CreateTableStmt struct {
	Table  string
	Schema Schema
}

// InsertStmt inserts one or more rows, in order, as one statement: every
// tuple is checked before any is written, and they commit together.
type InsertStmt struct {
	Table string
	Rows  [][]Value
}

// OrderKey is one ORDER BY term.
type OrderKey struct {
	Col  string
	Desc bool
}

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

// SelectStmt reads rows, or — with a non-empty Aggs — folds them: one
// result row per GroupBy value (one in all without GroupBy), holding the
// group column, if any, then one column per aggregate. An aggregate
// statement has no Columns, OrderBy or Limit; a row statement no GroupBy.
type SelectStmt struct {
	Table   string
	Columns []string // nil means * (or an aggregate list)
	Aggs    []AggExpr
	GroupBy string
	Where   Expr
	OrderBy []OrderKey
	Limit   int // -1 means no limit
	// hidden names the columns the subject's column policies hide: they
	// read NULL in every row, before grouping, aggregation and projection.
	// Only SecureDB sets it, on its own copy of the statement, next to the
	// row-policy rewrite of Where — the two together are the subject's view.
	hidden map[string]bool
}

// UpdateStmt modifies rows.
type UpdateStmt struct {
	Table string
	Set   map[string]Value
	Where Expr
}

// DeleteStmt removes rows.
type DeleteStmt struct {
	Table string
	Where Expr
}

func (*CreateTableStmt) stmt() {}
func (*InsertStmt) stmt()      {}
func (*SelectStmt) stmt()      {}
func (*UpdateStmt) stmt()      {}
func (*DeleteStmt) stmt()      {}

// Expr is a boolean expression over a row. The set of expression nodes is
// closed: every node binds itself to a schema (bind.go), and Eval is that
// binding followed by one match.
type Expr interface {
	// Eval binds the expression to s and reports whether r satisfies it. A
	// caller with more than one row binds once instead (bind).
	Eval(s *Schema, r Row) (bool, error)
	String() string
	// bind resolves the expression against s into a matcher; it reports an
	// unknown column or operator without looking at any row, and leaves the
	// expression unmodified (parsed statements and row-policy predicates
	// are shared between goroutines).
	bind(s *Schema) (matcher, error)
}

// CmpExpr compares a column with a literal.
type CmpExpr struct {
	Col string
	Op  string
	Val Value
}

// Eval implements Expr.
//
// seclint:exempt expression node evaluating one row the engine already authorized
func (e *CmpExpr) Eval(s *Schema, r Row) (bool, error) { return evalBound(e, s, r) }

func (e *CmpExpr) String() string {
	v := e.Val.String()
	if e.Val.Kind == KindString {
		v = QuoteString(v)
	}
	return fmt.Sprintf("%s %s %s", e.Col, e.Op, v)
}

// AndExpr is a conjunction.
type AndExpr struct{ L, R Expr }

// Eval implements Expr.
//
// seclint:exempt expression node evaluating one row the engine already authorized
func (e *AndExpr) Eval(s *Schema, r Row) (bool, error) { return evalBound(e, s, r) }

func (e *AndExpr) String() string { return "(" + e.L.String() + " AND " + e.R.String() + ")" }

// OrExpr is a disjunction.
type OrExpr struct{ L, R Expr }

// Eval implements Expr.
//
// seclint:exempt expression node evaluating one row the engine already authorized
func (e *OrExpr) Eval(s *Schema, r Row) (bool, error) { return evalBound(e, s, r) }

func (e *OrExpr) String() string { return "(" + e.L.String() + " OR " + e.R.String() + ")" }

// NotExpr is a negation.
type NotExpr struct{ E Expr }

// Eval implements Expr.
//
// seclint:exempt expression node evaluating one row the engine already authorized
func (e *NotExpr) Eval(s *Schema, r Row) (bool, error) { return evalBound(e, s, r) }

func (e *NotExpr) String() string { return "NOT (" + e.E.String() + ")" }

// TrueExpr always holds; used as the neutral element when composing
// security predicates.
type TrueExpr struct{}

// Eval implements Expr.
//
// seclint:exempt expression node evaluating one row the engine already authorized
func (TrueExpr) Eval(*Schema, Row) (bool, error) { return true, nil }
func (TrueExpr) String() string                  { return "TRUE" }

// falseExpr matches nothing: the view of a subject no row policy admits.
type falseExpr struct{}

func (falseExpr) Eval(*Schema, Row) (bool, error) { return false, nil }
func (falseExpr) String() string                  { return "FALSE" }

// --- Lexer ---

type token struct {
	kind string // "ident", "num", "str", "op", "punct", "eof"
	text string
}

type lexer struct {
	src  string
	pos  int
	toks []token
}

func lex(src string) ([]token, error) {
	// Statements average about four bytes of source per token.
	l := &lexer{src: src, toks: make([]token, 0, len(src)/4+1)}
	for l.pos < len(l.src) {
		c := l.src[l.pos]
		switch {
		case c == ' ' || c == '\t' || c == '\n' || c == '\r':
			l.pos++
		case c >= '0' && c <= '9' || c == '-' && l.pos+1 < len(l.src) && l.src[l.pos+1] >= '0' && l.src[l.pos+1] <= '9':
			start := l.pos
			l.pos++
			for l.pos < len(l.src) && (l.src[l.pos] >= '0' && l.src[l.pos] <= '9' || l.src[l.pos] == '.') {
				l.pos++
			}
			l.toks = append(l.toks, token{"num", l.src[start:l.pos]})
		case c == '\'':
			// SQL-standard literal: '' inside the quotes is an escaped
			// single quote. A literal without one is a slice of the source.
			l.pos++
			if end := strings.IndexByte(l.src[l.pos:], '\''); end >= 0 &&
				(l.pos+end+1 == len(l.src) || l.src[l.pos+end+1] != '\'') {
				l.toks = append(l.toks, token{"str", l.src[l.pos : l.pos+end]})
				l.pos += end + 1
				break
			}
			var b strings.Builder
			for {
				if l.pos >= len(l.src) {
					return nil, fmt.Errorf("reldb: unterminated string literal")
				}
				ch := l.src[l.pos]
				if ch == '\'' {
					if l.pos+1 < len(l.src) && l.src[l.pos+1] == '\'' {
						b.WriteByte('\'')
						l.pos += 2
						continue
					}
					l.pos++
					break
				}
				b.WriteByte(ch)
				l.pos++
			}
			l.toks = append(l.toks, token{"str", b.String()})
		case isIdentStart(c):
			start := l.pos
			for l.pos < len(l.src) && isIdentChar(l.src[l.pos]) {
				l.pos++
			}
			l.toks = append(l.toks, token{"ident", l.src[start:l.pos]})
		case strings.ContainsRune("=<>!", rune(c)):
			start := l.pos
			l.pos++
			if l.pos < len(l.src) && l.src[l.pos] == '=' {
				l.pos++
			}
			op := l.src[start:l.pos]
			if op == "!" || op == "<>" {
				return nil, fmt.Errorf("reldb: unknown operator %q", op)
			}
			l.toks = append(l.toks, token{"op", op})
		case strings.ContainsRune("(),*", rune(c)):
			l.toks = append(l.toks, token{"punct", string(c)})
			l.pos++
		default:
			return nil, fmt.Errorf("reldb: unexpected character %q at %d", c, l.pos)
		}
	}
	l.toks = append(l.toks, token{"eof", ""})
	return l.toks, nil
}

func isIdentStart(c byte) bool {
	return c >= 'a' && c <= 'z' || c >= 'A' && c <= 'Z' || c == '_'
}

func isIdentChar(c byte) bool {
	return isIdentStart(c) || c >= '0' && c <= '9' || c == '.'
}

// --- Parser ---

// QuoteString renders s as a SQL string literal for this dialect,
// doubling embedded single quotes. Code that composes statement text
// from values must route every string through it — "'" + s + "'" is how
// a value grows into syntax.
func QuoteString(s string) string {
	return "'" + strings.ReplaceAll(s, "'", "''") + "'"
}

type parser struct {
	toks []token
	pos  int
	src  string
}

// Parse parses one SQL statement: it is the boundary where raw text
// becomes a validated Stmt.
//
// seclint:sanitizer
func Parse(src string) (Stmt, error) {
	toks, err := lex(src)
	if err != nil {
		return nil, err
	}
	p := &parser{toks: toks, src: src}
	st, err := p.parseStmt()
	if err != nil {
		return nil, err
	}
	if !p.atKeyword("") && p.cur().kind != "eof" {
		return nil, fmt.Errorf("reldb: trailing input %q in %q", p.cur().text, src)
	}
	return st, nil
}

// MustParse is Parse that panics on error.
// seclint:sanitizer
func MustParse(src string) Stmt {
	st, err := Parse(src)
	if err != nil {
		panic(err)
	}
	return st
}

func (p *parser) cur() token { return p.toks[p.pos] }

func (p *parser) next() token {
	t := p.toks[p.pos]
	if t.kind != "eof" {
		p.pos++
	}
	return t
}

func (p *parser) atKeyword(kw string) bool {
	t := p.cur()
	return t.kind == "ident" && strings.EqualFold(t.text, kw)
}

func (p *parser) expectKeyword(kw string) error {
	if !p.atKeyword(kw) {
		return fmt.Errorf("reldb: expected %s near %q in %q", kw, p.cur().text, p.src)
	}
	p.next()
	return nil
}

func (p *parser) atPunct(s string) bool {
	t := p.cur()
	return t.kind == "punct" && t.text == s
}

func (p *parser) expectPunct(s string) error {
	if !p.atPunct(s) {
		return fmt.Errorf("reldb: expected %q near %q in %q", s, p.cur().text, p.src)
	}
	p.next()
	return nil
}

func (p *parser) ident() (string, error) {
	t := p.cur()
	if t.kind != "ident" {
		return "", fmt.Errorf("reldb: expected identifier near %q in %q", t.text, p.src)
	}
	p.next()
	return t.text, nil
}

func (p *parser) parseStmt() (Stmt, error) {
	switch {
	case p.atKeyword("CREATE"):
		return p.parseCreate()
	case p.atKeyword("INSERT"):
		return p.parseInsert()
	case p.atKeyword("SELECT"):
		return p.parseSelect()
	case p.atKeyword("UPDATE"):
		return p.parseUpdate()
	case p.atKeyword("DELETE"):
		return p.parseDelete()
	}
	return nil, fmt.Errorf("reldb: unknown statement %q", p.src)
}

func (p *parser) parseCreate() (Stmt, error) {
	p.next() // CREATE
	if err := p.expectKeyword("TABLE"); err != nil {
		return nil, err
	}
	name, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	var schema Schema
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		typ, err := p.ident()
		if err != nil {
			return nil, err
		}
		var k Kind
		switch strings.ToUpper(typ) {
		case "INT":
			k = KindInt
		case "FLOAT":
			k = KindFloat
		case "TEXT":
			k = KindString
		case "BOOL":
			k = KindBool
		default:
			return nil, fmt.Errorf("reldb: unknown type %s", typ)
		}
		schema.Columns = append(schema.Columns, Column{Name: col, Kind: k})
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	if err := p.expectPunct(")"); err != nil {
		return nil, err
	}
	return &CreateTableStmt{Table: name, Schema: schema}, nil
}

func (p *parser) parseInsert() (Stmt, error) {
	p.next() // INSERT
	if err := p.expectKeyword("INTO"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("VALUES"); err != nil {
		return nil, err
	}
	st := &InsertStmt{Table: table}
	for width := 0; ; {
		vals, err := p.tuple(width)
		if err != nil {
			return nil, err
		}
		st.Rows = append(st.Rows, vals)
		if !p.atPunct(",") {
			return st, nil
		}
		p.next()
		width = len(vals)
	}
}

// tuple parses one parenthesised, non-empty list of literals; width is the
// length it most likely has.
func (p *parser) tuple(width int) ([]Value, error) {
	if err := p.expectPunct("("); err != nil {
		return nil, err
	}
	vals := make([]Value, 0, width)
	for {
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		vals = append(vals, v)
		if !p.atPunct(",") {
			break
		}
		p.next()
	}
	return vals, p.expectPunct(")")
}

// parseSelect is the one SELECT grammar: a select list is *, columns, or
// aggregates; only an aggregate list takes GROUP BY, only the others
// ORDER BY and LIMIT.
func (p *parser) parseSelect() (Stmt, error) {
	p.next() // SELECT
	st := &SelectStmt{Limit: -1}
	if p.atPunct("*") {
		p.next()
	} else {
		for {
			name, err := p.ident()
			if err != nil {
				return nil, err
			}
			if p.atPunct("(") {
				agg, err := p.parseAgg(name)
				if err != nil {
					return nil, err
				}
				st.Aggs = append(st.Aggs, agg)
			} else {
				st.Columns = append(st.Columns, name)
			}
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
		if st.Aggs != nil && st.Columns != nil {
			return nil, fmt.Errorf("reldb: a select list is columns or aggregates, not both, in %q", p.src)
		}
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
	if st.Aggs != nil {
		if p.atKeyword("GROUP") {
			p.next()
			if err := p.expectKeyword("BY"); err != nil {
				return nil, err
			}
			if st.GroupBy, err = p.ident(); err != nil {
				return nil, err
			}
		}
		return st, nil // ORDER BY and LIMIT here are Parse's trailing input
	}
	if p.atKeyword("ORDER") {
		p.next()
		if err := p.expectKeyword("BY"); err != nil {
			return nil, err
		}
		for {
			col, err := p.ident()
			if err != nil {
				return nil, err
			}
			key := OrderKey{Col: col}
			if p.atKeyword("DESC") {
				p.next()
				key.Desc = true
			} else if p.atKeyword("ASC") {
				p.next()
			}
			st.OrderBy = append(st.OrderBy, key)
			if p.atPunct(",") {
				p.next()
				continue
			}
			break
		}
	}
	if p.atKeyword("LIMIT") {
		p.next()
		t := p.next()
		if t.kind != "num" {
			return nil, fmt.Errorf("reldb: LIMIT needs a number")
		}
		n, err := strconv.Atoi(t.text)
		if err != nil || n < 0 {
			return nil, fmt.Errorf("reldb: bad LIMIT %q", t.text)
		}
		st.Limit = n
	}
	return st, nil
}

// parseAgg parses the parenthesised argument of the aggregate whose
// function name, fn, the caller has consumed.
func (p *parser) parseAgg(fn string) (AggExpr, error) {
	agg := AggExpr{Func: AggFunc(strings.ToUpper(fn))}
	switch agg.Func {
	case AggCount, AggSum, AggAvg, AggMin, AggMax:
	default:
		return agg, fmt.Errorf("reldb: %q is not an aggregate function", fn)
	}
	p.next() // (
	if p.atPunct("*") {
		p.next()
		if agg.Func != AggCount {
			return agg, fmt.Errorf("reldb: %s(*) is not valid", agg.Func)
		}
		agg.Col = "*"
	} else {
		var err error
		if agg.Col, err = p.ident(); err != nil {
			return agg, err
		}
	}
	return agg, p.expectPunct(")")
}

func (p *parser) parseUpdate() (Stmt, error) {
	p.next() // UPDATE
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	if err := p.expectKeyword("SET"); err != nil {
		return nil, err
	}
	set := make(map[string]Value)
	for {
		col, err := p.ident()
		if err != nil {
			return nil, err
		}
		t := p.next()
		if t.kind != "op" || t.text != "=" {
			return nil, fmt.Errorf("reldb: expected = in SET")
		}
		v, err := p.literal()
		if err != nil {
			return nil, err
		}
		if _, dup := set[col]; dup {
			return nil, fmt.Errorf("reldb: SET assigns %s twice in %q", col, p.src)
		}
		set[col] = v
		if p.atPunct(",") {
			p.next()
			continue
		}
		break
	}
	st := &UpdateStmt{Table: table, Set: set}
	if p.atKeyword("WHERE") {
		p.next()
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

func (p *parser) parseDelete() (Stmt, error) {
	p.next() // DELETE
	if err := p.expectKeyword("FROM"); err != nil {
		return nil, err
	}
	table, err := p.ident()
	if err != nil {
		return nil, err
	}
	st := &DeleteStmt{Table: table}
	if p.atKeyword("WHERE") {
		p.next()
		st.Where, err = p.parseExpr()
		if err != nil {
			return nil, err
		}
	}
	return st, nil
}

// parseExpr: OR-level.
func (p *parser) parseExpr() (Expr, error) {
	left, err := p.parseAnd()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("OR") {
		p.next()
		right, err := p.parseAnd()
		if err != nil {
			return nil, err
		}
		left = &OrExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseAnd() (Expr, error) {
	left, err := p.parseNot()
	if err != nil {
		return nil, err
	}
	for p.atKeyword("AND") {
		p.next()
		right, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		left = &AndExpr{L: left, R: right}
	}
	return left, nil
}

func (p *parser) parseNot() (Expr, error) {
	if p.atKeyword("NOT") {
		p.next()
		e, err := p.parseNot()
		if err != nil {
			return nil, err
		}
		return &NotExpr{E: e}, nil
	}
	if p.atPunct("(") {
		p.next()
		e, err := p.parseExpr()
		if err != nil {
			return nil, err
		}
		if err := p.expectPunct(")"); err != nil {
			return nil, err
		}
		return e, nil
	}
	return p.parseCmp()
}

func (p *parser) parseCmp() (Expr, error) {
	col, err := p.ident()
	if err != nil {
		return nil, err
	}
	t := p.next()
	if t.kind != "op" {
		return nil, fmt.Errorf("reldb: expected comparison operator near %q", t.text)
	}
	v, err := p.literal()
	if err != nil {
		return nil, err
	}
	return &CmpExpr{Col: col, Op: t.text, Val: v}, nil
}

func (p *parser) literal() (Value, error) {
	t := p.next()
	switch t.kind {
	case "num":
		if strings.Contains(t.text, ".") {
			f, err := strconv.ParseFloat(t.text, 64)
			if err != nil {
				return Null(), fmt.Errorf("reldb: bad float %q", t.text)
			}
			return Float(f), nil
		}
		i, err := strconv.ParseInt(t.text, 10, 64)
		if err != nil {
			return Null(), fmt.Errorf("reldb: bad int %q", t.text)
		}
		return Int(i), nil
	case "str":
		return Str(t.text), nil
	case "ident":
		switch strings.ToUpper(t.text) {
		case "TRUE":
			return Bool(true), nil
		case "FALSE":
			return Bool(false), nil
		case "NULL":
			return Null(), nil
		}
	}
	return Null(), fmt.Errorf("reldb: expected literal near %q", t.text)
}
