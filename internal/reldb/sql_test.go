package reldb

import (
	"reflect"
	"strconv"
	"strings"
	"testing"
)

func TestParseCreateTable(t *testing.T) {
	st := MustParse("CREATE TABLE emp (id INT, name TEXT, salary FLOAT, active BOOL)")
	ct, ok := st.(*CreateTableStmt)
	if !ok {
		t.Fatalf("got %T", st)
	}
	if ct.Table != "emp" || len(ct.Schema.Columns) != 4 {
		t.Fatalf("parsed %+v", ct)
	}
	if ct.Schema.Columns[2].Kind != KindFloat {
		t.Error("salary kind wrong")
	}
}

// TestParseCreateIndex: reldb has no indexes — every predicate is served by
// one key-narrowed scan — so CREATE is followed by TABLE or is refused.
func TestParseCreateIndex(t *testing.T) {
	for _, src := range []string{
		"CREATE HASH INDEX ON emp (id)",
		"CREATE ORDERED INDEX ON emp (salary)",
		"CREATE INDEX ON emp (id)",
		"CREATE VIEW v",
		"CREATE",
	} {
		if st, err := Parse(src); err == nil {
			t.Errorf("Parse(%q) = %#v, want an error", src, st)
		}
	}
}

func TestParseInsert(t *testing.T) {
	st := MustParse("INSERT INTO emp VALUES (1, 'Ada', 95.5, TRUE)")
	ins := st.(*InsertStmt)
	if ins.Table != "emp" || len(ins.Rows) != 1 || len(ins.Rows[0]) != 4 {
		t.Fatalf("parsed %+v", ins)
	}
	if vals := ins.Rows[0]; vals[0] != Int(1) || vals[1] != Str("Ada") ||
		vals[2] != Float(95.5) || vals[3] != Bool(true) {
		t.Errorf("values = %v", vals)
	}
	st = MustParse("INSERT INTO emp VALUES (NULL, 'x', -3, FALSE)")
	ins = st.(*InsertStmt)
	if vals := ins.Rows[0]; !vals[0].IsNull() || vals[2] != Int(-3) {
		t.Errorf("values = %v", vals)
	}
}

// insertText renders an INSERT of rows in this dialect's literal syntax.
func insertText(table string, rows [][]Value) string {
	var b strings.Builder
	b.WriteString("INSERT INTO " + table + " VALUES ")
	for i, r := range rows {
		if i > 0 {
			b.WriteString(", ")
		}
		b.WriteString("(")
		for j, v := range r {
			if j > 0 {
				b.WriteString(", ")
			}
			switch v.Kind {
			case KindString:
				b.WriteString(QuoteString(v.S))
			case KindFloat:
				f := strconv.FormatFloat(v.F, 'f', -1, 64)
				if !strings.Contains(f, ".") {
					f += ".0" // the lexer reads a number without a point as INT
				}
				b.WriteString(f)
			default:
				b.WriteString(v.String())
			}
		}
		b.WriteString(")")
	}
	return b.String()
}

// TestParseMultiRowInsert: an INSERT takes one or more tuples, each of one
// or more literals, in order; rendering the parsed rows and parsing again
// gives the same statement.
func TestParseMultiRowInsert(t *testing.T) {
	src := "INSERT INTO emp VALUES (1, 'Ada', 95.5, TRUE), (2, 'O''Brien', NULL, FALSE),(-3,'',0.25,NULL)"
	ins := MustParse(src).(*InsertStmt)
	want := [][]Value{
		{Int(1), Str("Ada"), Float(95.5), Bool(true)},
		{Int(2), Str("O'Brien"), Null(), Bool(false)},
		{Int(-3), Str(""), Float(0.25), Null()},
	}
	if ins.Table != "emp" || !reflect.DeepEqual(ins.Rows, want) {
		t.Fatalf("parsed %+v, want rows %v", ins, want)
	}
	again := MustParse(insertText(ins.Table, ins.Rows)).(*InsertStmt)
	if !reflect.DeepEqual(again, ins) {
		t.Fatalf("%q re-parsed to %+v, want %+v", insertText(ins.Table, ins.Rows), again, ins)
	}
	// Tuples need not agree in arity or kinds at parse time: the schema
	// decides at execution.
	if ins := MustParse("INSERT INTO t VALUES (1), ('a', 2)").(*InsertStmt); len(ins.Rows) != 2 || len(ins.Rows[1]) != 2 {
		t.Fatalf("parsed %+v", ins)
	}
	for _, bad := range []string{
		"INSERT INTO emp VALUES (1, 'a'),",
		"INSERT INTO emp VALUES (1, 'a'), ",
		"INSERT INTO emp VALUES (1, 'a'), ()",
		"INSERT INTO emp VALUES ()",
		"INSERT INTO emp VALUES",
		"INSERT INTO emp VALUES (1, 'a') (2, 'b')",
		"INSERT INTO emp VALUES (1, 'a'),, (2, 'b')",
		"INSERT INTO emp VALUES (1, 'a'), 2",
		"INSERT INTO emp VALUES (1, 'a'), (2, 'b'",
		"INSERT INTO emp VALUES (1,), (2)",
	} {
		if st, err := Parse(bad); err == nil {
			t.Errorf("Parse(%q) = %+v, want an error", bad, st)
		}
	}
}

func TestParseSelect(t *testing.T) {
	st := MustParse("SELECT name, salary FROM emp WHERE salary >= 50000 AND active = TRUE ORDER BY salary DESC LIMIT 10")
	sel := st.(*SelectStmt)
	if sel.Table != "emp" || len(sel.Columns) != 2 || sel.Limit != 10 {
		t.Fatalf("parsed %+v", sel)
	}
	if len(sel.OrderBy) != 1 || sel.OrderBy[0].Col != "salary" || !sel.OrderBy[0].Desc {
		t.Fatalf("order by = %+v", sel.OrderBy)
	}
	and, ok := sel.Where.(*AndExpr)
	if !ok {
		t.Fatalf("where = %T", sel.Where)
	}
	cmp := and.L.(*CmpExpr)
	if cmp.Col != "salary" || cmp.Op != ">=" {
		t.Errorf("left cmp = %+v", cmp)
	}
}

func TestParseSelectStar(t *testing.T) {
	sel := MustParse("SELECT * FROM emp").(*SelectStmt)
	if sel.Columns != nil || sel.Where != nil || sel.Limit != -1 {
		t.Errorf("parsed %+v", sel)
	}
}

func TestParseWherePrecedence(t *testing.T) {
	// a = 1 OR b = 2 AND c = 3  parses as  a = 1 OR (b = 2 AND c = 3)
	sel := MustParse("SELECT * FROM t WHERE a = 1 OR b = 2 AND c = 3").(*SelectStmt)
	or, ok := sel.Where.(*OrExpr)
	if !ok {
		t.Fatalf("where = %T", sel.Where)
	}
	if _, ok := or.R.(*AndExpr); !ok {
		t.Errorf("right of OR = %T, want AndExpr", or.R)
	}
}

func TestParseNotAndParens(t *testing.T) {
	sel := MustParse("SELECT * FROM t WHERE NOT (a = 1 OR b = 2)").(*SelectStmt)
	not, ok := sel.Where.(*NotExpr)
	if !ok {
		t.Fatalf("where = %T", sel.Where)
	}
	if _, ok := not.E.(*OrExpr); !ok {
		t.Errorf("inner = %T", not.E)
	}
}

func TestMultiColumnOrderBy(t *testing.T) {
	sel := MustParse("SELECT * FROM t ORDER BY a DESC, b, c ASC").(*SelectStmt)
	if len(sel.OrderBy) != 3 {
		t.Fatalf("order keys = %+v", sel.OrderBy)
	}
	if !sel.OrderBy[0].Desc || sel.OrderBy[1].Desc || sel.OrderBy[2].Desc {
		t.Errorf("directions = %+v", sel.OrderBy)
	}
	db := NewDatabase()
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT)"); err != nil {
		t.Fatal(err)
	}
	for _, r := range []string{"(1,'z')", "(1,'a')", "(2,'m')", "(2,'b')"} {
		if _, err := db.Exec("INSERT INTO t VALUES " + r); err != nil {
			t.Fatal(err)
		}
	}
	res, err := db.Exec("SELECT a, b FROM t ORDER BY a DESC, b")
	if err != nil {
		t.Fatal(err)
	}
	want := [][2]string{{"2", "b"}, {"2", "m"}, {"1", "a"}, {"1", "z"}}
	for i, w := range want {
		if res.Rows[i][0].String() != w[0] || res.Rows[i][1].String() != w[1] {
			t.Fatalf("row %d = %v, want %v (all: %v)", i, res.Rows[i], w, res.Rows)
		}
	}
}

func TestParseUpdateDelete(t *testing.T) {
	upd := MustParse("UPDATE emp SET salary = 100, active = FALSE WHERE id = 3").(*UpdateStmt)
	if upd.Table != "emp" || len(upd.Set) != 2 || upd.Set["salary"] != Int(100) {
		t.Fatalf("parsed %+v", upd)
	}
	del := MustParse("DELETE FROM emp WHERE active = FALSE").(*DeleteStmt)
	if del.Table != "emp" || del.Where == nil {
		t.Fatalf("parsed %+v", del)
	}
	del = MustParse("DELETE FROM emp").(*DeleteStmt)
	if del.Where != nil {
		t.Error("where should be nil")
	}
}

func TestParseErrors(t *testing.T) {
	for _, src := range []string{
		"",
		"DROP TABLE emp",
		"CREATE TABLE",
		"CREATE TABLE t ()",
		"CREATE TABLE t (x BLOB)",
		"INSERT emp VALUES (1)",
		"INSERT INTO emp VALUES 1",
		"SELECT FROM emp",
		"SELECT * FROM",
		"SELECT * FROM emp WHERE",
		"SELECT * FROM emp WHERE x",
		"SELECT * FROM emp WHERE x = ",
		"SELECT * FROM emp LIMIT x",
		"SELECT * FROM emp LIMIT -1",
		"UPDATE emp SET",
		"UPDATE emp SET x 1",
		"UPDATE u SET a = 5, a = 6",
		"UPDATE u SET a = 5, b = 1, a = 5 WHERE b = 2",
		"SELECT * FROM emp WHERE x = 'unterminated",
		"SELECT * FROM emp extra garbage",
		"SELECT * FROM emp WHERE x ! 1",
	} {
		if _, err := Parse(src); err == nil {
			t.Errorf("Parse(%q): want error", src)
		}
	}
}

func TestExprEval(t *testing.T) {
	schema := Schema{Columns: []Column{{"a", KindInt}, {"b", KindString}}}
	row := Row{Int(5), Str("x")}
	cases := []struct {
		where string
		want  bool
	}{
		{"a = 5", true},
		{"a != 5", false},
		{"a < 10", true},
		{"a <= 5", true},
		{"a > 5", false},
		{"a >= 6", false},
		{"b = 'x'", true},
		{"b = 'y'", false},
		{"a = 5 AND b = 'x'", true},
		{"a = 5 AND b = 'y'", false},
		{"a = 4 OR b = 'x'", true},
		{"NOT a = 4", true},
		{"a = NULL", false},
	}
	for _, c := range cases {
		sel := MustParse("SELECT * FROM t WHERE " + c.where).(*SelectStmt)
		got, err := sel.Where.Eval(&schema, row)
		if err != nil {
			t.Fatalf("%s: %v", c.where, err)
		}
		if got != c.want {
			t.Errorf("%s = %v, want %v", c.where, got, c.want)
		}
	}
	// Unknown column errors.
	sel := MustParse("SELECT * FROM t WHERE zz = 1").(*SelectStmt)
	if _, err := sel.Where.Eval(&schema, row); err == nil {
		t.Error("unknown column evaluated")
	}
}

func TestNullComparisonsAlwaysFalse(t *testing.T) {
	schema := Schema{Columns: []Column{{"a", KindInt}}}
	row := Row{Null()}
	for _, op := range []string{"=", "!=", "<", "<=", ">", ">="} {
		e := &CmpExpr{Col: "a", Op: op, Val: Int(1)}
		got, err := e.Eval(&schema, row)
		if err != nil {
			t.Fatal(err)
		}
		if got {
			t.Errorf("NULL %s 1 = true", op)
		}
	}
}

func TestExprStrings(t *testing.T) {
	sel := MustParse("SELECT * FROM t WHERE a = 1 AND NOT (b = 'x' OR c < 2)").(*SelectStmt)
	s := sel.Where.String()
	if s == "" {
		t.Error("empty String()")
	}
	// Re-parse the printed predicate: it must round-trip.
	if _, err := Parse("SELECT * FROM t WHERE " + s); err != nil {
		t.Errorf("printed predicate does not re-parse: %q: %v", s, err)
	}
}

// TestStringLiteralEscape: ” inside a literal is an escaped quote, and
// QuoteString produces exactly that form — the pair is what keeps a value
// containing a quote from growing into syntax when statement text is
// composed.
func TestStringLiteralEscape(t *testing.T) {
	st := MustParse("INSERT INTO emp VALUES (1, 'O''Brien', 1.0, TRUE)")
	ins := st.(*InsertStmt)
	if ins.Rows[0][1] != Str("O'Brien") {
		t.Errorf("values = %v, want O'Brien", ins.Rows[0])
	}
	if _, err := Parse("SELECT name FROM emp WHERE name = 'O'Brien'"); err == nil {
		t.Error("unescaped interior quote parsed; it should be a syntax error")
	}
	for _, s := range []string{"plain", "O'Brien", "''", "", "a''b"} {
		src := "INSERT INTO emp VALUES (1, " + QuoteString(s) + ", 1.0, TRUE)"
		st, err := Parse(src)
		if err != nil {
			t.Fatalf("QuoteString(%q): %v", s, err)
		}
		if got := st.(*InsertStmt).Rows[0][1]; got != Str(s) {
			t.Errorf("QuoteString(%q) round-tripped to %v", s, got)
		}
	}
	// The adversarial shape Sprintf-composed statements used to hit: a
	// value that tries to terminate the literal and smuggle in more SQL.
	hostile := "x', 'y', 2, 'z"
	src := "INSERT INTO emp VALUES (1, " + QuoteString(hostile) + ", 1.0, TRUE)"
	ins = MustParse(src).(*InsertStmt)
	if len(ins.Rows) != 1 || len(ins.Rows[0]) != 4 || ins.Rows[0][1] != Str(hostile) {
		t.Errorf("hostile value changed statement shape: %+v", ins)
	}
}
