package reldb

import (
	"fmt"
	"math"
	"math/big"
	"math/rand"
	"reflect"
	"runtime"
	"sort"
	"strings"
	"testing"
)

// refEval is the reference the bound matcher is compared with: a naive
// evaluator that resolves every column by name and switches on the
// operator string for every row. Unlike bind it finds an unknown column
// only when evaluation reaches it.
func refEval(e Expr, s *Schema, r Row) (bool, error) {
	switch x := e.(type) {
	case *CmpExpr:
		ci := s.ColIndex(x.Col)
		if ci < 0 {
			return false, fmt.Errorf("unknown column %s", x.Col)
		}
		if r[ci].IsNull() || x.Val.IsNull() {
			return false, nil
		}
		c := Compare(r[ci], x.Val)
		if a, ok := exactNum(r[ci]); ok {
			if b, ok := exactNum(x.Val); ok {
				// Numbers order by their exact values — never through
				// float64, which cannot tell 1<<53 from 1<<53 + 1.
				c = a.Cmp(b)
			}
		}
		switch x.Op {
		case "=":
			return c == 0, nil
		case "!=":
			return c != 0, nil
		case "<":
			return c < 0, nil
		case "<=":
			return c <= 0, nil
		case ">":
			return c > 0, nil
		case ">=":
			return c >= 0, nil
		}
		return false, fmt.Errorf("unknown operator %s", x.Op)
	case *AndExpr:
		l, err := refEval(x.L, s, r)
		if err != nil || !l {
			return false, err
		}
		return refEval(x.R, s, r)
	case *OrExpr:
		l, err := refEval(x.L, s, r)
		if err != nil || l {
			return l, err
		}
		return refEval(x.R, s, r)
	case *NotExpr:
		v, err := refEval(x.E, s, r)
		return !v, err
	case TrueExpr:
		return true, nil
	case *falseExpr:
		return false, nil
	}
	return false, fmt.Errorf("unknown node %T", e)
}

// exactNum is an INT's or a FLOAT's exact value.
func exactNum(v Value) (*big.Float, bool) {
	switch v.Kind {
	case KindInt:
		return new(big.Float).SetInt64(v.I), true
	case KindFloat:
		return big.NewFloat(v.F), true
	}
	return nil, false
}

var evalSchema = Schema{Columns: []Column{
	{"i", KindInt}, {"f", KindFloat}, {"s", KindString}, {"b", KindBool}, {"j", KindInt},
}}

// genValue draws from a small domain so comparisons collide: NULLs, ints
// and floats that are equal across kinds, ints float64 cannot tell apart
// and the float they round to.
func genValue(rng *rand.Rand) Value {
	switch rng.Intn(9) {
	case 0:
		return Null()
	case 1, 2:
		return Int(int64(rng.Intn(7) - 3))
	case 3:
		return Float(float64(rng.Intn(7) - 3))
	case 4:
		return Float(float64(rng.Intn(13)-6) / 2)
	case 5:
		if rng.Intn(4) == 0 {
			return Float(1 << 53)
		}
		return Int(1<<53 + int64(rng.Intn(3)))
	case 6, 7:
		return Str([]string{"", "a", "ab", "b", "B"}[rng.Intn(5)])
	default:
		return Bool(rng.Intn(2) == 0)
	}
}

// genRow ignores column kinds on purpose: the matcher must agree with the
// reference on any value in any position.
func genRow(rng *rand.Rand) Row {
	r := make(Row, len(evalSchema.Columns))
	for i := range r {
		r[i] = genValue(rng)
	}
	return r
}

func genExpr(rng *rand.Rand, depth int) Expr {
	if depth > 0 {
		switch rng.Intn(6) {
		case 0, 1:
			return &AndExpr{L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
		case 2, 3:
			return &OrExpr{L: genExpr(rng, depth-1), R: genExpr(rng, depth-1)}
		case 4:
			return &NotExpr{E: genExpr(rng, depth-1)}
		}
	}
	switch rng.Intn(12) {
	case 0:
		return TrueExpr{}
	case 1:
		return &falseExpr{}
	}
	return &CmpExpr{
		Col: evalSchema.Columns[rng.Intn(len(evalSchema.Columns))].Name,
		Op:  []string{"=", "!=", "<", "<=", ">", ">="}[rng.Intn(6)],
		Val: genValue(rng),
	}
}

func TestBoundMatcherEqualsReference(t *testing.T) {
	rng := rand.New(rand.NewSource(20240914))
	for n := 0; n < 3000; n++ {
		e := genExpr(rng, rng.Intn(4))
		text := e.String()
		m, err := e.bind(&evalSchema)
		if err != nil {
			t.Fatalf("bind %s: %v", text, err)
		}
		for k := 0; k < 20; k++ {
			r := genRow(rng)
			want, err := refEval(e, &evalSchema, r)
			if err != nil {
				t.Fatalf("reference on %s: %v", text, err)
			}
			if got := m(r); got != want {
				t.Fatalf("%s over %v: matcher %v, reference %v", text, r, got, want)
			}
			if got, err := e.Eval(&evalSchema, r); err != nil || got != want {
				t.Fatalf("%s over %v: Eval %v, %v; reference %v", text, r, got, err, want)
			}
		}
		if e.String() != text {
			t.Fatalf("binding rewrote the expression: %s became %s", text, e.String())
		}
	}
}

// TestIntEqualityIsExact: INT = INT, INT ordering and ORDER BY are exact.
// Compared through float64, 1<<53 and 1<<53 + 1 would be one value.
func TestIntEqualityIsExact(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE t (a TEXT, b INT)")
	mustExec(t, db, "INSERT INTO t VALUES ('odd', 9007199254740993)")
	mustExec(t, db, "INSERT INTO t VALUES ('even', 9007199254740992)")
	for q, want := range map[string]string{
		"SELECT a FROM t WHERE b = 9007199254740992":  "[[even]]",
		"SELECT a FROM t WHERE b > 9007199254740992":  "[[odd]]",
		"SELECT a FROM t WHERE b != 9007199254740993": "[[even]]",
		"SELECT a FROM t ORDER BY b":                  "[[even] [odd]]",
	} {
		if got := fmt.Sprint(mustExec(t, db, q).Rows); got != want {
			t.Errorf("%s returned %s, want %s", q, got, want)
		}
	}
}

// TestIntFloatComparisonIsExact: an INT and a FLOAT compare by their exact
// values in a predicate and in ORDER BY, and agree with the reference
// evaluator. Compared through float64, 2⁶² + 1 rounds onto 2⁶².0, so
// x = 2⁶².0 would match both rows and ORDER BY would tie them.
func TestIntFloatComparisonIsExact(t *testing.T) {
	const (
		eq = "SELECT a FROM t WHERE x = 4611686018427387904.0"
		gt = "SELECT a FROM t WHERE x > 4611686018427387904.0"
		le = "SELECT a FROM t WHERE x <= 4611686018427387904.0"
	)
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE t (a TEXT, x FLOAT)")
	mustExec(t, db, "INSERT INTO t VALUES ('int', 4611686018427387905)")
	mustExec(t, db, "INSERT INTO t VALUES ('float', 4611686018427387904.0)")
	mustExec(t, db, "INSERT INTO t VALUES ('frac', 0.5)")
	mustExec(t, db, "INSERT INTO t VALUES ('zero', 0)")
	tbl, _ := db.Table("t")
	check := func(q, want string) {
		t.Helper()
		if got := fmt.Sprint(mustExec(t, db, q).Rows); got != want {
			t.Errorf("%s returned %s, want %s", q, got, want)
		}
		sel := MustParse(q).(*SelectStmt)
		if sel.Where == nil {
			return
		}
		var ref []Row
		tbl.Scan(func(_ int64, r Row) bool {
			ok, err := refEval(sel.Where, &tbl.Schema, r)
			if err != nil {
				t.Fatal(err)
			}
			if ok {
				ref = append(ref, r[:1])
			}
			return true
		})
		if got := fmt.Sprint(ref); got != want {
			t.Errorf("%s: the reference accepts %s, want %s", q, got, want)
		}
	}
	check(eq, "[[float]]")
	check(gt, "[[int]]")
	check(le, "[[float] [frac] [zero]]")
	check("SELECT a FROM t WHERE x < 1", "[[frac] [zero]]")
	check("SELECT a FROM t WHERE x > 0", "[[int] [float] [frac]]")
	check("SELECT a FROM t ORDER BY x", "[[zero] [frac] [float] [int]]")
	check("SELECT a FROM t ORDER BY x DESC", "[[int] [float] [frac] [zero]]")
	cases := []struct {
		i    int64
		f    float64
		want int
	}{
		{1<<62 + 1, 1 << 62, 1},
		{1 << 62, 1 << 62, 0},
		{1<<53 + 1, 1 << 53, 1},
		{math.MaxInt64, 1 << 63, -1},
		{math.MinInt64, -(1 << 63), 0},
		{math.MinInt64, -(1 << 63) * 2, 1},
		{2, 2.5, -1},
		{-2, -2.5, 1},
		{-3, -2.5, -1},
		{0, math.Copysign(0, -1), 0},
		{math.MaxInt64, math.Inf(1), -1},
		{math.MinInt64, math.Inf(-1), 1},
	}
	for _, c := range cases {
		if got := Compare(Int(c.i), Float(c.f)); got != c.want {
			t.Errorf("Compare(%d, %v) = %d, want %d", c.i, c.f, got, c.want)
		}
		if got := Compare(Float(c.f), Int(c.i)); got != -c.want {
			t.Errorf("Compare(%v, %d) = %d, want %d", c.f, c.i, got, -c.want)
		}
		if same := Int(c.i).Key() == Float(c.f).Key(); same != (c.want == 0) {
			t.Errorf("Key(%d) == Key(%v) is %v, Compare says %d", c.i, c.f, same, c.want)
		}
	}
}

// TestBindReportsWhatEvalWouldMeet: whenever the lazy reference errors on
// some row, bind errors — and it does so with no row at all.
func TestBindReportsWhatEvalWouldMeet(t *testing.T) {
	rng := rand.New(rand.NewSource(99))
	for n := 0; n < 500; n++ {
		e := genExpr(rng, 1+rng.Intn(3))
		bad := &CmpExpr{Col: "i", Op: "=", Val: Int(1)}
		if rng.Intn(2) == 0 {
			bad.Col = "nosuch"
		} else {
			bad.Op = "=="
		}
		if rng.Intn(2) == 0 {
			e = &OrExpr{L: e, R: bad}
		} else {
			e = &AndExpr{L: e, R: &NotExpr{E: bad}}
		}
		if _, err := e.bind(&evalSchema); err == nil {
			t.Fatalf("bind accepted %s", e)
		}
		if _, err := e.Eval(&evalSchema, genRow(rng)); err == nil {
			t.Fatalf("Eval accepted %s", e)
		}
	}
}

// orderDB is a table with few distinct keys — long runs of ties in every
// ORDER BY — and holes in its rowID sequence.
func orderDB(t *testing.T, rng *rand.Rand, rows int) *Database {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE r (k1 INT, k2 TEXT, v INT)")
	for i := 0; i < rows; i++ {
		k1 := fmt.Sprint(rng.Intn(4))
		if rng.Intn(10) == 0 {
			k1 = "NULL"
		}
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES (%s, 'g%d', %d)", k1, rng.Intn(3), i))
	}
	mustExec(t, db, fmt.Sprintf("DELETE FROM r WHERE v >= %d AND v < %d", rows/3, rows/3+rows/10))
	return db
}

// TestOrderByLimitEqualsStableSortThenTruncate: the SELECT pipeline against
// the definition — the matching rows in rowID order, stably sorted by the
// keys, then cut at LIMIT — on data where most comparisons tie.
func TestOrderByLimitEqualsStableSortThenTruncate(t *testing.T) {
	rng := rand.New(rand.NewSource(5))
	for round := 0; round < 6; round++ {
		db := orderDB(t, rng, 300+rng.Intn(600))
		tbl, _ := db.Table("r")
		for q := 0; q < 40; q++ {
			keys := [][]OrderKey{
				{{Col: "k1"}}, {{Col: "k1", Desc: true}}, {{Col: "k2", Desc: true}, {Col: "k1"}},
				{{Col: "k1", Desc: true}, {Col: "k2"}}, {{Col: "k1"}, {Col: "k2", Desc: true}},
			}[rng.Intn(5)]
			where := []string{"", "v >= 100", "k2 = 'g1'", "k1 != 2 OR k2 = 'g0'", "v < 50 AND k1 >= 1"}[rng.Intn(5)]
			limit := []int{-1, 0, 1, 7, 20, 10000}[rng.Intn(6)]
			var b strings.Builder
			b.WriteString("SELECT * FROM r")
			if where != "" {
				b.WriteString(" WHERE " + where)
			}
			b.WriteString(" ORDER BY ")
			for i, k := range keys {
				if i > 0 {
					b.WriteString(", ")
				}
				b.WriteString(k.Col)
				if k.Desc {
					b.WriteString(" DESC")
				}
			}
			if limit >= 0 {
				fmt.Fprintf(&b, " LIMIT %d", limit)
			}
			got := mustExec(t, db, b.String())

			var want []Row
			sel := MustParse(b.String()).(*SelectStmt)
			tbl.Scan(func(_ int64, r Row) bool {
				ok := true
				if sel.Where != nil {
					var err error
					if ok, err = refEval(sel.Where, &tbl.Schema, r); err != nil {
						t.Fatal(err)
					}
				}
				if ok {
					want = append(want, r)
				}
				return true
			})
			sort.SliceStable(want, func(i, j int) bool {
				for _, k := range keys {
					ci := tbl.Schema.ColIndex(k.Col)
					if c := Compare(want[i][ci], want[j][ci]); c != 0 {
						return (c < 0) != k.Desc
					}
				}
				return false
			})
			if limit >= 0 && len(want) > limit {
				want = want[:limit]
			}
			if len(got.Rows) != len(want) {
				t.Fatalf("%s: %d rows, want %d", b.String(), len(got.Rows), len(want))
			}
			for i := range want {
				if !reflect.DeepEqual(got.Rows[i], want[i]) {
					t.Fatalf("%s: row %d = %v, want %v", b.String(), i, got.Rows[i], want[i])
				}
			}
		}
	}
}

// TestResultRowsNeverAliasStorage: callers own their result rows
// (SecureDB.mask writes NULLs into them), so scribbling over a result must
// change nothing a later query sees — on every access path and select-list
// shape, and for a transaction reading its own working copy.
func TestResultRowsNeverAliasStorage(t *testing.T) {
	db := empDB(t)
	queries := []string{
		"SELECT * FROM emp",
		"SELECT * FROM emp WHERE salary >= 80 ORDER BY salary DESC LIMIT 3",
		"SELECT name, salary FROM emp WHERE dept = 'eng'",
		"SELECT * FROM emp WHERE id = 2",
		"SELECT * FROM emp WHERE name >= 'Bob' ORDER BY id",
	}
	scribble := func(res *Result) {
		for _, r := range res.Rows {
			for i := range r {
				r[i] = Str("scribbled")
			}
			_ = append(r, Str("appended")) // must not land in the next row
		}
	}
	txn := db.Begin()
	defer txn.Abort()
	if _, err := txn.Exec("UPDATE emp SET salary = 81 WHERE id = 3"); err != nil {
		t.Fatal(err)
	}
	for _, q := range queries {
		for _, exec := range []func(string) (*Result, error){db.Exec, txn.Exec} {
			first, err := exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			want := fmt.Sprint(first.Rows)
			scribble(first)
			again, err := exec(q)
			if err != nil {
				t.Fatalf("%s: %v", q, err)
			}
			if got := fmt.Sprint(again.Rows); got != want {
				t.Errorf("%s: after scribbling over the first result the query returns\n%s\nwant\n%s", q, got, want)
			}
		}
	}
}

// allocBytesPerRun is testing.AllocsPerRun for bytes.
func allocBytesPerRun(runs int, f func()) uint64 {
	defer runtime.GOMAXPROCS(runtime.GOMAXPROCS(1))
	f() // warm up
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	for i := 0; i < runs; i++ {
		f()
	}
	runtime.ReadMemStats(&after)
	return (after.TotalAlloc - before.TotalAlloc) / uint64(runs)
}

// TestScanAllocatesForTheResultOnly: a full-scan point SELECT allocates for
// the statement's bindings and its one result row — the same twelve objects
// over 5,000 rows as over 200, chunk keys built (by the warm-up run) and
// key tests included. (The map heap built and sorted an id slice per query:
// 40 KB here.)
func TestScanAllocatesForTheResultOnly(t *testing.T) {
	point := func(n int) (allocs float64, bytes uint64) {
		db := patientsDB(t, n)
		sel := MustParse(fmt.Sprintf(
			"SELECT name, age FROM patients WHERE name = 'person-%06d' AND age >= 0", n/2)).(*SelectStmt)
		run := func() {
			if res, err := db.ExecStmt(sel); err != nil || len(res.Rows) != 1 {
				t.Fatalf("rows %v, err %v", res, err)
			}
		}
		return testing.AllocsPerRun(50, run), allocBytesPerRun(50, run)
	}
	smallAllocs, smallBytes := point(200)
	allocs, bytes := point(5000)
	if allocs != smallAllocs || allocs > 12 {
		t.Errorf("point SELECT: %v allocations over 5,000 rows, %v over 200; want equal and at most 12", allocs, smallAllocs)
	}
	if bytes > smallBytes+64 || bytes > 2048 {
		t.Errorf("point SELECT: %d B over 5,000 rows, %d B over 200; want equal and under 2 KiB", bytes, smallBytes)
	}
}

// TestOneRowCommitCopiesOneChunk: an autocommit single-row UPDATE of a
// 5,000-row table — clone, write, freeze, install — allocates one chunk
// and small change, not a copy of the table (320 KB for the map heap).
func TestOneRowCommitCopiesOneChunk(t *testing.T) {
	db := patientsDB(t, 5000)
	n := 0
	bytes := allocBytesPerRun(50, func() {
		n++
		res, err := db.Exec(fmt.Sprintf("UPDATE patients SET zip = '%05d' WHERE name = 'person-002500'", n))
		if err != nil || res.Affected != 1 {
			t.Fatalf("affected %v, err %v", res, err)
		}
	})
	if bytes >= 32<<10 {
		t.Errorf("single-row UPDATE commit allocates %d B, want < 32 KiB", bytes)
	}
}
