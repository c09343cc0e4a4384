package reldb

import "testing"

func empDB(t *testing.T) *Database { return loadEmp(t, NewDatabase()) }

// loadEmp creates and fills the emp table in db.
func loadEmp(t *testing.T, db *Database) *Database {
	t.Helper()
	mustExec(t, db, "CREATE TABLE emp (id INT, name TEXT, dept TEXT, salary INT)")
	rows := []string{
		"(1, 'Ada', 'eng', 120)",
		"(2, 'Bob', 'eng', 90)",
		"(3, 'Cyd', 'hr', 80)",
		"(4, 'Dee', 'hr', 85)",
		"(5, 'Eli', 'ops', 70)",
	}
	for _, r := range rows {
		mustExec(t, db, "INSERT INTO emp VALUES "+r)
	}
	return db
}

func mustExec(t *testing.T, db *Database, src string) *Result {
	t.Helper()
	res, err := db.Exec(src)
	if err != nil {
		t.Fatalf("%s: %v", src, err)
	}
	return res
}

func TestCreateInsertSelect(t *testing.T) {
	db := empDB(t)
	res := mustExec(t, db, "SELECT * FROM emp")
	if len(res.Rows) != 5 || len(res.Columns) != 4 {
		t.Fatalf("rows=%d cols=%d", len(res.Rows), len(res.Columns))
	}
}

func TestSelectWhereProjection(t *testing.T) {
	db := empDB(t)
	res := mustExec(t, db, "SELECT name FROM emp WHERE dept = 'eng' AND salary > 100")
	if len(res.Rows) != 1 || res.Rows[0][0] != Str("Ada") {
		t.Fatalf("rows = %v", res.Rows)
	}
	if len(res.Columns) != 1 || res.Columns[0] != "name" {
		t.Errorf("columns = %v", res.Columns)
	}
}

func TestSelectOrderLimit(t *testing.T) {
	db := empDB(t)
	res := mustExec(t, db, "SELECT name, salary FROM emp ORDER BY salary DESC LIMIT 2")
	if len(res.Rows) != 2 || res.Rows[0][0] != Str("Ada") || res.Rows[1][0] != Str("Bob") {
		t.Fatalf("rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT name FROM emp ORDER BY salary LIMIT 1")
	if res.Rows[0][0] != Str("Eli") {
		t.Fatalf("asc order wrong: %v", res.Rows)
	}
}

func TestUpdateAndDelete(t *testing.T) {
	db := empDB(t)
	res := mustExec(t, db, "UPDATE emp SET salary = 95 WHERE name = 'Bob'")
	if res.Affected != 1 {
		t.Fatalf("affected = %d", res.Affected)
	}
	res = mustExec(t, db, "SELECT salary FROM emp WHERE name = 'Bob'")
	if res.Rows[0][0] != Int(95) {
		t.Errorf("salary = %v", res.Rows[0][0])
	}
	res = mustExec(t, db, "DELETE FROM emp WHERE dept = 'hr'")
	if res.Affected != 2 {
		t.Fatalf("deleted = %d", res.Affected)
	}
	res = mustExec(t, db, "SELECT * FROM emp")
	if len(res.Rows) != 3 {
		t.Errorf("remaining = %d", len(res.Rows))
	}
}

// TestIndexMaintainedAcrossDML: the chunk keys a predicate scan narrows
// with follow the rows. Keys built by a scan before a write are carried
// into the writer's copy of the chunk and updated there, so the scans after
// UPDATE and DELETE see the new values and not the old ones.
func TestIndexMaintainedAcrossDML(t *testing.T) {
	db := empDB(t)
	if res := mustExec(t, db, "SELECT name FROM emp WHERE dept = 'hr'"); len(res.Rows) != 2 {
		t.Fatalf("hr rows before the update = %v", res.Rows)
	}
	mustExec(t, db, "UPDATE emp SET dept = 'ops' WHERE name = 'Cyd'")
	res := mustExec(t, db, "SELECT name FROM emp WHERE dept = 'ops' ORDER BY name")
	if len(res.Rows) != 2 {
		t.Fatalf("ops rows = %v", res.Rows)
	}
	res = mustExec(t, db, "SELECT name FROM emp WHERE dept = 'hr'")
	if len(res.Rows) != 1 {
		t.Fatalf("hr rows = %v", res.Rows)
	}
	mustExec(t, db, "DELETE FROM emp WHERE dept = 'ops'")
	res = mustExec(t, db, "SELECT name FROM emp WHERE dept = 'ops'")
	if len(res.Rows) != 0 {
		t.Errorf("deleted rows still match = %v", res.Rows)
	}
}

func TestErrors(t *testing.T) {
	db := empDB(t)
	mustExec(t, db, "CREATE TABLE empty (a INT)")
	for _, src := range []string{
		"CREATE TABLE emp (x INT)",                  // duplicate
		"SELECT * FROM ghost",                       // unknown table
		"SELECT ghostcol FROM emp",                  // unknown column
		"SELECT * FROM emp WHERE ghost = 1",         // unknown column in where
		"SELECT * FROM emp ORDER BY ghost",          // unknown order col
		"INSERT INTO emp VALUES (1, 'x')",           // arity
		"INSERT INTO emp VALUES ('x', 1, 'y', 'z')", // kinds
		"UPDATE emp SET ghost = 1",                  // unknown set col
		"CREATE TABLE dup (a INT, a TEXT)",          // column named twice
		"UPDATE emp SET salary = 1, salary = 2",     // column assigned twice
		// Names are resolved before any row is read, so the verdict cannot
		// depend on what the table holds: not on its being empty, and not on
		// whether some row gets past the left arm of an OR.
		"SELECT * FROM empty WHERE ghost = 1",
		"SELECT * FROM empty ORDER BY ghost",
		"SELECT ghost FROM empty",
		"UPDATE empty SET ghost = 1",
		"UPDATE empty SET a = 1 WHERE ghost = 1",
		"DELETE FROM empty WHERE ghost = 1",
		"SELECT * FROM emp WHERE id > 0 OR ghost = 2",
		"SELECT * FROM emp WHERE id < 0 AND ghost = 2",
		"DELETE FROM emp WHERE id > 0 OR ghost = 2",
	} {
		if _, err := db.Exec(src); err == nil {
			t.Errorf("%s: want error", src)
		}
	}
}

func TestTablesListing(t *testing.T) {
	db := empDB(t)
	mustExec(t, db, "CREATE TABLE zz (a INT)")
	got := db.Tables()
	if len(got) != 2 || got[0] != "emp" || got[1] != "zz" {
		t.Errorf("Tables = %v", got)
	}
}

// TestFloatIntHashEquality: an INT stored in a FLOAT column equals the
// FLOAT literal of its value, whether the literal is the FLOAT or the INT.
func TestFloatIntHashEquality(t *testing.T) {
	db := NewDatabase()
	mustExec(t, db, "CREATE TABLE m (v FLOAT)")
	mustExec(t, db, "INSERT INTO m VALUES (1)") // int into float column
	for _, q := range []string{"SELECT * FROM m WHERE v = 1.0", "SELECT * FROM m WHERE v = 1"} {
		if res := mustExec(t, db, q); len(res.Rows) != 1 {
			t.Errorf("%s: int/float equality broken: %v", q, res.Rows)
		}
	}
}

// TestDuplicateColumnsRefused: a schema naming a column twice would leave
// every column after the first of that name unreadable, since names resolve
// to the first. CREATE TABLE refuses it and creates nothing, and redo
// refuses a CreateTable record carrying it, as it does an empty schema.
func TestDuplicateColumnsRefused(t *testing.T) {
	db := NewDatabase()
	if _, err := db.Exec("CREATE TABLE t (a INT, b TEXT, a TEXT)"); err == nil {
		t.Fatal("CREATE TABLE accepted a column named twice")
	}
	if tables := db.Tables(); len(tables) != 0 {
		t.Fatalf("refused CREATE TABLE left tables %v", tables)
	}
	for _, schema := range []Schema{
		{Columns: []Column{{"a", KindInt}, {"a", KindString}}},
		{},
	} {
		rec := &LogRecord{LSN: 1, Op: OpCreateTable, Table: "t", Schema: &schema}
		if err := redo(newTableStage(nil), rec); err == nil {
			t.Errorf("redo accepted CreateTable with columns %v", schema.Columns)
		}
	}
}
