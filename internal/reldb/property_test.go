package reldb

import (
	"fmt"
	"math/rand"
	"reflect"
	"sort"
	"strings"
	"sync"
	"sync/atomic"
	"testing"
	"testing/quick"

	"webdbsec/internal/policy"
	"webdbsec/internal/resilience/faultinject"
	"webdbsec/internal/sysr"
)

// randomTable builds a table with random rows; deterministic in seed.
func randomTable(t *testing.T, seed int64, rows int) *Database {
	return loadRandomTable(t, NewDatabase(), seed, rows)
}

func loadRandomTable(t *testing.T, db *Database, seed int64, rows int) *Database {
	t.Helper()
	rng := rand.New(rand.NewSource(seed))
	mustExec(t, db, "CREATE TABLE r (k INT, cat TEXT, v INT)")
	for i := 0; i < rows; i++ {
		mustExec(t, db, fmt.Sprintf("INSERT INTO r VALUES (%d, 'c%d', %d)",
			rng.Intn(100), rng.Intn(10), rng.Intn(1000)))
	}
	return db
}

func TestQuickAbortIsIdentity(t *testing.T) {
	// A random batch of DML inside an aborted transaction leaves the
	// database byte-identical.
	f := func(seed int64) bool {
		db := randomTable(t, seed, 100)
		before, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		rng := rand.New(rand.NewSource(seed ^ 0xdef))
		txn := db.Begin()
		for i := 0; i < 10; i++ {
			var stmt string
			switch rng.Intn(3) {
			case 0:
				stmt = fmt.Sprintf("INSERT INTO r VALUES (%d, 'cX', %d)", rng.Intn(100), rng.Intn(1000))
			case 1:
				stmt = fmt.Sprintf("UPDATE r SET v = %d WHERE k = %d", rng.Intn(1000), rng.Intn(100))
			default:
				stmt = fmt.Sprintf("DELETE FROM r WHERE k = %d", rng.Intn(100))
			}
			if _, err := txn.Exec(stmt); err != nil {
				txn.Abort()
				return false
			}
		}
		txn.Abort()
		after, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		return fmt.Sprint(before.Rows) == fmt.Sprint(after.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Error(err)
	}
}

func TestQuickRecoverEqualsLiveState(t *testing.T) {
	// After an arbitrary committed history, crash recovery of the WAL
	// reproduces the live table contents exactly.
	f := func(seed int64) bool {
		fs := faultinject.NewMemFS()
		db := loadRandomTable(t, openDurable(t, fs), seed, 50)
		rng := rand.New(rand.NewSource(seed ^ 0x123))
		for i := 0; i < 15; i++ {
			txn := db.Begin()
			stmt := fmt.Sprintf("UPDATE r SET v = %d WHERE k = %d", rng.Intn(1000), rng.Intn(100))
			if rng.Intn(2) == 0 {
				stmt = fmt.Sprintf("DELETE FROM r WHERE k = %d", rng.Intn(100))
			}
			if _, err := txn.Exec(stmt); err != nil {
				txn.Abort()
				continue
			}
			if rng.Intn(4) == 0 {
				txn.Abort()
			} else if err := txn.Commit(); err != nil {
				return false
			}
		}
		live, err := db.Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		recovered, err := recoverCrashed(t, fs).Exec("SELECT * FROM r ORDER BY k, cat, v")
		if err != nil {
			return false
		}
		return fmt.Sprint(live.Rows) == fmt.Sprint(recovered.Rows)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 15}); err != nil {
		t.Error(err)
	}
}

func TestQuickParserNeverPanics(t *testing.T) {
	// The parser must reject or accept arbitrary byte soup without
	// panicking — it fronts a network service.
	f := func(src string) (ok bool) {
		defer func() {
			if r := recover(); r != nil {
				t.Logf("parser panicked on %q: %v", src, r)
				ok = false
			}
		}()
		Parse(src)
		Parse("SELECT " + src + " FROM t")
		Parse("SELECT * FROM t WHERE " + src)
		Parse("SELECT COUNT(" + src + ") FROM t")
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 300}); err != nil {
		t.Error(err)
	}
}

// foldRef is the aggregate oracle: a brute-force fold, group by group and
// aggregate by aggregate, over rows a SELECT * returned (columns cols).
func foldRef(cols []string, rows []Row, aggs []AggExpr, groupBy string) []Row {
	at := func(name string) int {
		for i, c := range cols {
			if c == name {
				return i
			}
		}
		return -1
	}
	var keys []Value
	if groupBy == "" {
		keys = []Value{Null()}
	}
	member := func(r Row, key Value) bool {
		if groupBy == "" {
			return true
		}
		v := r[at(groupBy)]
		return v.IsNull() && key.IsNull() || Equal(v, key)
	}
	for _, r := range rows {
		seen := false
		for _, k := range keys {
			seen = seen || member(r, k)
		}
		if !seen {
			keys = append(keys, r[at(groupBy)])
		}
	}
	sort.Slice(keys, func(i, j int) bool { return keys[i].Key() < keys[j].Key() })
	var out []Row
	for _, key := range keys {
		var row Row
		if groupBy != "" {
			row = append(row, key)
		}
		for _, a := range aggs {
			var vals []Value // the aggregate's non-NULL inputs in this group
			n := 0           // the group's rows
			for _, r := range rows {
				if !member(r, key) {
					continue
				}
				n++
				if a.Col != "*" && !r[at(a.Col)].IsNull() {
					vals = append(vals, r[at(a.Col)])
				}
			}
			sum := 0.0
			lo, hi := Null(), Null()
			for i, v := range vals {
				f, _ := v.asFloat()
				sum += f
				if i == 0 || Compare(v, lo) < 0 {
					lo = v
				}
				if i == 0 || Compare(v, hi) > 0 {
					hi = v
				}
			}
			switch {
			case a.Col == "*":
				row = append(row, Int(int64(n)))
			case a.Func == AggCount:
				row = append(row, Int(int64(len(vals))))
			case len(vals) == 0:
				row = append(row, Null())
			case a.Func == AggSum:
				row = append(row, Float(sum))
			case a.Func == AggAvg:
				row = append(row, Float(sum/float64(len(vals))))
			case a.Func == AggMin:
				row = append(row, lo)
			default:
				row = append(row, hi)
			}
		}
		out = append(out, row)
	}
	return out
}

// TestQuickAggregatesConsistentWithRows is the differential aggregate
// oracle: for seeded tables, row policies, column policies and subjects,
// SecureDB.Exec of an aggregate equals a brute-force fold over what
// SecureDB.Exec of SELECT * with the same predicate shows the same subject —
// the aggregate is computed over the subject's view and nothing else.
// COUNT/SUM/AVG/MIN/MAX, with and without GROUP BY, the grouped and the
// aggregated columns hidden and not, key-narrowed scans and full ones.
func TestQuickAggregatesConsistentWithRows(t *testing.T) {
	cols := []string{"g", "k", "x", "y", "s"}
	numeric := []string{"k", "x", "y"}
	subjects := []*policy.Subject{
		{ID: "u1", Roles: []string{"r1"}},
		{ID: "u2", Roles: []string{"r2"}},
		{ID: "u3", Roles: []string{"r1", "r2"}},
		{ID: "dba"}, // owner, no role: an empty view once the table has a row policy
	}
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		pick := func(from []string) string { return from[rng.Intn(len(from))] }
		lit := func(v string) string {
			if rng.Intn(6) == 0 {
				return "NULL"
			}
			return v
		}
		pred := func() string {
			switch rng.Intn(5) {
			case 0:
				return fmt.Sprintf("g = 'g%d'", rng.Intn(5))
			case 1:
				return fmt.Sprintf("x >= %d", rng.Intn(50))
			case 2:
				return fmt.Sprintf("k < %d OR y > %d.5", rng.Intn(8), rng.Intn(40))
			case 3:
				return fmt.Sprintf("NOT (s = 's%d') AND x != %d", rng.Intn(4), rng.Intn(50))
			}
			return "k >= 0"
		}
		sdb := NewSecureDB(NewDatabase(), nil)
		dba := subjects[3]
		mustNoErr(t, sdb.CreateTable(dba, "CREATE TABLE m (g TEXT, k INT, x INT, y FLOAT, s TEXT)"))
		for i := 0; i < 60; i++ {
			_, err := sdb.Exec(dba, fmt.Sprintf("INSERT INTO m VALUES (%s, %s, %s, %s, %s)",
				lit(fmt.Sprintf("'g%d'", rng.Intn(4))), lit(fmt.Sprint(rng.Intn(8))), lit(fmt.Sprint(rng.Intn(50)-10)),
				lit(fmt.Sprintf("%d.25", rng.Intn(40))), lit(fmt.Sprintf("'s%d'", rng.Intn(4)))))
			mustNoErr(t, err)
		}
		for _, s := range subjects[:3] {
			mustNoErr(t, sdb.Grants().Grant("dba", s.ID, sysr.Select, "m", false))
		}
		for _, role := range []string{"r1", "r2"} {
			if rng.Intn(3) > 0 {
				mustNoErr(t, sdb.AddRowPolicy(&RowPolicy{Name: "rows-" + role, Table: "m",
					Subject: policy.SubjectSpec{Roles: []string{role}},
					Pred:    MustParse("SELECT * FROM m WHERE " + pred()).(*SelectStmt).Where}))
			}
			if rng.Intn(3) > 0 {
				mustNoErr(t, sdb.AddColPolicy(&ColPolicy{Name: "cols-" + role, Table: "m",
					Subject: policy.SubjectSpec{Roles: []string{role}},
					Columns: []string{pick(cols), pick(cols)}}))
			}
		}
		for q := 0; q < 12; q++ {
			var aggs []AggExpr
			for i := rng.Intn(4) + 1; i > 0; i-- {
				switch fn := []AggFunc{AggCount, AggSum, AggAvg, AggMin, AggMax}[rng.Intn(5)]; {
				case fn == AggCount && rng.Intn(2) == 0:
					aggs = append(aggs, AggExpr{fn, "*"})
				case fn == AggSum || fn == AggAvg:
					aggs = append(aggs, AggExpr{fn, pick(numeric)})
				default:
					aggs = append(aggs, AggExpr{fn, pick(cols)})
				}
			}
			list := make([]string, len(aggs))
			for i, a := range aggs {
				list[i] = a.String()
			}
			where, groupBy, tail := pred(), "", ""
			if rng.Intn(3) > 0 {
				groupBy = pick(cols)
				tail = " GROUP BY " + groupBy
			}
			agg := fmt.Sprintf("SELECT %s FROM m WHERE %s%s", strings.Join(list, ", "), where, tail)
			for _, s := range subjects {
				view, err := sdb.Exec(s, "SELECT * FROM m WHERE "+where)
				if err != nil {
					t.Logf("seed %d: %s: view: %v", seed, s.ID, err)
					return false
				}
				got, err := sdb.Exec(s, agg)
				if err != nil {
					t.Logf("seed %d: %s: %q: %v", seed, s.ID, agg, err)
					return false
				}
				if want := foldRef(cols, view.Rows, aggs, groupBy); fmt.Sprint(got.Rows) != fmt.Sprint(want) {
					t.Logf("seed %d: %s: %q over %d visible rows\n got  %v\n want %v", seed, s.ID, agg, len(view.Rows), got.Rows, want)
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 40}); err != nil {
		t.Error(err)
	}
}

// --- Row store model test ---

// modelTable pairs a table with the map it must behave like and the rowIDs
// its lineage has ever handed out.
type modelTable struct {
	t    *Table
	ref  map[int64]Row
	used map[int64]bool
}

func (m *modelTable) fork() *modelTable {
	c := &modelTable{t: m.t.clone(), ref: make(map[int64]Row, len(m.ref)), used: make(map[int64]bool, len(m.used))}
	for id, r := range m.ref {
		c.ref[id] = r
	}
	for id := range m.used {
		c.used[id] = true
	}
	return c
}

// check compares every read path of the table with the reference map.
func (m *modelTable) check(t *testing.T, desc string) {
	t.Helper()
	if m.t.Len() != len(m.ref) {
		t.Fatalf("%s: Len %d, want %d", desc, m.t.Len(), len(m.ref))
	}
	last, seen := int64(-1), 0
	m.t.Scan(func(id int64, r Row) bool {
		if id <= last {
			t.Fatalf("%s: Scan went from id %d to %d", desc, last, id)
		}
		last = id
		want, ok := m.ref[id]
		if !ok || !reflect.DeepEqual(r, want) {
			t.Fatalf("%s: Scan row %d = %v, want %v (present %v)", desc, id, r, want, ok)
		}
		seen++
		return true
	})
	if seen != len(m.ref) {
		t.Fatalf("%s: Scan visited %d rows, want %d", desc, seen, len(m.ref))
	}
	for id := int64(-2); id <= m.t.nextID+2*chunkSize; id++ {
		got, ok := m.t.Get(id)
		if want, exists := m.ref[id]; ok != exists || (ok && !reflect.DeepEqual(got, want)) {
			t.Fatalf("%s: Get(%d) = %v, %v; want %v, %v", desc, id, got, ok, want, exists)
		}
	}
	for id := range m.used {
		if id > m.t.nextID {
			t.Fatalf("%s: nextID %d is below issued id %d", desc, m.t.nextID, id)
		}
	}
}

func mustPanic(t *testing.T, desc string, fn func()) {
	t.Helper()
	defer func() {
		if recover() == nil {
			t.Fatalf("%s: no panic", desc)
		}
	}()
	fn()
}

// TestRowStoreModel drives random Insert/insertAt/Update/Delete/clone/freeze
// sequences against a map reference. Working copies fork off ANY frozen
// version, not just the newest, so siblings share chunks; at the end every
// frozen version must still equal its own reference — no descendant's write
// may have reached a chunk an ancestor still holds.
func TestRowStoreModel(t *testing.T) {
	schema := Schema{Columns: []Column{{"k", KindInt}, {"s", KindString}}}
	for seed := int64(1); seed <= 12; seed++ {
		rng := rand.New(rand.NewSource(seed))
		newRow := func() Row { return Row{Int(rng.Int63n(1000)), Str(fmt.Sprint("s", rng.Intn(50)))} }
		liveID := func(m *modelTable) (int64, bool) {
			if len(m.ref) == 0 {
				return 0, false
			}
			n := rng.Intn(len(m.ref))
			for id := range m.ref {
				if n == 0 {
					return id, true
				}
				n--
			}
			panic("unreachable")
		}
		cur := &modelTable{t: NewTable("m", schema), ref: map[int64]Row{}, used: map[int64]bool{}}
		var frozen []*modelTable
		for step := 0; step < 1500; step++ {
			desc := fmt.Sprintf("seed %d step %d", seed, step)
			switch op := rng.Intn(100); {
			case op < 45:
				r := newRow()
				id, err := cur.t.Insert(r)
				if err != nil {
					t.Fatalf("%s: Insert: %v", desc, err)
				}
				if cur.used[id] {
					t.Fatalf("%s: Insert reused rowID %d", desc, id)
				}
				cur.ref[id], cur.used[id] = r.Clone(), true
				r[0] = Int(-1) // the table must have stored its own copy
			case op < 50:
				// The checkpoint-restore path: an id of the snapshot's choosing, possibly chunks ahead.
				id := cur.t.nextID + 1 + rng.Int63n(3*chunkSize)
				r := newRow()
				cur.t.insertAt(id, r)
				cur.ref[id], cur.used[id] = r, true
			case op < 65:
				if id, ok := liveID(cur); ok {
					r := newRow()
					old, err := cur.t.Update(id, r)
					if err != nil || !reflect.DeepEqual(old, cur.ref[id]) {
						t.Fatalf("%s: Update(%d) = %v, %v; want old %v", desc, id, old, err, cur.ref[id])
					}
					cur.ref[id] = r
				}
			case op < 80:
				if id, ok := liveID(cur); ok {
					old, err := cur.t.Delete(id)
					if err != nil || !reflect.DeepEqual(old, cur.ref[id]) {
						t.Fatalf("%s: Delete(%d) = %v, %v; want old %v", desc, id, old, err, cur.ref[id])
					}
					delete(cur.ref, id)
					if _, err := cur.t.Delete(id); err == nil {
						t.Fatalf("%s: second Delete(%d) succeeded", desc, id)
					}
					if _, err := cur.t.Update(id, newRow()); err == nil {
						t.Fatalf("%s: Update of deleted row %d succeeded", desc, id)
					}
				}
			case op < 84:
				// Empty one whole chunk, so it is dropped from the vector.
				if id, ok := liveID(cur); ok {
					base := id &^ slotMask
					for id := base; id < base+chunkSize; id++ {
						if _, ok := cur.ref[id]; ok {
							if _, err := cur.t.Delete(id); err != nil {
								t.Fatalf("%s: Delete(%d): %v", desc, id, err)
							}
							delete(cur.ref, id)
						}
					}
				}
			case op < 94:
				// Commit: freeze, then continue on a fork of a random version.
				mustPanic(t, desc+": clone of unfrozen table", func() { cur.t.clone() })
				cur.t.freeze()
				frozen = append(frozen, cur)
				cur = frozen[rng.Intn(len(frozen))].fork()
			case op < 97:
				// Checkpoint round trip.
				snap := cur.t.snapshot()
				restored, err := snap.restore()
				if err != nil {
					t.Fatalf("%s: restore: %v", desc, err)
				}
				if restored.nextID != cur.t.nextID {
					t.Fatalf("%s: restored nextID %d, want %d", desc, restored.nextID, cur.t.nextID)
				}
				(&modelTable{t: restored, ref: cur.ref, used: cur.used}).check(t, desc+": restored")
			default:
				cur.check(t, desc)
			}
		}
		cur.check(t, fmt.Sprintf("seed %d: final working copy", seed))
		for i, f := range frozen {
			f.check(t, fmt.Sprintf("seed %d: frozen version %d of %d", seed, i, len(frozen)))
		}
		f := frozen[0]
		mustPanic(t, "Insert into frozen table", func() { f.t.Insert(newRow()) })
		mustPanic(t, "insertAt into frozen table", func() { f.t.insertAt(f.t.nextID+1, newRow()) })
		mustPanic(t, "Update of frozen table", func() { f.t.Update(1, newRow()) })
		mustPanic(t, "Delete from frozen table", func() { f.t.Delete(1) })
	}
}

// TestFrozenVersionReadableWhileCloneCommits: readers scan a frozen version
// — and whatever version is newest — while a writer keeps cloning the
// newest one, writing into chunks it shares with all of them, and
// committing. Run under -race: a write that reached a shared chunk in
// place is a data race with the readers here, besides breaking what they
// check.
func TestFrozenVersionReadableWhileCloneCommits(t *testing.T) {
	const rows = 4 * chunkSize
	base := NewTable("m", Schema{Columns: []Column{{"k", KindInt}, {"gen", KindInt}}})
	for i := 1; i <= rows; i++ {
		base.insertAt(int64(i), Row{Int(int64(i)), Int(0)})
	}
	base.freeze()
	var newest atomic.Pointer[Table]
	newest.Store(base)

	stop := make(chan struct{})
	var wg sync.WaitGroup
	for r := 0; r < 3; r++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			for {
				select {
				case <-stop:
					return
				default:
				}
				n := 0
				base.Scan(func(id int64, r Row) bool {
					n++
					if r[0].I != id || r[1].I != 0 {
						t.Errorf("frozen base changed: row %d = %v", id, r)
						return false
					}
					return true
				})
				if n != rows {
					t.Errorf("frozen base has %d rows, want %d", n, rows)
				}
				cur, last, n := newest.Load(), int64(0), 0
				cur.Scan(func(id int64, r Row) bool {
					if id <= last {
						t.Errorf("scan went from id %d to %d", last, id)
					}
					last = id
					n++
					return true
				})
				if n != cur.Len() {
					t.Errorf("scan saw %d rows, Len says %d", n, cur.Len())
				}
			}
		}()
	}
	rng := rand.New(rand.NewSource(7))
	for gen := int64(1); gen <= 400; gen++ {
		w := newest.Load().clone()
		for i := 0; i < 3; i++ {
			id := 1 + rng.Int63n(rows)
			if _, ok := w.Get(id); ok && rng.Intn(4) == 0 {
				if _, err := w.Delete(id); err != nil {
					t.Fatal(err)
				}
			} else if ok {
				if _, err := w.Update(id, Row{Int(id), Int(gen)}); err != nil {
					t.Fatal(err)
				}
			}
		}
		if _, err := w.Insert(Row{Int(-gen), Int(gen)}); err != nil {
			t.Fatal(err)
		}
		newest.Store(w.freeze())
	}
	close(stop)
	wg.Wait()
}
