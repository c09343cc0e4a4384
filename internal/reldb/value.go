// Package reldb is the relational substrate: an in-memory web database
// engine with a SQL subset, transactions, key-narrowed scans, a recovery
// log, a metadata catalog, and — the reason it exists in this repository —
// security hooks in every function the paper says needs them (§2.1, §3.1):
// query processing that "take[s] into consideration the access control
// policies", transaction management that ensures "integrity as well as
// security constraints are satisfied", the auction ("open bid") transaction
// model, and metadata that "includes security policies".
package reldb

import (
	"cmp"
	"fmt"
	"strconv"
	"strings"
)

// Kind is the type of a Value.
type Kind int

// Value kinds.
const (
	KindNull Kind = iota
	KindInt
	KindFloat
	KindString
	KindBool
)

func (k Kind) String() string {
	switch k {
	case KindNull:
		return "NULL"
	case KindInt:
		return "INT"
	case KindFloat:
		return "FLOAT"
	case KindString:
		return "TEXT"
	case KindBool:
		return "BOOL"
	}
	return fmt.Sprintf("Kind(%d)", int(k))
}

// Value is a typed SQL value.
type Value struct {
	Kind Kind
	I    int64
	F    float64
	S    string
	B    bool
}

// Null, Int, Float, Str and Bool construct values.
func Null() Value           { return Value{Kind: KindNull} }
func Int(i int64) Value     { return Value{Kind: KindInt, I: i} }
func Float(f float64) Value { return Value{Kind: KindFloat, F: f} }
func Str(s string) Value    { return Value{Kind: KindString, S: s} }
func Bool(b bool) Value     { return Value{Kind: KindBool, B: b} }

// IsNull reports whether the value is NULL.
func (v Value) IsNull() bool { return v.Kind == KindNull }

func (v Value) String() string {
	switch v.Kind {
	case KindNull:
		return "NULL"
	case KindInt:
		return strconv.FormatInt(v.I, 10)
	case KindFloat:
		return strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return v.S
	case KindBool:
		if v.B {
			return "true"
		}
		return "false"
	}
	return "?"
}

// asFloat coerces numeric values to float64 (SUM and AVG fold in it).
func (v Value) asFloat() (float64, bool) {
	switch v.Kind {
	case KindInt:
		return float64(v.I), true
	case KindFloat:
		return v.F, true
	}
	return 0, false
}

// Every int64 lies in [-2⁶³, 2⁶³), and both bounds are exact float64s.
const (
	minInt64Float = -(1 << 63)
	maxInt64Float = 1 << 63 // the first float64 above every int64
)

// intOf reports the int64 a float64 equals, if it equals one.
func intOf(f float64) (int64, bool) {
	if f >= minInt64Float && f < maxInt64Float && f == float64(int64(f)) {
		return int64(f), true
	}
	return 0, false
}

// compareIntFloat orders an INT against a FLOAT exactly. float64(i) would
// round every INT above 2⁵³ onto a neighbour, calling 2⁶² + 1 equal to
// 2⁶².0 while Key (and so GROUP BY) keeps them apart. NaN compares equal to
// everything, as it did through float64.
func compareIntFloat(i int64, f float64) int {
	switch {
	case f != f:
		return 0
	case f < minInt64Float:
		return 1
	case f >= maxInt64Float:
		return -1
	}
	// f is in int64 range: truncate it, compare the integer parts, and let
	// the fraction (exact: f - trunc(f) loses no bits) break a tie.
	t := int64(f)
	if c := cmp.Compare(i, t); c != 0 {
		return c
	}
	return -cmp.Compare(f-float64(t), 0)
}

// Compare orders two values: -1, 0 or +1. NULL sorts first; INTs and FLOATs
// compare by their exact numeric values (as Key keys them),
// never by rounding an INT to float64; mismatched non-numeric kinds compare
// by kind. The boolean false sorts before true.
func Compare(a, b Value) int { return compareTo(&a, &b) }

// compareTo is Compare without copying its operands — the form the
// per-row paths (bound predicates, ORDER BY) call.
func compareTo(a, b *Value) int {
	if a.Kind == KindNull || b.Kind == KindNull {
		switch {
		case a.Kind == b.Kind:
			return 0
		case a.Kind == KindNull:
			return -1
		default:
			return 1
		}
	}
	switch {
	case a.Kind == KindInt && b.Kind == KindInt:
		return cmp.Compare(a.I, b.I)
	case a.Kind == KindInt && b.Kind == KindFloat:
		return compareIntFloat(a.I, b.F)
	case a.Kind == KindFloat && b.Kind == KindInt:
		return -compareIntFloat(b.I, a.F)
	case a.Kind == KindFloat && b.Kind == KindFloat:
		switch {
		case a.F < b.F:
			return -1
		case a.F > b.F:
			return 1
		}
		return 0
	}
	if a.Kind != b.Kind {
		if a.Kind < b.Kind {
			return -1
		}
		return 1
	}
	switch a.Kind {
	case KindString:
		return strings.Compare(a.S, b.S)
	case KindBool:
		switch {
		case a.B == b.B:
			return 0
		case !a.B:
			return -1
		default:
			return 1
		}
	}
	return 0
}

// Equal reports value equality under Compare semantics, except that NULL
// never equals anything (SQL three-valued logic collapsed to false).
func Equal(a, b Value) bool {
	if a.IsNull() || b.IsNull() {
		return false
	}
	return Compare(a, b) == 0
}

// Key returns a map key string for hash indexing.
func (v Value) Key() string {
	switch v.Kind {
	case KindNull:
		return "\x00"
	case KindInt:
		return "i" + strconv.FormatInt(v.I, 10)
	case KindFloat:
		// Normalize floats equal to an int64 onto the int keyspace so 1 and
		// 1.0 hash together, matching Compare.
		if i, ok := intOf(v.F); ok {
			return "i" + strconv.FormatInt(i, 10)
		}
		return "f" + strconv.FormatFloat(v.F, 'g', -1, 64)
	case KindString:
		return "s" + v.S
	case KindBool:
		if v.B {
			return "b1"
		}
		return "b0"
	}
	return "?"
}

// Row is one tuple.
type Row []Value

// Clone deep-copies a row.
func (r Row) Clone() Row {
	out := make(Row, len(r))
	copy(out, r)
	return out
}

// Column describes one attribute of a table schema.
type Column struct {
	Name string
	Kind Kind
}

// Schema is an ordered column list.
type Schema struct {
	Columns []Column
}

// ColIndex returns the position of a column by name, or -1.
func (s *Schema) ColIndex(name string) int {
	for i, c := range s.Columns {
		if c.Name == name {
			return i
		}
	}
	return -1
}

// check refuses a schema no table may have: one without columns, or one
// naming a column twice (ColIndex would only ever find the first).
func (s *Schema) check(table string) error {
	if len(s.Columns) == 0 {
		return fmt.Errorf("reldb: table %s needs at least one column", table)
	}
	for i, c := range s.Columns {
		if s.ColIndex(c.Name) != i {
			return fmt.Errorf("reldb: table %s names column %s twice", table, c.Name)
		}
	}
	return nil
}

// CheckRow validates a row's arity and kinds (NULL is accepted anywhere;
// ints are accepted where floats are expected).
func (s *Schema) CheckRow(r Row) error {
	if len(r) != len(s.Columns) {
		return fmt.Errorf("reldb: row has %d values, schema has %d columns", len(r), len(s.Columns))
	}
	for i, v := range r {
		want := s.Columns[i].Kind
		if v.Kind == KindNull || v.Kind == want {
			continue
		}
		if want == KindFloat && v.Kind == KindInt {
			continue
		}
		return fmt.Errorf("reldb: column %s wants %v, got %v", s.Columns[i].Name, want, v.Kind)
	}
	return nil
}
