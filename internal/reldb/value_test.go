package reldb

import (
	"testing"
	"testing/quick"
)

func TestCompareOrdering(t *testing.T) {
	cases := []struct {
		a, b Value
		want int
	}{
		{Int(1), Int(2), -1},
		{Int(2), Int(2), 0},
		{Int(3), Int(2), 1},
		{Int(1), Float(1.0), 0},
		{Float(1.5), Int(2), -1},
		{Str("a"), Str("b"), -1},
		{Str("b"), Str("b"), 0},
		{Bool(false), Bool(true), -1},
		{Bool(true), Bool(true), 0},
		{Null(), Int(0), -1},
		{Int(0), Null(), 1},
		{Null(), Null(), 0},
	}
	for _, c := range cases {
		if got := Compare(c.a, c.b); got != c.want {
			t.Errorf("Compare(%v,%v) = %d, want %d", c.a, c.b, got, c.want)
		}
	}
}

func TestEqualNullSemantics(t *testing.T) {
	if Equal(Null(), Null()) {
		t.Error("NULL = NULL should be false")
	}
	if Equal(Null(), Int(1)) || Equal(Int(1), Null()) {
		t.Error("NULL = value should be false")
	}
	if !Equal(Int(1), Float(1.0)) {
		t.Error("1 = 1.0 should hold")
	}
}

func TestKeyConsistentWithCompare(t *testing.T) {
	// Values that Compare as equal must share a key (GROUP BY
	// correctness); int/float integral overlap in particular.
	pairs := [][2]Value{
		{Int(1), Float(1.0)},
		{Str("x"), Str("x")},
		{Bool(true), Bool(true)},
	}
	for _, p := range pairs {
		if Compare(p[0], p[1]) == 0 && p[0].Key() != p[1].Key() {
			t.Errorf("equal values %v, %v have different keys", p[0], p[1])
		}
	}
	// And distinct values must not collide across kinds.
	distinct := []Value{Int(1), Str("1"), Bool(true), Null(), Float(1.5)}
	seen := map[string]Value{}
	for _, v := range distinct {
		if prev, dup := seen[v.Key()]; dup {
			t.Errorf("key collision: %v and %v", prev, v)
		}
		seen[v.Key()] = v
	}
}

func TestQuickCompareAntisymmetry(t *testing.T) {
	f := func(a, b int64) bool {
		va, vb := Int(a), Int(b)
		return Compare(va, vb) == -Compare(vb, va)
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestQuickIntFloatCoherence(t *testing.T) {
	f := func(a int32) bool {
		return Compare(Int(int64(a)), Float(float64(a))) == 0 &&
			Int(int64(a)).Key() == Float(float64(a)).Key()
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestSchemaCheckRow(t *testing.T) {
	s := Schema{Columns: []Column{{"id", KindInt}, {"name", KindString}, {"score", KindFloat}}}
	if err := s.CheckRow(Row{Int(1), Str("a"), Float(2.5)}); err != nil {
		t.Errorf("valid row rejected: %v", err)
	}
	if err := s.CheckRow(Row{Int(1), Str("a"), Int(2)}); err != nil {
		t.Errorf("int into float rejected: %v", err)
	}
	if err := s.CheckRow(Row{Null(), Null(), Null()}); err != nil {
		t.Errorf("nulls rejected: %v", err)
	}
	if err := s.CheckRow(Row{Int(1), Str("a")}); err == nil {
		t.Error("short row accepted")
	}
	if err := s.CheckRow(Row{Str("x"), Str("a"), Float(1)}); err == nil {
		t.Error("kind mismatch accepted")
	}
}

func TestValueStrings(t *testing.T) {
	cases := map[string]Value{
		"NULL": Null(), "42": Int(42), "2.5": Float(2.5),
		"hi": Str("hi"), "true": Bool(true), "false": Bool(false),
	}
	for want, v := range cases {
		if v.String() != want {
			t.Errorf("String(%v) = %q, want %q", v.Kind, v.String(), want)
		}
	}
}
