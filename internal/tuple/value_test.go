package tuple

import (
	"math"
	"testing"
	"testing/quick"
)

func TestKindString(t *testing.T) {
	tests := []struct {
		kind Kind
		want string
	}{
		{KindInt, "int"},
		{KindFloat, "float"},
		{KindString, "string"},
		{KindBool, "bool"},
		{KindBytes, "bytes"},
		{Kind(0), "invalid(0)"},
		{Kind(99), "invalid(99)"},
	}
	for _, tt := range tests {
		if got := tt.kind.String(); got != tt.want {
			t.Errorf("Kind(%d).String() = %q, want %q", int(tt.kind), got, tt.want)
		}
	}
}

func TestValueConstructorsAndAccessors(t *testing.T) {
	iv := Int(-42)
	if k := iv.Kind(); k != KindInt {
		t.Fatalf("Int kind = %v", k)
	}
	if got, err := iv.AsInt(); err != nil || got != -42 {
		t.Fatalf("AsInt = %d, %v", got, err)
	}
	if _, err := iv.AsString(); err != ErrKindMismatch {
		t.Fatalf("AsString on int err = %v, want ErrKindMismatch", err)
	}

	fv := Float(3.5)
	if got, err := fv.AsFloat(); err != nil || got != 3.5 {
		t.Fatalf("AsFloat = %v, %v", got, err)
	}

	sv := String("hello")
	if got, err := sv.AsString(); err != nil || got != "hello" {
		t.Fatalf("AsString = %q, %v", got, err)
	}

	bv := Bool(true)
	if got, err := bv.AsBool(); err != nil || !got {
		t.Fatalf("AsBool = %v, %v", got, err)
	}

	raw := []byte{1, 2, 3}
	byv := Bytes(raw)
	raw[0] = 9 // must not alias
	got, err := byv.AsBytes()
	if err != nil || len(got) != 3 || got[0] != 1 {
		t.Fatalf("AsBytes = %v, %v (aliasing?)", got, err)
	}
	got[1] = 7
	again, _ := byv.AsBytes()
	if again[1] != 2 {
		t.Fatal("AsBytes returned aliased slice")
	}
}

func TestValueEqual(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want bool
	}{
		{"int eq", Int(1), Int(1), true},
		{"int ne", Int(1), Int(2), false},
		{"kind ne", Int(1), Float(1), false},
		{"float eq", Float(2.5), Float(2.5), true},
		{"nan eq nan", Float(math.NaN()), Float(math.NaN()), true},
		{"string eq", String("a"), String("a"), true},
		{"string ne", String("a"), String("b"), false},
		{"bool eq", Bool(true), Bool(true), true},
		{"bool ne", Bool(true), Bool(false), false},
		{"bytes eq", Bytes([]byte{1, 2}), Bytes([]byte{1, 2}), true},
		{"bytes len ne", Bytes([]byte{1}), Bytes([]byte{1, 2}), false},
		{"bytes content ne", Bytes([]byte{1, 3}), Bytes([]byte{1, 2}), false},
		{"invalid vs invalid", Value{}, Value{}, false},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Equal(tt.b); got != tt.want {
				t.Errorf("%v.Equal(%v) = %v, want %v", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestValueCompare(t *testing.T) {
	tests := []struct {
		name string
		a, b Value
		want int
	}{
		{"int lt", Int(1), Int(2), -1},
		{"int gt", Int(3), Int(2), 1},
		{"int eq", Int(2), Int(2), 0},
		{"float lt", Float(1.5), Float(2.5), -1},
		{"string lt", String("a"), String("b"), -1},
		{"bool lt", Bool(false), Bool(true), -1},
		{"bool eq", Bool(true), Bool(true), 0},
		{"bool gt", Bool(true), Bool(false), 1},
		{"bytes lt", Bytes([]byte{1}), Bytes([]byte{2}), -1},
		{"bytes prefix lt", Bytes([]byte{1}), Bytes([]byte{1, 0}), -1},
		{"bytes eq", Bytes([]byte{5, 6}), Bytes([]byte{5, 6}), 0},
		{"cross kind", Int(9), Float(0), -1},
	}
	for _, tt := range tests {
		t.Run(tt.name, func(t *testing.T) {
			if got := tt.a.Compare(tt.b); got != tt.want {
				t.Errorf("%v.Compare(%v) = %d, want %d", tt.a, tt.b, got, tt.want)
			}
		})
	}
}

func TestValueCompareAntisymmetric(t *testing.T) {
	f := func(a, b int64) bool {
		return Int(a).Compare(Int(b)) == -Int(b).Compare(Int(a))
	}
	if err := quick.Check(f, nil); err != nil {
		t.Error(err)
	}
}

func TestValueSizePositive(t *testing.T) {
	vals := []Value{Int(0), Float(0), String(""), Bool(false), Bytes(nil)}
	for _, v := range vals {
		if v.Size() <= 0 {
			t.Errorf("Size(%v) = %d, want > 0", v, v.Size())
		}
	}
	if String("abcd").Size() <= String("").Size() {
		t.Error("longer string should have larger size")
	}
}

func TestValueString(t *testing.T) {
	tests := []struct {
		v    Value
		want string
	}{
		{Int(5), "5"},
		{Float(1.5), "1.5"},
		{String("x"), `"x"`},
		{Bool(true), "true"},
		{Bytes([]byte{1, 2}), "bytes[2]"},
		{Value{}, "<invalid>"},
	}
	for _, tt := range tests {
		if got := tt.v.String(); got != tt.want {
			t.Errorf("String() = %q, want %q", got, tt.want)
		}
	}
}

func TestKeyAgreesWithEqual(t *testing.T) {
	nan1 := math.Float64frombits(0x7ff8000000000001)
	nan2 := math.Float64frombits(0x7ff0000000000f00)
	vals := []Value{
		Int(0), Int(-1), Float(0), Float(math.Copysign(0, -1)), Float(nan1), Float(nan2),
		Float(1.5), String(""), String("a"), Bool(false), Bool(true),
		Bytes(nil), Bytes([]byte("a")),
	}
	for _, a := range vals {
		for _, b := range vals {
			if got, want := a.Key() == b.Key(), a.Equal(b); got != want {
				t.Errorf("Key(%v)==Key(%v) is %v, Equal is %v", a, b, got, want)
			}
		}
	}
}
