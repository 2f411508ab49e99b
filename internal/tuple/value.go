// Package tuple implements PASO objects: immutable tuples of typed values,
// and the associative search criteria (templates) used to retrieve them.
//
// An object in a PASO memory is a tuple of values drawn from ground sets of
// basic data types (paper §1, §2). Tuples are matched by templates whose
// fields are either actuals (must be equal), formals (match any value of a
// type), ranges, or arbitrary predicates.
package tuple

import (
	"errors"
	"fmt"
	"math"
	"strconv"
)

// Kind enumerates the ground types a tuple field may take.
type Kind int

// Supported field kinds. Enums start at one so the zero value is invalid
// and misuse is detectable.
const (
	KindInt Kind = iota + 1
	KindFloat
	KindString
	KindBool
	KindBytes
)

// String returns the lowercase name of the kind.
func (k Kind) String() string {
	switch k {
	case KindInt:
		return "int"
	case KindFloat:
		return "float"
	case KindString:
		return "string"
	case KindBool:
		return "bool"
	case KindBytes:
		return "bytes"
	default:
		return "invalid(" + strconv.Itoa(int(k)) + ")"
	}
}

// valid reports whether k is one of the declared kinds.
func (k Kind) valid() bool {
	return k >= KindInt && k <= KindBytes
}

// ErrKindMismatch is returned when a typed accessor is used on a value of a
// different kind.
var ErrKindMismatch = errors.New("tuple: value kind mismatch")

// Value is a single immutable field of a tuple. The zero Value is invalid.
type Value struct {
	kind Kind
	i    int64
	f    float64
	s    string
	b    bool
	by   []byte
}

// Int returns a Value holding an int64.
func Int(v int64) Value { return Value{kind: KindInt, i: v} }

// Float returns a Value holding a float64.
func Float(v float64) Value { return Value{kind: KindFloat, f: v} }

// String returns a Value holding a string.
func String(v string) Value { return Value{kind: KindString, s: v} }

// Bool returns a Value holding a bool.
func Bool(v bool) Value { return Value{kind: KindBool, b: v} }

// Bytes returns a Value holding a copy of the given byte slice.
func Bytes(v []byte) Value {
	cp := make([]byte, len(v))
	copy(cp, v)
	return Value{kind: KindBytes, by: cp}
}

// Kind returns the kind of the value.
func (v Value) Kind() Kind { return v.kind }

// IsValid reports whether the value holds one of the supported kinds.
func (v Value) IsValid() bool { return v.kind.valid() }

// AsInt returns the int64 payload.
func (v Value) AsInt() (int64, error) {
	if v.kind != KindInt {
		return 0, ErrKindMismatch
	}
	return v.i, nil
}

// AsFloat returns the float64 payload.
func (v Value) AsFloat() (float64, error) {
	if v.kind != KindFloat {
		return 0, ErrKindMismatch
	}
	return v.f, nil
}

// AsString returns the string payload.
func (v Value) AsString() (string, error) {
	if v.kind != KindString {
		return "", ErrKindMismatch
	}
	return v.s, nil
}

// AsBool returns the bool payload.
func (v Value) AsBool() (bool, error) {
	if v.kind != KindBool {
		return false, ErrKindMismatch
	}
	return v.b, nil
}

// AsBytes returns a copy of the bytes payload.
func (v Value) AsBytes() ([]byte, error) {
	if v.kind != KindBytes {
		return nil, ErrKindMismatch
	}
	cp := make([]byte, len(v.by))
	copy(cp, v.by)
	return cp, nil
}

// MustInt returns the int64 payload or zero if the kind differs.
// It is a convenience for callers that have already validated kinds.
func (v Value) MustInt() int64 { return v.i }

// MustString returns the string payload or "" if the kind differs.
func (v Value) MustString() string { return v.s }

// MustFloat returns the float64 payload or 0 if the kind differs.
func (v Value) MustFloat() float64 { return v.f }

// MustBool returns the bool payload or false if the kind differs.
func (v Value) MustBool() bool { return v.b }

// Equal reports whether two values have the same kind and payload.
func (v Value) Equal(o Value) bool {
	if v.kind != o.kind {
		return false
	}
	switch v.kind {
	case KindInt:
		return v.i == o.i
	case KindFloat:
		return v.f == o.f || (math.IsNaN(v.f) && math.IsNaN(o.f))
	case KindString:
		return v.s == o.s
	case KindBool:
		return v.b == o.b
	case KindBytes:
		if len(v.by) != len(o.by) {
			return false
		}
		for i := range v.by {
			if v.by[i] != o.by[i] {
				return false
			}
		}
		return true
	default:
		return false
	}
}

// Key is a comparable form of a Value for use as a map key. Two valid
// values have the same Key exactly when Equal reports them equal: floats
// map -0 to +0 and every NaN payload to one NaN, as Equal does.
type Key struct {
	kind Kind
	n    uint64
	s    string
}

// canonicalNaN is the bit pattern every NaN's Key carries.
const canonicalNaN = 0x7ff8000000000001

// Key returns the value's map key. A bytes value copies its payload into
// the key; the other kinds do not allocate.
func (v Value) Key() Key {
	switch v.kind {
	case KindInt:
		return Key{kind: KindInt, n: uint64(v.i)}
	case KindFloat:
		switch {
		case v.f == 0:
			return Key{kind: KindFloat}
		case math.IsNaN(v.f):
			return Key{kind: KindFloat, n: canonicalNaN}
		}
		return Key{kind: KindFloat, n: math.Float64bits(v.f)}
	case KindString:
		return Key{kind: KindString, s: v.s}
	case KindBool:
		if v.b {
			return Key{kind: KindBool, n: 1}
		}
		return Key{kind: KindBool}
	case KindBytes:
		return Key{kind: KindBytes, s: string(v.by)}
	default:
		return Key{}
	}
}

// Compare orders two values of the same kind: -1, 0, or +1. Values of
// different kinds are ordered by kind. Bools order false < true; bytes order
// lexicographically.
func (v Value) Compare(o Value) int {
	if v.kind != o.kind {
		if v.kind < o.kind {
			return -1
		}
		return 1
	}
	switch v.kind {
	case KindInt:
		return cmpOrdered(v.i, o.i)
	case KindFloat:
		return cmpOrdered(v.f, o.f)
	case KindString:
		return cmpOrdered(v.s, o.s)
	case KindBool:
		return cmpBool(v.b, o.b)
	case KindBytes:
		return cmpBytes(v.by, o.by)
	default:
		return 0
	}
}

func cmpOrdered[T int64 | float64 | string](a, b T) int {
	switch {
	case a < b:
		return -1
	case a > b:
		return 1
	default:
		return 0
	}
}

func cmpBool(a, b bool) int {
	switch {
	case a == b:
		return 0
	case !a:
		return -1
	default:
		return 1
	}
}

func cmpBytes(a, b []byte) int {
	n := len(a)
	if len(b) < n {
		n = len(b)
	}
	for i := 0; i < n; i++ {
		if a[i] != b[i] {
			if a[i] < b[i] {
				return -1
			}
			return 1
		}
	}
	return cmpOrdered(int64(len(a)), int64(len(b)))
}

// Size returns the approximate encoded size of the value in bytes. It is
// used by the α+β cost model.
func (v Value) Size() int {
	switch v.kind {
	case KindInt, KindFloat:
		return 9 // tag + 8 bytes
	case KindBool:
		return 2
	case KindString:
		return 1 + 4 + len(v.s)
	case KindBytes:
		return 1 + 4 + len(v.by)
	default:
		return 1
	}
}

// GoString implements fmt.GoStringer for debugging output.
func (v Value) GoString() string { return v.String() }

// String renders the value for logs and error messages.
func (v Value) String() string {
	switch v.kind {
	case KindInt:
		return strconv.FormatInt(v.i, 10)
	case KindFloat:
		return strconv.FormatFloat(v.f, 'g', -1, 64)
	case KindString:
		return strconv.Quote(v.s)
	case KindBool:
		return strconv.FormatBool(v.b)
	case KindBytes:
		return fmt.Sprintf("bytes[%d]", len(v.by))
	default:
		return "<invalid>"
	}
}
