package tuple

import (
	"encoding/binary"
	"errors"
	"fmt"
	"math"
	"unsafe"
)

// Binary codec for tuples and templates; it is the wire format used by
// both the in-process and TCP transports so message sizes are identical in
// simulation and deployment. Identities, arities and lengths are uvarints,
// ints are zigzag varints, floats are 8 little-endian bytes, and every
// value starts with its one-byte kind tag (PROTOCOL.md, "Tuple payload").

// ErrCorrupt is returned when decoding runs off the end of the buffer or
// meets an unknown tag.
var ErrCorrupt = errors.New("tuple: corrupt encoding")

type encoder struct{ buf []byte }

func (e *encoder) u8(v uint8)       { e.buf = append(e.buf, v) }
func (e *encoder) u64(v uint64)     { e.buf = binary.LittleEndian.AppendUint64(e.buf, v) }
func (e *encoder) uvarint(v uint64) { e.buf = binary.AppendUvarint(e.buf, v) }
func (e *encoder) varint(v int64)   { e.buf = binary.AppendVarint(e.buf, v) }
func (e *encoder) bytes(b []byte) {
	e.uvarint(uint64(len(b)))
	e.buf = append(e.buf, b...)
}

type decoder struct {
	buf []byte
	off int
	err error
	// alias makes string and bytes fields reference buf directly instead
	// of copying. Only valid when buf is immutable for the life of the
	// decoded values (see DecodeTupleAlias).
	alias bool
}

func (d *decoder) fail() {
	if d.err == nil {
		d.err = ErrCorrupt
	}
}

func (d *decoder) u8() uint8 {
	if d.err != nil || d.off+1 > len(d.buf) {
		d.fail()
		return 0
	}
	v := d.buf[d.off]
	d.off++
	return v
}

func (d *decoder) u64() uint64 {
	if d.err != nil || d.off+8 > len(d.buf) {
		d.fail()
		return 0
	}
	v := binary.LittleEndian.Uint64(d.buf[d.off:])
	d.off += 8
	return v
}

func (d *decoder) uvarint() uint64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Uvarint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

func (d *decoder) varint() int64 {
	if d.err != nil {
		return 0
	}
	v, n := binary.Varint(d.buf[d.off:])
	if n <= 0 {
		d.fail()
		return 0
	}
	d.off += n
	return v
}

// count reads a uvarint count of elements or bytes and rejects one larger
// than the bytes left, given that every element takes at least one byte; a
// corrupt count can then never drive a huge allocation.
func (d *decoder) count() int {
	n := d.uvarint()
	if d.err != nil || n > uint64(len(d.buf)-d.off) {
		d.fail()
		return 0
	}
	return int(n)
}

func (d *decoder) bytes() []byte {
	n := d.count()
	if d.err != nil {
		return nil
	}
	b := d.buf[d.off : d.off+n]
	d.off += n
	return b
}

func encodeValue(e *encoder, v Value) {
	e.u8(uint8(v.kind))
	switch v.kind {
	case KindInt:
		e.varint(v.i)
	case KindFloat:
		e.u64(math.Float64bits(v.f))
	case KindString:
		e.bytes([]byte(v.s))
	case KindBool:
		if v.b {
			e.u8(1)
		} else {
			e.u8(0)
		}
	case KindBytes:
		e.bytes(v.by)
	}
}

func decodeValue(d *decoder) Value {
	k := Kind(d.u8())
	switch k {
	case KindInt:
		return Int(d.varint())
	case KindFloat:
		return Float(math.Float64frombits(d.u64()))
	case KindString:
		b := d.bytes()
		if d.alias {
			return String(aliasString(b))
		}
		return String(string(b))
	case KindBool:
		return Bool(d.u8() != 0)
	case KindBytes:
		return Bytes(d.bytes())
	default:
		d.fail()
		return Value{}
	}
}

// EncodeTuple serializes a tuple, identity included.
func EncodeTuple(t Tuple) []byte {
	e := &encoder{buf: make([]byte, 0, t.Size())}
	e.uvarint(t.id.Origin)
	e.uvarint(t.id.Seq)
	e.uvarint(uint64(len(t.fields)))
	for _, f := range t.fields {
		encodeValue(e, f)
	}
	return e.buf
}

// aliasString views a byte slice as a string without copying. The caller
// guarantees b is never mutated afterward.
func aliasString(b []byte) string {
	if len(b) == 0 {
		return ""
	}
	return unsafe.String(&b[0], len(b))
}

// DecodeTuple deserializes a tuple produced by EncodeTuple. String fields
// are copied out of b; bytes fields alias it.
func DecodeTuple(b []byte) (Tuple, error) {
	return decodeTuple(b, false)
}

// DecodeTupleAlias is DecodeTuple with zero-copy fields: string and bytes
// values alias b directly. The caller must guarantee b is immutable for as
// long as any decoded value is retained — the contract holds for transport
// receive frames (see DESIGN.md, "Delivery buffer ownership"), which is
// what makes socket-to-store delivery copy-free.
func DecodeTupleAlias(b []byte) (Tuple, error) {
	return decodeTuple(b, true)
}

func decodeTuple(b []byte, alias bool) (Tuple, error) {
	d := &decoder{buf: b, alias: alias}
	id := ID{Origin: d.uvarint(), Seq: d.uvarint()}
	n := d.count()
	fields := make([]Value, 0, n)
	for i := 0; i < n; i++ {
		fields = append(fields, decodeValue(d))
	}
	if d.err != nil {
		return Tuple{}, fmt.Errorf("decode tuple: %w", d.err)
	}
	return Tuple{id: id, fields: fields}, nil
}

// EncodeTemplate serializes a template.
func EncodeTemplate(tp Template) []byte {
	e := &encoder{buf: make([]byte, 0, tp.Size())}
	e.uvarint(uint64(len(tp.matchers)))
	for _, m := range tp.matchers {
		e.u8(uint8(m.Op))
		e.u8(uint8(m.Kind))
		flags := uint8(0)
		if m.A.IsValid() {
			flags |= 1
		}
		if m.B.IsValid() {
			flags |= 2
		}
		e.u8(flags)
		if m.A.IsValid() {
			encodeValue(e, m.A)
		}
		if m.B.IsValid() {
			encodeValue(e, m.B)
		}
	}
	return e.buf
}

// DecodeTemplate deserializes a template produced by EncodeTemplate.
func DecodeTemplate(b []byte) (Template, error) {
	return decodeTemplate(b, false)
}

// DecodeTemplateAlias is DecodeTemplate under the zero-copy contract of
// DecodeTupleAlias: matcher operand strings and bytes alias b.
func DecodeTemplateAlias(b []byte) (Template, error) {
	return decodeTemplate(b, true)
}

func decodeTemplate(b []byte, alias bool) (Template, error) {
	d := &decoder{buf: b, alias: alias}
	n := d.count()
	ms := make([]Matcher, 0, n)
	for i := 0; i < n; i++ {
		m := Matcher{Op: MatchOp(d.u8()), Kind: Kind(d.u8())}
		flags := d.u8()
		if flags&1 != 0 {
			m.A = decodeValue(d)
		}
		if flags&2 != 0 {
			m.B = decodeValue(d)
		}
		ms = append(ms, m)
	}
	if d.err != nil {
		return Template{}, fmt.Errorf("decode template: %w", d.err)
	}
	return Template{matchers: ms}, nil
}
