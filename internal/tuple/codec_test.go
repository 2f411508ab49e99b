package tuple

import (
	"encoding/binary"
	"testing"
	"testing/quick"
)

func TestEncodeDecodeTupleRoundTrip(t *testing.T) {
	tests := []Tuple{
		Make(),
		Make(Int(1)),
		Make(String("hello"), Int(-5), Float(2.25), Bool(true), Bytes([]byte{0, 255})),
		New(ID{Origin: 9, Seq: 100}, String("id-carrying")),
	}
	for _, tu := range tests {
		b := EncodeTuple(tu)
		got, err := DecodeTuple(b)
		if err != nil {
			t.Fatalf("decode %v: %v", tu, err)
		}
		if !got.Equal(tu) || got.ID() != tu.ID() {
			t.Errorf("round trip: got %v, want %v", got, tu)
		}
	}
}

func TestEncodeDecodeTemplateRoundTrip(t *testing.T) {
	tps := []Template{
		NewTemplate(),
		NewTemplate(Any(KindInt)),
		NewTemplate(Eq(String("x")), Range(Int(1), Int(5)), Prefix("ab"), Ne(Bool(false))),
	}
	for _, tp := range tps {
		b := EncodeTemplate(tp)
		got, err := DecodeTemplate(b)
		if err != nil {
			t.Fatalf("decode %v: %v", tp, err)
		}
		if got.Arity() != tp.Arity() {
			t.Fatalf("arity: got %d want %d", got.Arity(), tp.Arity())
		}
		for i := 0; i < tp.Arity(); i++ {
			a, b := got.Matcher(i), tp.Matcher(i)
			if a.Op != b.Op || a.Kind != b.Kind || !a.A.Equal(b.A) && (a.A.IsValid() || b.A.IsValid()) {
				t.Errorf("matcher %d: got %+v want %+v", i, a, b)
			}
		}
	}
}

func TestDecodeTupleCorrupt(t *testing.T) {
	good := EncodeTuple(Make(String("x"), Int(1)))
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeTuple(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
	// The first field's kind tag follows the identity and arity uvarints:
	// one byte each for the zero ID and arity 2.
	tag := len(binary.AppendUvarint(binary.AppendUvarint(binary.AppendUvarint(nil, 0), 0), 2))
	bad := append([]byte{}, good...)
	bad[tag] = 99 // corrupt first field kind tag (after id+arity)
	if _, err := DecodeTuple(bad); err == nil {
		t.Error("bad kind tag decoded without error")
	}
}

func TestDecodeTemplateCorrupt(t *testing.T) {
	good := EncodeTemplate(NewTemplate(Eq(String("x"))))
	for cut := 0; cut < len(good); cut++ {
		if _, err := DecodeTemplate(good[:cut]); err == nil {
			t.Errorf("truncation at %d decoded without error", cut)
		}
	}
}

func TestPropertyCodecRoundTrip(t *testing.T) {
	f := func(rt randomTuple) bool {
		b := EncodeTuple(rt.T)
		got, err := DecodeTuple(b)
		return err == nil && got.Equal(rt.T) && got.ID() == rt.T.ID()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestPropertyTemplateCodecPreservesMatching(t *testing.T) {
	// A decoded MatchTuple template must still match its source tuple.
	f := func(rt randomTuple) bool {
		tp := MatchTuple(rt.T)
		got, err := DecodeTemplate(EncodeTemplate(tp))
		return err == nil && got.Matches(rt.T)
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 500}); err != nil {
		t.Error(err)
	}
}

func TestEncodedSizeTracksSizeEstimate(t *testing.T) {
	// Size() is an estimate used for cost accounting; it should be within a
	// small constant factor of the true encoding.
	tu := Make(String("workload"), Int(42), Bytes(make([]byte, 64)))
	enc := len(EncodeTuple(tu))
	est := tu.Size()
	if est < enc/2 || est > enc*2 {
		t.Errorf("size estimate %d far from encoded size %d", est, enc)
	}
}

func TestDecodeRejectsArityBeyondInput(t *testing.T) {
	// Zero ID, then an arity of 1<<20 with nothing after it: every field
	// needs at least its kind tag, so the count alone proves corruption.
	b := binary.AppendUvarint([]byte{0, 0}, 1<<20)
	if _, err := DecodeTuple(b); err == nil {
		t.Error("tuple arity beyond the input decoded without error")
	}
	if _, err := DecodeTemplate(binary.AppendUvarint(nil, 1<<20)); err == nil {
		t.Error("template arity beyond the input decoded without error")
	}
}

func TestEncodeTupleIsCompact(t *testing.T) {
	// id (2+1) + arity 1 + "task" (1+1+4) + int 7 (1+1).
	b := EncodeTuple(New(ID{Origin: 2, Seq: 300}, String("task"), Int(7)))
	if len(b) != 12 {
		t.Errorf("encoded size = %d, want 12", len(b))
	}
}
