package storage

import (
	"math"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"

	"paso/internal/tuple"
)

// opScript is a quick.Generator producing random operation sequences for
// the store-equivalence property.
type opScript struct {
	ops []scriptOp
}

type scriptOp struct {
	kind  int // 0 insert, 1 remove, 2 read, 3 removeByID, 4 snapshot→restore
	name  byte
	key   int64
	f     int // index into scriptFloats
	shape int // bit i set: the template pins field i with OpEq
}

// scriptFloats holds the float field values: signed zeros and two NaN
// payloads, which Equal treats as one value each.
var scriptFloats = []float64{
	0, math.Copysign(0, -1),
	math.Float64frombits(0x7ff8000000000001), math.Float64frombits(0x7ff0000000000f00),
	1.5,
}

// Generate implements quick.Generator.
func (opScript) Generate(r *rand.Rand, size int) reflect.Value {
	n := 20 + r.Intn(200)
	ops := make([]scriptOp, n)
	for i := range ops {
		kind := r.Intn(4)
		if r.Intn(50) == 0 {
			kind = 4
		}
		ops[i] = scriptOp{
			kind:  kind,
			name:  byte('a' + r.Intn(2)),
			key:   int64(r.Intn(6)),
			f:     r.Intn(len(scriptFloats)),
			shape: r.Intn(8),
		}
	}
	return reflect.ValueOf(opScript{ops: ops})
}

// tuple returns the (name, key, float) object op inserts.
func (op scriptOp) tuple(id uint64) tuple.Tuple {
	return tuple.New(tuple.ID{Origin: 3, Seq: id},
		tuple.String(string(op.name)), tuple.Int(op.key), tuple.Float(scriptFloats[op.f]))
}

// template pins the fields op.shape selects and leaves the rest formal:
// ground, partial (any one or two fields) or fully formal.
func (op scriptOp) template() tuple.Template {
	vals := []tuple.Value{tuple.String(string(op.name)), tuple.Int(op.key), tuple.Float(scriptFloats[op.f])}
	ms := make([]tuple.Matcher, len(vals))
	for i, v := range vals {
		if op.shape&(1<<i) != 0 {
			ms[i] = tuple.Eq(v)
		} else {
			ms[i] = tuple.Any(v.Kind())
		}
	}
	return tuple.NewTemplate(ms...)
}

// TestPropertyStoreKindsEquivalent runs random scripts against all three
// store kinds: observable behaviour (read and remove results, lengths,
// snapshot contents) must be identical, through ground, partial and
// formal templates, signed-zero and NaN floats, and mid-script
// snapshot→restore cycles. The list store is the executable spec.
func TestPropertyStoreKindsEquivalent(t *testing.T) {
	f := func(script opScript) bool {
		ref := NewList()
		stores := []Store{NewHash(), NewTree(1)}
		var seq, idseq uint64
		ids := make([]tuple.ID, 0, len(script.ops))
		for _, op := range script.ops {
			switch op.kind {
			case 0:
				seq++
				idseq++
				tu := op.tuple(idseq)
				ref.Insert(seq, tu)
				for _, s := range stores {
					s.Insert(seq, tu)
				}
				ids = append(ids, tu.ID())
			case 1, 2:
				tp := op.template()
				do := Store.Remove
				if op.kind == 2 {
					do = Store.Read
				}
				a, aok := do(ref, tp)
				for _, s := range stores {
					b, bok := do(s, tp)
					if aok != bok || (aok && a.ID() != b.ID()) {
						return false
					}
				}
			case 3:
				if len(ids) == 0 {
					continue
				}
				id := ids[int(op.key)%len(ids)]
				a := ref.RemoveByID(id)
				for _, s := range stores {
					if s.RemoveByID(id) != a {
						return false
					}
				}
			case 4:
				ref.Restore(ref.Snapshot())
				for _, s := range stores {
					s.Restore(s.Snapshot())
				}
			}
			for _, s := range stores {
				if s.Len() != ref.Len() {
					return false
				}
			}
		}
		// Final snapshots must agree entry for entry.
		sa := ref.Snapshot()
		for _, s := range stores {
			sb := s.Snapshot()
			if len(sa) != len(sb) {
				return false
			}
			for i := range sa {
				if sa[i].Seq != sb[i].Seq || sa[i].Tuple.ID() != sb[i].Tuple.ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 150}); err != nil {
		t.Error(err)
	}
}

// TestPropertySnapshotRestoreIdempotent: restore(snapshot(s)) is an
// identity on observable state for every store kind.
func TestPropertySnapshotRestoreIdempotent(t *testing.T) {
	f := func(script opScript) bool {
		for _, kind := range []Kind{KindList, KindHash, KindTree} {
			s, err := New(kind, 1)
			if err != nil {
				return false
			}
			var seq uint64
			for _, op := range script.ops {
				if op.kind != 0 {
					continue
				}
				seq++
				s.Insert(seq, tuple.New(tuple.ID{Origin: 4, Seq: seq},
					tuple.String(string(op.name)), tuple.Int(op.key)))
			}
			snap := s.Snapshot()
			s2, err := New(kind, 1)
			if err != nil {
				return false
			}
			s2.Restore(snap)
			if s2.Len() != s.Len() {
				return false
			}
			again := s2.Snapshot()
			if len(again) != len(snap) {
				return false
			}
			for i := range snap {
				if snap[i].Seq != again[i].Seq || snap[i].Tuple.ID() != again[i].Tuple.ID() {
					return false
				}
			}
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 100}); err != nil {
		t.Error(err)
	}
}
