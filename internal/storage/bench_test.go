package storage

import (
	"testing"

	"paso/internal/tuple"
)

// Microbenchmarks of the hash store on the access paths the benchmark
// workloads drive. Run with:
//
//	go test ./internal/storage -run '^$' -bench Hash -benchmem

const (
	benchBag    = 1000 // tasks: live tasks in the bag
	benchPoints = 2000 // lookup: keyed points per class
)

var benchTakeTpl = tuple.NewTemplate(tuple.Eq(tuple.String("task")), tuple.Any(tuple.KindInt))

func benchPoint(seq uint64, key int) tuple.Tuple {
	return tuple.New(tuple.ID{Origin: 1, Seq: seq},
		tuple.String("p0"), tuple.Int(int64(key)), tuple.Bytes(make([]byte, 64)))
}

func benchKeyTpl(key int) tuple.Template {
	return tuple.NewTemplate(tuple.Eq(tuple.String("p0")), tuple.Eq(tuple.Int(int64(key))), tuple.Any(tuple.KindBytes))
}

// BenchmarkHashTakeHead is the tasks cycle: insert one task and take the
// oldest with (Eq task, ?int) from a bag of benchBag tasks.
func BenchmarkHashTakeHead(b *testing.B) {
	s := NewHash()
	var seq uint64
	insert := func() {
		seq++
		s.Insert(seq, tuple.New(tuple.ID{Origin: 1, Seq: seq}, tuple.String("task"), tuple.Int(int64(seq))))
	}
	for s.Len() < benchBag {
		insert()
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		insert()
		if _, ok := s.Remove(benchTakeTpl); !ok {
			b.Fatal("take missed")
		}
	}
}

// BenchmarkHashKeyedRead is the lookup read: (Eq p0, Eq key, ?bytes) over
// benchPoints points.
func BenchmarkHashKeyedRead(b *testing.B) {
	s := NewHash()
	for k := 0; k < benchPoints; k++ {
		s.Insert(uint64(k+1), benchPoint(uint64(k+1), k))
	}
	tps := make([]tuple.Template, benchPoints)
	for k := range tps {
		tps[k] = benchKeyTpl((k * 7919) % benchPoints)
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, ok := s.Read(tps[i%len(tps)]); !ok {
			b.Fatal("keyed read missed")
		}
	}
}

// BenchmarkHashRestore is a g-join state install of benchPoints points
// followed by the first keyed read, which rebuilds the chains it pins.
func BenchmarkHashRestore(b *testing.B) {
	src := NewHash()
	for k := 0; k < benchPoints; k++ {
		src.Insert(uint64(k+1), benchPoint(uint64(k+1), k))
	}
	snap := src.Snapshot()
	tp := benchKeyTpl(benchPoints / 2)
	s := NewHash()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		s.Restore(snap)
		if _, ok := s.Read(tp); !ok {
			b.Fatal("keyed read missed")
		}
	}
}
