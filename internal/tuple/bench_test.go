package tuple

import "testing"

// benchPoint is the benchmark lookup workload's tuple shape: a class
// name, an int key and a 64-byte payload.
var benchPoint = New(ID{Origin: 3, Seq: 1 << 20}, String("p0"), Int(1234), Bytes(make([]byte, 64)))

func BenchmarkEncodeTuple(b *testing.B) {
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		if len(EncodeTuple(benchPoint)) == 0 {
			b.Fatal("empty encoding")
		}
	}
}

func BenchmarkDecodeTuple(b *testing.B) {
	enc := EncodeTuple(benchPoint)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := DecodeTuple(enc); err != nil {
			b.Fatal(err)
		}
	}
}
