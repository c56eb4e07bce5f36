package circuit_test

import (
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
)

// BenchmarkParseBench times ParseBench on the .bench text of the s38584
// stand-in, the largest built-in circuit; run it with -benchmem for its
// allocations.
func BenchmarkParseBench(b *testing.B) {
	c, err := bench.Get("s38584")
	if err != nil {
		b.Fatal(err)
	}
	text := circuit.BenchString(c)
	b.SetBytes(int64(len(text)))
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := circuit.ParseBenchString("s38584", text); err != nil {
			b.Fatal(err)
		}
	}
}
