//go:build !race

package pattern

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
)

// TestPairStringAllocatesOnce guards the text of one pattern: at the s38584
// stand-in's width (1,464 inputs) Pair.String makes one allocation, the
// string at its final size.  The race detector instruments allocations, so
// the test builds without it.
func TestPairStringAllocatesOnce(t *testing.T) {
	prof, _ := bench.ProfileByName("s38584")
	p := randomPair(rand.New(rand.NewSource(1995)), prof.Inputs)
	if n := testing.AllocsPerRun(64, func() { pairText = p.String() }); n != 1 {
		t.Errorf("Pair.String allocates %v times, want 1", n)
	}
}
