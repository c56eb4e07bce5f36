//go:build !race

package bench

import (
	"runtime"
	"testing"
)

// TestSynthesizeAllocations holds what building the s38584 stand-in, the
// largest built-in circuit, allocates: at most 10 % over the 4,035,136 B
// in 20,883 allocations of one build with a presized builder (14.25 MB in
// 117,382 when Synthesize built twice into growing slices).  The counts come
// from runtime.MemStats; the race detector instruments allocations, so the
// test builds without it.
func TestSynthesizeAllocations(t *testing.T) {
	const bytesBudget, allocsBudget = 4_035_136 * 11 / 10, 20_883 * 11 / 10
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	c, err := Get("s38584")
	runtime.ReadMemStats(&after)
	if err != nil {
		t.Fatal(err)
	}
	runtime.KeepAlive(c)
	bytes, allocs := after.TotalAlloc-before.TotalAlloc, after.Mallocs-before.Mallocs
	t.Logf("Get(%q) allocates %d B in %d allocations", c.Name, bytes, allocs)
	if bytes > bytesBudget || allocs > allocsBudget {
		t.Errorf("Get(%q) allocates %d B in %d allocations, budget %d B in %d", c.Name, bytes, allocs, bytesBudget, allocsBudget)
	}
}
