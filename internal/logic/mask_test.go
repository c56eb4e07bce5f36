package logic

import (
	"math/bits"
	"math/rand"
	"testing"
)

func TestMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for _, n := range []int{0, 1, 63, 64, 65, 128} {
		m := LevelsMask(n)
		if got, want := bits.OnesCount64(uint64(m)), min(n, WordWidth); got != want {
			t.Errorf("LevelsMask(%d) selects %d levels, want %d", n, got, want)
		}
		for i := -1; i <= 2*WordWidth; i++ {
			if m.Bit(i) != (i >= 0 && i < n && i < WordWidth) {
				t.Fatalf("LevelsMask(%d).Bit(%d) = %v", n, i, m.Bit(i))
			}
		}
	}
	// A level outside the word selects nothing: it neither wraps into the
	// word nor panics.
	for _, i := range []int{-65, -1, 64, 65, 127, 128, 1 << 20} {
		if b := BitMask(i); b != 0 {
			t.Errorf("BitMask(%d) = %x, want 0", i, b)
		}
	}
	if z := Mask(0).TrailingZeros(); z != WordWidth {
		t.Errorf("zero mask TrailingZeros = %d, want %d", z, WordWidth)
	}
	for trial := 0; trial < 200; trial++ {
		i, j := rng.Intn(WordWidth), rng.Intn(WordWidth)
		b := BitMask(i)
		if bits.OnesCount64(uint64(b)) != 1 || !b.Bit(i) || b.TrailingZeros() != i {
			t.Fatalf("BitMask(%d) wrong: %x", i, b)
		}
		if u := b | BitMask(j); !u.Bit(i) || !u.Bit(j) || u.TrailingZeros() != min(i, j) {
			t.Fatalf("BitMask(%d) | BitMask(%d) = %x", i, j, u)
		}
	}
}
