package logic

import (
	"math/rand"
	"testing"
)

func TestKForWidth(t *testing.T) {
	cases := []struct{ width, k int }{
		{1, 1}, {63, 1}, {64, 1}, {65, 2}, {127, 2}, {128, 2}, {129, 2}, {512, 2},
	}
	for _, c := range cases {
		if got := KForWidth(c.width); got != c.k {
			t.Errorf("KForWidth(%d) = %d, want %d", c.width, got, c.k)
		}
	}
}

func TestMaskProperties(t *testing.T) {
	rng := rand.New(rand.NewSource(1995))
	for _, n := range []int{0, 1, 63, 64, 65, 127, 128} {
		m := LevelsMask(n)
		if got := m.OnesCount(); got != n {
			t.Errorf("LevelsMask(%d).OnesCount() = %d", n, got)
		}
		wantWords := (n + 63) / 64
		if wantWords == 0 {
			wantWords = 1 // Words() describes at least a one-word engine
		}
		if got := m.Words(); got != wantWords {
			t.Errorf("LevelsMask(%d).Words() = %d, want %d", n, got, wantWords)
		}
		for i := 0; i < MaxWordWidth; i++ {
			if m.Bit(i) != (i < n) {
				t.Fatalf("LevelsMask(%d).Bit(%d) = %v", n, i, m.Bit(i))
			}
		}
	}
	for trial := 0; trial < 200; trial++ {
		i := rng.Intn(MaxWordWidth)
		b := BitMask(i)
		if b.OnesCount() != 1 || !b.Bit(i) || b.TrailingZeros() != i {
			t.Fatalf("BitMask(%d) wrong: %v", i, b)
		}
		j := rng.Intn(MaxWordWidth)
		u := b.Or(BitMask(j))
		if !u.Bit(i) || !u.Bit(j) {
			t.Fatalf("Or lost a bit: %d %d", i, j)
		}
		if d := u.AndNot(BitMask(j)); i != j && (!d.Bit(i) || d.Bit(j)) {
			t.Fatalf("AndNot wrong: %d %d", i, j)
		}
		if x := b.And(b.Not()); !x.IsZero() {
			t.Fatalf("m AND NOT m != 0 for bit %d", i)
		}
	}
}

func TestWord7VRoundTrip(t *testing.T) {
	vals := []Value7{X7, Final0, Final1, Stable0, Stable1, Fall7, Rise7}
	rng := rand.New(rand.NewSource(7))
	var w Word7V
	ref := make([]Value7, MaxWordWidth)
	for trial := 0; trial < 4096; trial++ {
		i := rng.Intn(MaxWordWidth)
		v := vals[rng.Intn(len(vals))]
		w.Set(i, v)
		ref[i] = v
	}
	for i, v := range ref {
		if got := w.Get(i); got != v {
			t.Fatalf("Get(%d) = %v, want %v", i, got, v)
		}
	}
	for _, v := range vals {
		full := FillWord7V(v, LevelsMask(MaxWordWidth))
		for _, i := range []int{0, 63, 64, 100, 127} {
			if got := full.Get(i); got != v {
				t.Fatalf("FillWord7V(%v).Get(%d) = %v", v, i, got)
			}
		}
		if v != X7 && !full.SelectLevels(BitMask(70)).SelectLevels(BitMask(71)).IsZero() {
			t.Fatalf("SelectLevels of disjoint masks should clear %v", v)
		}
	}
}
