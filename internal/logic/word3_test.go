package logic

import "testing"

func TestLevelMask(t *testing.T) {
	for _, c := range []struct {
		n    int
		want Mask
	}{{0, 0}, {1, 1}, {8, 0xff}, {63, Mask(AllLevels >> 1)}, {64, Mask(AllLevels)}, {100, Mask(AllLevels)}, {128, Mask(AllLevels)}, {-3, 0}} {
		if got := LevelsMask(c.n); got != c.want {
			t.Errorf("LevelsMask(%d) = %x, want %x", c.n, got, c.want)
		}
	}
}
