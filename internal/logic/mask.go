package logic

import "math/bits"

// Mask selects bit levels of one machine word: bit i selects bit level i.
// The zero value selects nothing.  There are no levels at or above
// WordWidth, so a mask asked for one selects nothing there.
type Mask uint64

// LevelsMask returns the mask selecting the lowest n bit levels (every level
// for n ≥ WordWidth).  The single-bit baseline uses LevelsMask(1).
func LevelsMask(n int) Mask {
	if n <= 0 {
		return 0
	}
	if n >= WordWidth {
		return Mask(AllLevels)
	}
	return 1<<uint(n) - 1
}

// BitMask returns the mask selecting only bit level i, or nothing when i lies
// outside [0, WordWidth).
func BitMask(i int) Mask {
	if i < 0 || i >= WordWidth {
		return 0
	}
	return 1 << uint(i)
}

// Bit reports whether bit level i is selected.
func (m Mask) Bit(i int) bool { return m&BitMask(i) != 0 }

// TrailingZeros returns the lowest selected bit level, or WordWidth when the
// mask is zero.
func (m Mask) TrailingZeros() int { return bits.TrailingZeros64(uint64(m)) }
