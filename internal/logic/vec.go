package logic

import (
	"math/bits"
	"strings"
)

// This file generalizes the scalar 64-level word (Word7, one uint64 per bit
// plane) to plane vectors of up to MaxK machine words: a Mask or Word7V
// carries one word per plane for L ≤ 64 and two for L ≤ 128.  The types are
// plain comparable structs of [MaxK]uint64 arrays, sized for the maximum
// width, and equality (==) is bit-exact across the full capacity: callers
// that operate on one word keep the second one zero.  The gate kernels stay
// scalar (EvalGate7 over Word7); the implication engine runs them once per
// plane word.

// MaxK is the maximum number of 64-bit words per bit plane.
const MaxK = 2

// MaxWordWidth is the maximum number of bit levels of a plane vector: the
// widest word width L the engine supports (128 with MaxK = 2).
const MaxWordWidth = MaxK * WordWidth

// KForWidth returns the number of plane words needed for the given word
// width, clamped to [1, MaxK].
func KForWidth(width int) int {
	if width <= WordWidth {
		return 1
	}
	k := (width + WordWidth - 1) / WordWidth
	if k > MaxK {
		return MaxK
	}
	return k
}

// Mask is a wide bit-level mask: bit i of word i/64 selects bit level i.
// The zero value selects nothing.  Masks are comparable with ==.
type Mask [MaxK]uint64

// LevelsMask returns the mask selecting the lowest n bit levels (the wide
// counterpart of LevelMask).
func LevelsMask(n int) Mask {
	var m Mask
	if n <= 0 {
		return m
	}
	if n > MaxWordWidth {
		n = MaxWordWidth
	}
	for w := 0; n > 0; w++ {
		if n >= WordWidth {
			m[w] = AllLevels
			n -= WordWidth
		} else {
			m[w] = (uint64(1) << uint(n)) - 1
			n = 0
		}
	}
	return m
}

// BitMask returns the mask selecting only bit level i.
func BitMask(i int) Mask {
	var m Mask
	if i >= 0 && i < MaxWordWidth {
		m[i>>6] = uint64(1) << uint(i&63)
	}
	return m
}

// And returns m & o.
func (m Mask) And(o Mask) Mask {
	for w := range m {
		m[w] &= o[w]
	}
	return m
}

// Or returns m | o.
func (m Mask) Or(o Mask) Mask {
	for w := range m {
		m[w] |= o[w]
	}
	return m
}

// AndNot returns m &^ o.
func (m Mask) AndNot(o Mask) Mask {
	for w := range m {
		m[w] &^= o[w]
	}
	return m
}

// Not returns the complement over the full MaxWordWidth levels.  Combine
// with And(active) to bound it to the levels in use.
func (m Mask) Not() Mask {
	for w := range m {
		m[w] = ^m[w]
	}
	return m
}

// IsZero reports whether no bit level is selected.
func (m Mask) IsZero() bool { return m == Mask{} }

// Bit reports whether bit level i is selected.
func (m Mask) Bit(i int) bool {
	if i < 0 || i >= MaxWordWidth {
		return false
	}
	return m[i>>6]>>uint(i&63)&1 != 0
}

// TrailingZeros returns the lowest selected bit level, or MaxWordWidth when
// the mask is zero.
func (m Mask) TrailingZeros() int {
	for w := range m {
		if m[w] != 0 {
			return w*WordWidth + bits.TrailingZeros64(m[w])
		}
	}
	return MaxWordWidth
}

// OnesCount returns the number of selected bit levels.
func (m Mask) OnesCount() int {
	n := 0
	for w := range m {
		n += bits.OnesCount64(m[w])
	}
	return n
}

// Words returns the number of plane words up to and including the highest
// selected level (at least 1, so a zero mask still describes a one-word
// engine).
func (m Mask) Words() int {
	for w := MaxK - 1; w > 0; w-- {
		if m[w] != 0 {
			return w + 1
		}
	}
	return 1
}

// String renders the mask as the binary digits of its words, highest level
// first, trimmed to the populated words.
func (m Mask) String() string {
	var sb strings.Builder
	for w := m.Words() - 1; w >= 0; w-- {
		if sb.Len() > 0 {
			sb.WriteByte('.')
		}
		for i := WordWidth - 1; i >= 0; i-- {
			sb.WriteByte('0' + byte(m[w]>>uint(i)&1))
		}
	}
	return sb.String()
}

// Word7V holds up to MaxWordWidth seven-valued logic values in four wide bit
// planes: the two-word generalization of Word7.  The zero value is "X at
// every bit level".
type Word7V struct {
	Zero     Mask
	One      Mask
	Stable   Mask
	Instable Mask
}

// FillWord7V returns a vector holding v at the levels selected by mask.
func FillWord7V(v Value7, mask Mask) Word7V {
	var w Word7V
	if v.ZeroBit() {
		w.Zero = mask
	}
	if v.OneBit() {
		w.One = mask
	}
	if v.StableBit() {
		w.Stable = mask
	}
	if v.InstableBit() {
		w.Instable = mask
	}
	return w
}

// Get returns the value at bit level i.
func (w Word7V) Get(i int) Value7 {
	wd, b := i>>6, uint64(1)<<uint(i&63)
	return Value7FromPlanes(w.Zero[wd]&b != 0, w.One[wd]&b != 0, w.Stable[wd]&b != 0, w.Instable[wd]&b != 0)
}

// Value7FromPlanes assembles a Value7 from its four plane bits (the
// structure-of-arrays accessors of the implication state read single bit
// levels directly from plane storage).
func Value7FromPlanes(zero, one, stable, instable bool) Value7 {
	var v Value7
	if zero {
		v |= zeroBit7
	}
	if one {
		v |= oneBit7
	}
	if stable {
		v |= stableBit7
	}
	if instable {
		v |= instableBit7
	}
	return v
}

// Set stores v at bit level i, replacing the previous value.
func (w *Word7V) Set(i int, v Value7) {
	wd, b := i>>6, uint64(1)<<uint(i&63)
	w.Zero[wd] &^= b
	w.One[wd] &^= b
	w.Stable[wd] &^= b
	w.Instable[wd] &^= b
	if v.ZeroBit() {
		w.Zero[wd] |= b
	}
	if v.OneBit() {
		w.One[wd] |= b
	}
	if v.StableBit() {
		w.Stable[wd] |= b
	}
	if v.InstableBit() {
		w.Instable[wd] |= b
	}
}

// SelectLevels keeps only the bit levels selected by mask.
func (w Word7V) SelectLevels(mask Mask) Word7V {
	return Word7V{
		Zero:     w.Zero.And(mask),
		One:      w.One.And(mask),
		Stable:   w.Stable.And(mask),
		Instable: w.Instable.And(mask),
	}
}

// IsZero reports whether every level of every plane is X.
func (w Word7V) IsZero() bool { return w == Word7V{} }

// StringN renders the lowest n bit levels, highest first, in the Word7
// notation.
func (w Word7V) StringN(n int) string {
	if n <= 0 {
		n = 1
	}
	if n > MaxWordWidth {
		n = MaxWordWidth
	}
	var sb strings.Builder
	for i := n - 1; i >= 0; i-- {
		v := w.Get(i)
		switch {
		case v.IsConflict():
			sb.WriteByte('C')
		case v == X7:
			sb.WriteByte('x')
		case v == Stable0:
			sb.WriteByte('s')
		case v == Stable1:
			sb.WriteByte('S')
		case v == Fall7:
			sb.WriteByte('f')
		case v == Rise7:
			sb.WriteByte('r')
		case v == Final0:
			sb.WriteByte('0')
		case v == Final1:
			sb.WriteByte('1')
		default:
			sb.WriteByte('?')
		}
	}
	return sb.String()
}
