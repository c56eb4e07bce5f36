package logic

// Word7 holds 64 seven-valued logic values, one per bit level, in four bit
// planes following Table 2 of the paper.  The zero value is "X at every bit
// level" and is ready to use.
type Word7 struct {
	Zero     uint64 // the 0-bit plane: final value 0
	One      uint64 // the 1-bit plane: final value 1
	Stable   uint64 // the stable-bit plane: constant, hazard-free
	Instable uint64 // the instable-bit plane: carries a transition
}

// FillWord7 returns a word holding v at every bit level.
func FillWord7(v Value7) Word7 {
	var w Word7
	if v.ZeroBit() {
		w.Zero = AllLevels
	}
	if v.OneBit() {
		w.One = AllLevels
	}
	if v.StableBit() {
		w.Stable = AllLevels
	}
	if v.InstableBit() {
		w.Instable = AllLevels
	}
	return w
}

// Get returns the value at bit level i.
func (w Word7) Get(i int) Value7 {
	var v Value7
	if w.Zero>>uint(i)&1 != 0 {
		v |= zeroBit7
	}
	if w.One>>uint(i)&1 != 0 {
		v |= oneBit7
	}
	if w.Stable>>uint(i)&1 != 0 {
		v |= stableBit7
	}
	if w.Instable>>uint(i)&1 != 0 {
		v |= instableBit7
	}
	return v
}

// Set stores v at bit level i, replacing the previous value.
func (w *Word7) Set(i int, v Value7) {
	mask := uint64(1) << uint(i)
	w.Zero &^= mask
	w.One &^= mask
	w.Stable &^= mask
	w.Instable &^= mask
	if v.ZeroBit() {
		w.Zero |= mask
	}
	if v.OneBit() {
		w.One |= mask
	}
	if v.StableBit() {
		w.Stable |= mask
	}
	if v.InstableBit() {
		w.Instable |= mask
	}
}

// MergeAt accumulates the requirement v at bit level i.
func (w *Word7) MergeAt(i int, v Value7) {
	mask := uint64(1) << uint(i)
	if v.ZeroBit() {
		w.Zero |= mask
	}
	if v.OneBit() {
		w.One |= mask
	}
	if v.StableBit() {
		w.Stable |= mask
	}
	if v.InstableBit() {
		w.Instable |= mask
	}
}

// SelectLevels keeps only the bit levels selected by mask.
func (w Word7) SelectLevels(mask Mask) Word7 {
	m := uint64(mask)
	return Word7{Zero: w.Zero & m, One: w.One & m, Stable: w.Stable & m, Instable: w.Instable & m}
}

// Not returns the complement: the value planes are swapped while the
// stability planes are preserved.
func (w Word7) Not() Word7 {
	return Word7{Zero: w.One, One: w.Zero, Stable: w.Stable, Instable: w.Instable}
}

// InitialPlanes returns two planes giving, per bit level, whether the initial
// (first-vector) value is known to be 0 or known to be 1.
func (w Word7) InitialPlanes() (init0, init1 uint64) {
	init0 = (w.Zero & w.Stable) | (w.One & w.Instable)
	init1 = (w.One & w.Stable) | (w.Zero & w.Instable)
	return init0, init1
}

// EvalGate7 evaluates a gate of the given kind over bit-parallel seven-valued
// inputs.  The result at levels where some input holds a conflict encoding is
// unspecified.
//
//atpgvet:noalloc
func EvalGate7(kind Kind, in []Word7) Word7 {
	switch kind {
	case Buf, Input:
		if len(in) == 0 {
			return Word7{}
		}
		return in[0]
	case Not:
		if len(in) == 0 {
			return Word7{}
		}
		return in[0].Not()
	case Const0:
		return FillWord7(Stable0)
	case Const1:
		return FillWord7(Stable1)
	case And:
		return andWord7(in)
	case Nand:
		return andWord7(in).Not()
	case Or:
		return orWord7(in)
	case Nor:
		return orWord7(in).Not()
	case Xor:
		return xorWord7(in)
	case Xnor:
		return xorWord7(in).Not()
	}
	return Word7{}
}

// andWord7 is the bit-parallel counterpart of the scalar and7: the final
// value planes follow the three-valued AND, the initial value planes follow
// the three-valued AND of the derived initial values, the output is stable
// where all inputs are stable or some input is a stable 0, and a transition
// is recorded where initial and final values are known and differ.
func andWord7(in []Word7) Word7 {
	if len(in) == 0 {
		return Word7{}
	}
	outZero := uint64(0)
	outOne := AllLevels
	outInit0 := uint64(0)
	outInit1 := AllLevels
	allStable := AllLevels
	anyStableZero := uint64(0)
	for _, w := range in {
		outZero |= w.Zero
		outOne &= w.One
		i0, i1 := w.InitialPlanes()
		outInit0 |= i0
		outInit1 &= i1
		allStable &= w.Stable
		anyStableZero |= w.Zero & w.Stable
	}
	return compose7Word(outZero, outOne, outInit0, outInit1, allStable|anyStableZero)
}

func orWord7(in []Word7) Word7 {
	if len(in) == 0 {
		return Word7{}
	}
	outZero := AllLevels
	outOne := uint64(0)
	outInit0 := AllLevels
	outInit1 := uint64(0)
	allStable := AllLevels
	anyStableOne := uint64(0)
	for _, w := range in {
		outZero &= w.Zero
		outOne |= w.One
		i0, i1 := w.InitialPlanes()
		outInit0 &= i0
		outInit1 |= i1
		allStable &= w.Stable
		anyStableOne |= w.One & w.Stable
	}
	return compose7Word(outZero, outOne, outInit0, outInit1, allStable|anyStableOne)
}

func xorWord7(in []Word7) Word7 {
	if len(in) == 0 {
		return Word7{}
	}
	finalAssigned := AllLevels
	finalParity := uint64(0)
	initAssigned := AllLevels
	initParity := uint64(0)
	allStable := AllLevels
	for _, w := range in {
		finalAssigned &= w.Zero ^ w.One
		finalParity ^= w.One
		i0, i1 := w.InitialPlanes()
		initAssigned &= i0 ^ i1
		initParity ^= i1
		allStable &= w.Stable
	}
	outZero := finalAssigned &^ finalParity
	outOne := finalAssigned & finalParity
	outInit0 := initAssigned &^ initParity
	outInit1 := initAssigned & initParity
	return compose7Word(outZero, outOne, outInit0, outInit1, allStable)
}

// compose7Word assembles the four output planes from final value planes,
// initial value planes and a per-level stability guarantee, mirroring the
// scalar compose7.
func compose7Word(zero, one, init0, init1, stable uint64) Word7 {
	f0 := zero &^ one
	f1 := one &^ zero
	known := f0 | f1
	outStable := known & stable
	outInstable := ((f1 & init0) | (f0 & init1)) &^ stable
	return Word7{
		Zero:     zero,
		One:      one,
		Stable:   outStable,
		Instable: outInstable,
	}
}
