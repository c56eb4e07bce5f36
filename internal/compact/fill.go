package compact

import (
	"fmt"

	"repro/internal/logic"
	"repro/internal/pattern"
)

// Filler turns an X-preserving pair into a fully specified one.  Fillers are
// applied only after compatible-pair merging: merging needs the don't-care
// information, filling destroys it.  All fillers keep V1 = V2 at positions
// where both vectors were unconstrained, so no spurious transitions are
// introduced (spurious transitions could invalidate robust detections the
// merge is supposed to preserve).
//
// A Filler is one of three strategies, named by Name and made by ZeroFill,
// OneFill, RandomFill or ParseFill; the zero value is ZeroFill.
type Filler struct {
	kind fillKind
	seed int64 // RandomFill's seed
}

type fillKind uint8

const (
	fillZero fillKind = iota
	fillOne
	fillRandom
)

// fillNames are the ParseFill spellings, indexed by fillKind.
var fillNames = [...]string{"zero", "one", "random"}

// ZeroFill returns the filler assigning logic 0 to every don't care, the
// generator's default fill value.
func ZeroFill() Filler { return Filler{} }

// OneFill returns the filler assigning logic 1 to every don't care.
func OneFill() Filler { return Filler{kind: fillOne} }

// RandomFill returns the deterministic seeded random filler.  The fill of a
// pair depends only on the seed, the pair's contents and the position, never
// on call order, so repeated compactions of the same set are bit-identical.
func RandomFill(seed int64) Filler { return Filler{kind: fillRandom, seed: seed} }

// ParseFill parses the spelling of a fill strategy: "zero", "one" or
// "random" (seeded with seed); the empty string means zero.
func ParseFill(name string, seed int64) (Filler, error) {
	switch name {
	case "zero", "":
		return ZeroFill(), nil
	case "one":
		return OneFill(), nil
	case "random":
		return RandomFill(seed), nil
	}
	return Filler{}, fmt.Errorf("compact: unknown X-fill %q (want zero, one or random)", name)
}

// Name returns the strategy's ParseFill spelling.
func (f Filler) Name() string { return fillNames[f.kind] }

// Seed returns the seed of a random filler; it is 0 for the others.
func (f Filler) Seed() int64 { return f.seed }

// Fill returns a fully specified copy of p.  Positions already assigned are
// never changed.
func (f Filler) Fill(p pattern.Pair) pattern.Pair {
	switch f.kind {
	case fillOne:
		return p.FillX(logic.One3)
	case fillRandom:
		return f.randomFill(p)
	}
	return p.FillX(logic.Zero3)
}

func (f Filler) randomFill(p pattern.Pair) pattern.Pair {
	out := p.Clone()
	// FNV-style hash over the specified bits of the pair, salted by the
	// seed, so distinct pairs draw distinct fill streams.
	h := uint64(14695981039346656037) ^ uint64(f.seed)
	for i := range out.V2 {
		h = (h ^ uint64(out.V1[i]) ^ uint64(out.V2[i])<<2 ^ uint64(i)<<4) * 1099511628211
	}
	for i := range out.V2 {
		if out.V2[i] == logic.X3 {
			h = (h ^ uint64(i)) * 1099511628211
			if (h>>33)&1 == 1 {
				out.V2[i] = logic.One3
			} else {
				out.V2[i] = logic.Zero3
			}
		}
		if out.V1[i] == logic.X3 {
			out.V1[i] = out.V2[i]
		}
	}
	return out
}
