package bench

import (
	"fmt"
	"math/rand"
	"strconv"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Profile describes the structural shape of a synthetic benchmark circuit.
// The profiles shipped with this package approximate the published
// characteristics (primary inputs, outputs, gate count, logic depth) of the
// ISCAS85 and ISCAS89 circuits used in the paper's evaluation.
type Profile struct {
	// Name of the circuit, e.g. "c432" or "s1423".
	Name string
	// Inputs is the number of primary inputs.  For ISCAS89 profiles it
	// already includes the pseudo primary inputs introduced by removing the
	// flip-flops, as the paper only considers the combinational part.
	Inputs int
	// Outputs is the number of primary (plus pseudo primary) outputs.
	Outputs int
	// Gates is the approximate number of logic gates.
	Gates int
	// Depth is the target logic depth.
	Depth int
	// Seed makes the construction deterministic.
	Seed int64
	// InputFaninBias is the probability that a non-first fanin of a gate is
	// taken directly from a primary input rather than from an internal net.
	// Higher values keep the structural path count moderate; the ISCAS
	// profiles use values between 0.35 and 0.6.
	InputFaninBias float64
	// WideFaninFraction is the fraction of gates that receive three or four
	// fanins instead of two.
	WideFaninFraction float64
	// InverterFraction is the fraction of gates that are single-input
	// inverters or buffers.
	InverterFraction float64
	// Sequential marks ISCAS89-style profiles (used only for reporting).
	Sequential bool
}

func (p Profile) String() string {
	return fmt.Sprintf("%s (%d in, %d out, %d gates, depth %d)", p.Name, p.Inputs, p.Outputs, p.Gates, p.Depth)
}

// Scaled returns a copy of the profile with the gate count, input count,
// output count and depth scaled by f (at least 1 each).  It is used by the
// quick variants of the experiments.
func (p Profile) Scaled(f float64) Profile {
	scale := func(n int) int {
		v := int(float64(n) * f)
		if v < 1 {
			v = 1
		}
		return v
	}
	q := p
	q.Name = fmt.Sprintf("%s@%.2g", p.Name, f)
	q.Inputs = scale(p.Inputs)
	if q.Inputs < 4 {
		q.Inputs = 4
	}
	q.Outputs = scale(p.Outputs)
	q.Gates = scale(p.Gates)
	if q.Gates < 8 {
		q.Gates = 8
	}
	q.Depth = scale(p.Depth)
	if q.Depth < 4 {
		q.Depth = 4
	}
	return q
}

// Synthesize constructs a deterministic pseudo-random combinational circuit
// matching the profile.  The construction places gates level by level; each
// gate draws its first fanin from the previous level (building long paths up
// to the target depth) and its remaining fanins either from primary inputs
// or from earlier levels, creating the reconvergent fan-out that makes path
// delay ATPG hard.  Dangling gates are collected into the primary outputs.
// The circuit is built once, with the builder presized to the profile.
func Synthesize(p Profile) (*circuit.Circuit, error) {
	if p.Inputs < 2 {
		return nil, fmt.Errorf("bench: profile %q needs at least two inputs", p.Name)
	}
	if p.Gates < 1 {
		return nil, fmt.Errorf("bench: profile %q needs at least one gate", p.Name)
	}
	if p.Outputs < 1 {
		return nil, fmt.Errorf("bench: profile %q needs at least one output", p.Name)
	}
	depth := p.Depth
	if depth < 2 {
		depth = 2
	}
	if depth > p.Gates {
		depth = p.Gates
	}
	rng := rand.New(rand.NewSource(p.Seed))

	nets := p.Inputs + p.Gates
	b := circuit.NewBuilder(p.Name)
	b.Grow(nets)
	var nameBuf []byte
	netName := func(prefix string, n int) string {
		nameBuf = strconv.AppendInt(append(nameBuf[:0], prefix...), int64(n), 10)
		return string(nameBuf)
	}
	inputs := make([]circuit.NetID, p.Inputs)
	for i := range inputs {
		if p.Sequential && i >= p.Inputs/2 {
			inputs[i] = b.PseudoInput(netName("pi", i))
		} else {
			inputs[i] = b.Input(netName("pi", i))
		}
	}

	// Distribute gates over the levels: a mild pyramid with wider early
	// levels, narrowing toward the outputs, and at least one gate per level.
	perLevel := make([]int, depth)
	remaining := p.Gates
	for l := 0; l < depth; l++ {
		perLevel[l] = 1
		remaining--
	}
	for remaining > 0 {
		// Weight early and middle levels slightly higher.
		l := int(float64(depth) * rng.Float64() * rng.Float64())
		if l >= depth {
			l = depth - 1
		}
		perLevel[l]++
		remaining--
	}

	kinds := []logic.Kind{logic.Nand, logic.Nor, logic.And, logic.Or, logic.Nand, logic.Nand, logic.Xor}
	levels := make([][]circuit.NetID, depth+1)
	levels[0] = inputs
	for l := 1; l <= depth; l++ {
		levels[l] = make([]circuit.NetID, 0, perLevel[l-1])
	}
	all := make([]circuit.NetID, 0, nets)
	all = append(all, inputs...)
	unusedInputs := append([]circuit.NetID(nil), inputs...)
	// read marks the nets some gate reads; the others are dangling.
	read := make([]bool, nets)
	// fanin is reused from gate to gate: the builder copies it.
	var fanin []circuit.NetID
	gateNum := 0

	pickEarlier := func(maxLevel int) circuit.NetID {
		// Pick from a level < maxLevel with a bias toward recent levels.
		for {
			l := maxLevel - 1 - int(float64(maxLevel)*rng.Float64()*rng.Float64())
			if l < 0 {
				l = 0
			}
			if len(levels[l]) > 0 {
				return levels[l][rng.Intn(len(levels[l]))]
			}
		}
	}

	for l := 1; l <= depth; l++ {
		count := perLevel[l-1]
		for g := 0; g < count; g++ {
			gateNum++
			name := netName("g", gateNum)
			// Single-input gates.
			if rng.Float64() < p.InverterFraction {
				src := pickEarlier(l)
				kind := logic.Not
				if rng.Float64() < 0.3 {
					kind = logic.Buf
				}
				id := b.Gate(name, kind, src)
				read[src] = true
				levels[l] = append(levels[l], id)
				all = append(all, id)
				continue
			}
			nFanin := 2
			if rng.Float64() < p.WideFaninFraction {
				nFanin = 3 + rng.Intn(2)
			}
			fanin = fanin[:0]
			// First fanin: previous level when possible, to reach the target
			// depth.
			if len(levels[l-1]) > 0 {
				fanin = append(fanin, levels[l-1][rng.Intn(len(levels[l-1]))])
			} else {
				fanin = append(fanin, pickEarlier(l))
			}
			for attempts := 0; len(fanin) < nFanin; attempts++ {
				var cand circuit.NetID
				switch {
				case len(unusedInputs) > 0 && rng.Float64() < 0.5:
					// Consume inputs that have not been used yet so every
					// primary input drives some logic.
					cand = unusedInputs[len(unusedInputs)-1]
					unusedInputs = unusedInputs[:len(unusedInputs)-1]
				case rng.Float64() < p.InputFaninBias:
					cand = inputs[rng.Intn(len(inputs))]
				default:
					cand = pickEarlier(l)
				}
				dup := false
				for _, f := range fanin {
					if f == cand {
						dup = true
						break
					}
				}
				if !dup {
					fanin = append(fanin, cand)
					continue
				}
				if attempts > 20 {
					// Tiny circuits can run out of distinct candidates; fall
					// back to a linear scan for any net not already used.
					for _, id := range all {
						dup = false
						for _, f := range fanin {
							if f == id {
								dup = true
								break
							}
						}
						if !dup {
							fanin = append(fanin, id)
							break
						}
					}
					if len(fanin) < nFanin {
						nFanin = len(fanin) // give up on widening this gate
						if nFanin < 2 {
							fanin = append(fanin, fanin[0]) // degenerate 1-net circuit
							nFanin = 2
						}
					}
				}
			}
			kind := kinds[rng.Intn(len(kinds))]
			if kind == logic.Xor && rng.Float64() < 0.5 {
				kind = logic.Xnor
			}
			id := b.Gate(name, kind, fanin...)
			for _, f := range fanin {
				read[f] = true
			}
			levels[l] = append(levels[l], id)
			all = append(all, id)
		}
	}
	if err := b.Err(); err != nil {
		return nil, err
	}

	// Primary outputs: start with the deepest gates until the requested
	// output count is reached (each gate sits on one level, so no gate is
	// drawn twice).
	outs := make([]circuit.NetID, 0, p.Outputs)
	for l := depth; l >= 1 && len(outs) < p.Outputs; l-- {
		for _, id := range levels[l] {
			if len(outs) >= p.Outputs {
				break
			}
			outs = append(outs, id)
		}
	}
	for _, id := range outs {
		if p.Sequential && rng.Float64() < 0.5 {
			b.PseudoOutput(id)
		} else {
			b.Output(id)
		}
	}
	// Any gate no gate reads that is not an output would be dead logic and
	// would distort path counts: it becomes an output too, in ID order
	// after the drawn ones (Output leaves a drawn output where it is).
	for id := p.Inputs; id < nets; id++ {
		if !read[id] {
			b.Output(circuit.NetID(id))
		}
	}
	return b.Build()
}

// MustSynthesize is like Synthesize but panics on error; intended for use
// with the built-in profiles, which are known to be valid.
func MustSynthesize(p Profile) *circuit.Circuit {
	c, err := Synthesize(p)
	if err != nil {
		panic(fmt.Sprintf("bench: synthesizing %s: %v", p.Name, err))
	}
	return c
}
