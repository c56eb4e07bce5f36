package implic

import (
	"math/rand"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// refMerge is mergeVal without the event scheduling: r, masked with the live
// levels, is ORed into val[net], and the conflicts of the result accumulate.
func refMerge(val []logic.Word7, conflict *uint64, net circuit.NetID, r logic.Word7) bool {
	r = r.SelectLevels(logic.Mask(^*conflict))
	if !adds(val[net], r) {
		return false
	}
	v := or(val[net], r)
	val[net] = v
	*conflict |= (v.Zero & v.One) | (v.Stable & v.Instable)
	return true
}

// refBackImply is the backward implication of a multi-input gate written
// per fanin, as the rules read: for each fanin in turn it takes "every other
// fanin" by a loop over the others, reading Val as the earlier merges of the
// call left it, and merges the result.
func refBackImply(g *circuit.Gate, val []logic.Word7, conflict *uint64, a uint64) bool {
	out := val[g.ID]
	z, on := out.Zero, out.One
	if g.Kind == logic.Nand || g.Kind == logic.Or || g.Kind == logic.Xnor {
		z, on = on, z // OR is the dual of NAND, NOR that of AND
	}
	f1, f0 := on&^z, z&^on
	st, inst := out.Stable, out.Instable
	dual := g.Kind == logic.Or || g.Kind == logic.Nor
	changed := false
	merge := func(net circuit.NetID, r logic.Word7) {
		if refMerge(val, conflict, net, r) {
			changed = true
		}
	}
	if g.Kind == logic.Xor || g.Kind == logic.Xnor {
		for i, net := range g.Fanin {
			othersKnown, othersParity := ^uint64(0), uint64(0)
			for j, other := range g.Fanin {
				if j != i {
					w := val[other]
					othersKnown &= w.One ^ w.Zero
					othersParity ^= w.One &^ w.Zero
				}
			}
			mask := (f0 | f1) & othersKnown
			wantOne := (f1 &^ othersParity) | (f0 & othersParity)
			merge(net, logic.Word7{Zero: mask &^ wantOne & a, One: mask & wantOne & a})
		}
		return changed
	}
	for i, net := range g.Fanin {
		othersStable := ^uint64(0)
		for j, other := range g.Fanin {
			if j != i {
				othersStable &= val[other].Stable
			}
		}
		ri := f1 & inst & othersStable
		rz, ro := uint64(0), f1
		if dual {
			rz, ro = ro, rz
		}
		merge(net, logic.Word7{Zero: rz & a, One: ro & a, Stable: f1 & st & a, Instable: ri & a})
	}
	for i, net := range g.Fanin {
		othersOne := ^uint64(0) // under the dual, every other fanin is 0
		for j, other := range g.Fanin {
			if j == i {
				continue
			}
			if dual {
				othersOne &= val[other].Zero
			} else {
				othersOne &= val[other].One
			}
		}
		forced := f0 & othersOne
		rz, ro := forced, uint64(0)
		if dual {
			rz, ro = ro, rz
		}
		merge(net, logic.Word7{Zero: rz & a, One: ro & a, Stable: forced & st & a, Instable: forced & inst & a})
	}
	return changed
}

// randKernelWord returns a random word: each level holds the level's common
// value with probability 7/8, else X or another value, and with probability
// 1/64 a conflict encoding.  Words drawn from one common word make the
// "every other fanin" rules fire on many levels.
func randKernelWord(rng *rand.Rand, common []logic.Value7) logic.Word7 {
	var w logic.Word7
	for lvl, v := range common {
		switch r := rng.Intn(64); {
		case r == 0:
			w.Set(lvl, logic.Stable0)
			w.MergeAt(lvl, logic.Rise7)
		case r < 56:
			w.Set(lvl, v)
		case r < 60:
			w.Set(lvl, kernelValues[rng.Intn(len(kernelValues))])
		}
	}
	return w
}

// kernelValues are the known seven-valued values the kernel test draws.
var kernelValues = []logic.Value7{logic.Stable0, logic.Stable1, logic.Rise7, logic.Fall7, logic.Final0, logic.Final1}

// TestBackImplyMatchesPerFaninReference pins the backward kernels, which
// read the other fanins from aggregates taken once per call, to refBackImply
// on wide AND, NAND, OR, NOR, XOR and XNOR gates and on gates that repeat a
// fanin.  The fanin and output words are random, with the conflict mask the
// union of their conflicts, as the engine keeps it; the kernels must leave
// every Val word, the conflict mask and the change report as the reference
// does.
func TestBackImplyMatchesPerFaninReference(t *testing.T) {
	b := circuit.NewBuilder("wide")
	var ins []circuit.NetID
	for i := 0; i < 12; i++ {
		ins = append(ins, b.Input(string(rune('a'+i))))
	}
	var gates []circuit.NetID
	for _, k := range []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor} {
		gates = append(gates,
			b.Gate("w"+k.String(), k, ins...),
			b.Gate("r"+k.String(), k, ins[0], ins[1], ins[0], ins[2]))
	}
	for _, g := range gates {
		b.Output(g)
	}
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	rng := rand.New(rand.NewSource(1995))
	st := NewState(c)
	implied := 0
	for trial := 0; trial < 400; trial++ {
		for _, id := range gates {
			g := c.Gate(id)
			active := logic.Mask(rng.Uint64() | rng.Uint64())
			st.Reset(active)
			common := make([]logic.Value7, logic.WordWidth)
			for lvl := range common {
				common[lvl] = kernelValues[rng.Intn(len(kernelValues))]
			}
			for n := range st.val {
				st.val[n] = randKernelWord(rng, common)
				st.valConflict |= (st.val[n].Zero & st.val[n].One) | (st.val[n].Stable & st.val[n].Instable)
			}
			want := append([]logic.Word7(nil), st.val...)
			wantConflict := st.valConflict
			wantChanged := refBackImply(g, want, &wantConflict, uint64(active))
			if got := st.backImply(g); got != wantChanged {
				t.Fatalf("trial %d, %s: backImply reports change %v, reference %v", trial, c.NetName(id), got, wantChanged)
			}
			if st.valConflict != wantConflict {
				t.Fatalf("trial %d, %s: conflict mask %x, reference %x", trial, c.NetName(id), st.valConflict, wantConflict)
			}
			for n := range want {
				if st.val[n] != want[n] {
					t.Fatalf("trial %d, %s: Val[%s] = %x, reference %x", trial, c.NetName(id), c.NetName(circuit.NetID(n)), st.val[n], want[n])
				}
			}
			if wantChanged {
				implied++
			}
		}
	}
	if implied < 1000 {
		t.Fatalf("only %d of %d calls implied anything", implied, 400*len(gates))
	}
}
