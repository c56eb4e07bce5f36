package core

import (
	"bytes"
	"context"
	"fmt"
	"math/rand"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// The soundness oracle checks the generator's verdicts on circuits small
// enough that faultsim can try every two-vector test (allPairs):
//
//   - a fault the generator covers (Tested, or DetectedBySim) is detected
//     by some pair;
//   - on a circuit without XOR or XNOR gates, a fault it proves Redundant
//     is detected by no pair.
//
// Aborted faults are skipped.  The Redundant check is left out on circuits
// with XOR or XNOR gates because of a known defect: the generator demands a
// stable 0 (robust) or a final 0 (nonrobust) on every XOR and XNOR side
// input (sensitize.SideInputValue), while faultsim accepts any stable side
// input, so a conflict there is no proof and detectable faults read
// Redundant (docs/ARCHITECTURE.md, "XOR side inputs").
//
// Every verdict is checked in both test classes, at one and two workers,
// at widths 1 and 64, and with the interleaved simulation off and on.  With
// it off no relabel of the final set's simulation (reconcileDrops) can hide
// a wrong verdict.

// soundConfig is one generator configuration of the oracle.
type soundConfig struct {
	workers, width int
	sim            bool
}

func (c soundConfig) String() string {
	return fmt.Sprintf("workers=%d/L=%d/sim=%v", c.workers, c.width, c.sim)
}

var soundConfigs = func() []soundConfig {
	var out []soundConfig
	for _, workers := range []int{1, 2} {
		for _, width := range []int{1, 64} {
			for _, sim := range []bool{false, true} {
				out = append(out, soundConfig{workers, width, sim})
			}
		}
	}
	return out
}()

// hasXor reports whether c holds an XOR or XNOR gate.
func hasXor(c *circuit.Circuit) bool {
	for _, g := range c.Gates() {
		if g.Kind == logic.Xor || g.Kind == logic.Xnor {
			return true
		}
	}
	return false
}

// checkSound runs the generator on every fault of c in every soundConfig
// and checks each verdict against the brute-force oracle.  On the first
// wrong verdict it logs c as .bench text, the reproducer.
func checkSound(t testing.TB, c *circuit.Circuit) {
	t.Helper()
	pairs := allPairs(c)
	faults := paths.EnumerateFaults(c, 0)
	checkRedundant := !hasXor(c)
	wrong := 0
	for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
		oracle, err := faultsim.Run(c, pairs, faults, mode == sensitize.Robust)
		if err != nil {
			t.Fatal(err)
		}
		for _, cfg := range soundConfigs {
			opts := DefaultOptions(mode)
			opts.WordWidth = cfg.width
			opts.FaultSimInterval = 0
			if cfg.sim {
				opts.FaultSimInterval = cfg.width
			}
			results := RunSharded(context.Background(), New(c, opts), faults, cfg.workers)
			for i, r := range results {
				detectable := oracle.Detected[i]
				var claim string
				switch {
				case r.Status.Detected() && !detectable:
					claim = "no pair detects it"
				case r.Status == Redundant && detectable && checkRedundant:
					claim = "a pair detects it"
				default:
					continue
				}
				if wrong == 0 {
					var text bytes.Buffer
					if err := circuit.WriteBench(&text, c); err != nil {
						t.Fatal(err)
					}
					t.Logf("%s:\n%s", c.Name, text.String())
				}
				wrong++
				t.Errorf("%s/%s/%v: %s reads %v, but %s", c.Name, mode, cfg, r.Fault.Describe(c), r.Status, claim)
			}
		}
	}
}

// soundKinds are the gate kinds a drawn or decoded circuit uses.
var (
	soundKinds   = []logic.Kind{logic.And, logic.Nand, logic.Or, logic.Nor, logic.Not, logic.Xor, logic.Xnor}
	xorFreeKinds = soundKinds[:5]
)

// smallGate is one gate of a drawn or decoded circuit: its kind and its
// distinct fanins, as indices into the nets declared before it (the inputs
// first, then the earlier gates).
type smallGate struct {
	kind  logic.Kind
	fanin []int
}

// buildSmall builds a circuit of n inputs and the given gates, in order.
// Every gate without fanout is an output.
func buildSmall(name string, n int, gates []smallGate) (*circuit.Circuit, error) {
	b := circuit.NewBuilder(name)
	nets := make([]circuit.NetID, 0, n+len(gates))
	for i := 0; i < n; i++ {
		nets = append(nets, b.Input(fmt.Sprintf("i%d", i)))
	}
	used := make([]bool, n+len(gates))
	for g, sg := range gates {
		fanin := make([]circuit.NetID, len(sg.fanin))
		for k, f := range sg.fanin {
			fanin[k] = nets[f]
			used[f] = true
		}
		nets = append(nets, b.Gate(fmt.Sprintf("g%d", g), sg.kind, fanin...))
	}
	for g := range gates {
		if !used[n+g] {
			b.Output(nets[n+g])
		}
	}
	return b.Build()
}

// drawSmall draws a circuit of 5–7 inputs and 10–17 gates over kinds: each
// gate has 2 or 3 distinct fanins (a NOT has one) among the inputs and the
// earlier gates.
func drawSmall(t *testing.T, rng *rand.Rand, name string, kinds []logic.Kind) *circuit.Circuit {
	t.Helper()
	n := 5 + rng.Intn(3)
	gates := make([]smallGate, 10+rng.Intn(8))
	for g := range gates {
		kind := kinds[rng.Intn(len(kinds))]
		k := 2 + rng.Intn(2)
		if kind == logic.Not {
			k = 1
		}
		gates[g] = smallGate{kind, rng.Perm(n + g)[:k]}
	}
	c, err := buildSmall(name, n, gates)
	if err != nil {
		t.Fatal(err)
	}
	return c
}

// TestGeneratorSoundOnSmallCircuits runs the soundness oracle on two fixed
// random draws, one with XOR and XNOR among the gate kinds and one without,
// and on the small named circuits of the bench package.  It adds breadth to
// TestGeneratorMatchesBruteForceOracle, which asks exact agreement on five
// hand-picked circuits.
func TestGeneratorSoundOnSmallCircuits(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force enumeration is skipped in -short mode")
	}
	const perDraw = 150
	var circuits []*circuit.Circuit
	for _, draw := range []struct {
		name  string
		seed  int64
		kinds []logic.Kind
	}{{"xor", 1995, soundKinds}, {"xorfree", 1996, xorFreeKinds}} {
		rng := rand.New(rand.NewSource(draw.seed))
		for k := 0; k < perDraw; k++ {
			circuits = append(circuits, drawSmall(t, rng, fmt.Sprintf("%s%d", draw.name, k), draw.kinds))
		}
	}
	circuits = append(circuits, bench.ParityTree(4), bench.Adder(2), bench.Comparator(2), bench.MuxTree(2))
	for _, c := range circuits {
		checkSound(t, c)
	}
}

// decodeSmall reads a circuit of at most 6 inputs and 16 gates from data.
// The first byte sets the input count (2–6).  Each gate then takes a kind
// byte, a fanin-count byte (2 or 3, at most the nets declared so far; a NOT
// takes 1) and one byte per fanin, each naming an earlier net; a net the
// gate already has is replaced by the next one.  Decoding stops at the
// first incomplete gate; nil means data holds no whole gate.
func decodeSmall(data []byte) *circuit.Circuit {
	if len(data) == 0 {
		return nil
	}
	n := 2 + int(data[0])%5
	data = data[1:]
	var gates []smallGate
	for len(gates) < 16 && len(data) >= 2 {
		kind := soundKinds[int(data[0])%len(soundKinds)]
		avail := n + len(gates)
		k := min(2+int(data[1])%2, avail)
		if kind == logic.Not {
			k = 1
		}
		data = data[2:]
		if len(data) < k {
			break
		}
		var fanin []int
		for _, b := range data[:k] {
			f := int(b) % avail
			for slices.Contains(fanin, f) {
				f = (f + 1) % avail
			}
			fanin = append(fanin, f)
		}
		data = data[k:]
		gates = append(gates, smallGate{kind, fanin})
	}
	if len(gates) == 0 {
		return nil
	}
	c, err := buildSmall("fuzz", n, gates)
	if err != nil {
		panic(err) // every decoded netlist is well formed
	}
	return c
}

// FuzzGeneratorSound runs the soundness oracle on circuits decoded from the
// fuzzer's bytes.
func FuzzGeneratorSound(f *testing.F) {
	// A NAND cone and a small XOR cone.
	f.Add([]byte{3, 1, 0, 0, 1, 2, 1, 1, 3, 4, 1, 5, 6, 0})
	f.Add([]byte{4, 5, 1, 0, 1, 2, 0, 4, 5, 2, 5, 0, 1, 6})
	f.Fuzz(func(t *testing.T, data []byte) {
		if c := decodeSmall(data); c != nil {
			checkSound(t, c)
		}
	})
}
