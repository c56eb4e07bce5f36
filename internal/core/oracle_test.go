package core

import (
	"context"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// allPairs enumerates every two-vector test of a circuit with n primary
// inputs (4^n pairs), for use as a brute-force detectability oracle on tiny
// circuits.
func allPairs(c *circuit.Circuit) []pattern.Pair {
	n := len(c.Inputs())
	total := 1 << uint(2*n)
	pairs := make([]pattern.Pair, 0, total)
	for code := 0; code < total; code++ {
		p := pattern.NewPair(n)
		for i := 0; i < n; i++ {
			if code>>(uint(i))&1 == 1 {
				p.V1[i] = logic.One3
			} else {
				p.V1[i] = logic.Zero3
			}
			if code>>(uint(n+i))&1 == 1 {
				p.V2[i] = logic.One3
			} else {
				p.V2[i] = logic.Zero3
			}
		}
		pairs = append(pairs, p)
	}
	return pairs
}

// oracleCircuits are small circuits without XOR gates (the generator fixes
// XOR side inputs at stable 0 by convention, which can prove a testable
// fault redundant; see docs/ARCHITECTURE.md, "XOR side inputs") so exact
// agreement with the brute-force oracle is required.
func oracleCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	b := circuit.NewBuilder("mix5")
	a := b.Input("a")
	bb := b.Input("b")
	cc := b.Input("c")
	d := b.Input("d")
	n1 := b.Gate("n1", logic.Nand, a, bb)
	o1 := b.Gate("o1", logic.Nor, cc, d)
	i1 := b.Gate("i1", logic.Not, n1)
	g1 := b.Gate("g1", logic.And, n1, o1)
	g2 := b.Gate("g2", logic.Or, i1, o1, a)
	z1 := b.Gate("z1", logic.Nand, g1, g2)
	b.Output(z1)
	b.Output(g2)
	mix, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	return []*circuit.Circuit{
		bench.PaperExample(),
		bench.C17(),
		bench.RedundantExample(),
		bench.MuxTree(2),
		mix,
	}
}

// TestGeneratorMatchesBruteForceOracle is the strongest end-to-end property
// of the generator: on circuits small enough to enumerate every possible
// two-vector test, a fault is classified as detected if and only if some
// pair detects it (in the selected test class), and a fault classified as
// redundant has no detecting pair at all.  Aborted faults (there should be
// none on these circuits) are excluded.
func TestGeneratorMatchesBruteForceOracle(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force enumeration is skipped in -short mode")
	}
	for _, c := range oracleCircuits(t) {
		if len(c.Inputs()) > 6 {
			t.Fatalf("%s has too many inputs for the oracle", c.Name)
		}
		pairs := allPairs(c)
		faults := paths.EnumerateFaults(c, 0)
		for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
			robust := mode == sensitize.Robust
			oracle, err := faultsim.Run(c, pairs, faults, robust)
			if err != nil {
				t.Fatal(err)
			}
			g := New(c, DefaultOptions(mode))
			results := RunSharded(context.Background(), g, faults, 1)
			for i, r := range results {
				if r.Status == Aborted {
					t.Errorf("%s/%s: fault %s aborted on a tiny circuit", c.Name, mode, r.Fault.Describe(c))
					continue
				}
				detectable := oracle.Detected[i]
				claimed := r.Status.Detected()
				if claimed && !detectable {
					t.Errorf("%s/%s: generator claims a test for %s but no pair detects it",
						c.Name, mode, r.Fault.Describe(c))
				}
				if !claimed && detectable {
					t.Errorf("%s/%s: generator calls %s %v but the oracle finds a detecting pair",
						c.Name, mode, r.Fault.Describe(c), r.Status)
				}
			}
		}
	}
}

// TestOracleMonotonicity checks, on the same tiny circuits, the containment
// the two test classes must satisfy pair by pair: the set of robustly
// detected faults of the whole pair universe is a subset of the nonrobustly
// detected ones.
func TestOracleMonotonicity(t *testing.T) {
	if testing.Short() {
		t.Skip("brute-force enumeration is skipped in -short mode")
	}
	for _, c := range oracleCircuits(t) {
		pairs := allPairs(c)
		faults := paths.EnumerateFaults(c, 0)
		rob, err := faultsim.Run(c, pairs, faults, true)
		if err != nil {
			t.Fatal(err)
		}
		non, err := faultsim.Run(c, pairs, faults, false)
		if err != nil {
			t.Fatal(err)
		}
		for i := range faults {
			if rob.Detected[i] && !non.Detected[i] {
				t.Errorf("%s: fault %s robustly detectable but not nonrobustly", c.Name, faults[i].Describe(c))
			}
		}
	}
}
