package faultsim

import (
	"math/rand"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
)

// pairFor builds a test pair for the circuit from a map of input name to
// (v1, v2) values.
func pairFor(c *circuit.Circuit, vals map[string][2]logic.Value3) pattern.Pair {
	p := pattern.NewPair(len(c.Inputs()))
	for i, in := range c.Inputs() {
		if v, ok := vals[c.NetName(in)]; ok {
			p.V1[i], p.V2[i] = v[0], v[1]
		}
	}
	return p
}

func pathByNames(t *testing.T, c *circuit.Circuit, names ...string) paths.Path {
	t.Helper()
	nets := make([]circuit.NetID, len(names))
	for i, n := range names {
		nets[i] = c.NetByName(n)
	}
	p := paths.Path{Nets: nets}
	if err := p.Validate(c); err != nil {
		t.Fatalf("invalid path %v: %v", names, err)
	}
	return p
}

const (
	lo = iota
	hi
)

func v(a, b int) [2]logic.Value3 {
	conv := func(x int) logic.Value3 {
		if x == hi {
			return logic.One3
		}
		return logic.Zero3
	}
	return [2]logic.Value3{conv(a), conv(b)}
}

func TestDetectsC17HandChecked(t *testing.T) {
	c := bench.C17()
	sim := New(c)
	// Target path 3 - 11 - 16 - 22, rising at 3.
	// Side conditions: 6 = 1 (final), 2 = stable 1, 10 = 1 (final).
	// 10 = NAND(1,3): with 3 rising, 10 ends at NAND(1,1): choose 1 = 0 so
	// that 10 = 1 in the final vector.
	fault := paths.Fault{Path: pathByNames(t, c, "3", "11", "16", "22"), Transition: paths.Rising}
	good := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{good}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, true); mask != 1 {
		t.Errorf("good pair should robustly detect the fault, mask = %b", mask)
	}
	if mask := sim.Detects(fault, false); mask != 1 {
		t.Errorf("good pair should nonrobustly detect the fault, mask = %b", mask)
	}

	// Without the launch transition (3 held stable) nothing is detected.
	noLaunch := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(hi, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{noLaunch}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, false); mask != 0 {
		t.Errorf("pair without a launch transition must not detect, mask = %b", mask)
	}

	// Side input 2 falling (1 -> 0 would block; use 0 -> 1 rising): gate 16
	// sees its side input change, which breaks the robust condition for the
	// falling on-path transition at 11, but the nonrobust condition (final
	// value 1) still holds.
	hazard := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{hazard}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, true); mask != 0 {
		t.Errorf("changing side input 2 must break robust detection, mask = %b", mask)
	}
	if mask := sim.Detects(fault, false); mask != 1 {
		t.Errorf("nonrobust detection should survive a changing side input, mask = %b", mask)
	}

	// Wrong final value on a side input kills even nonrobust detection.
	blocked := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, lo), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	if _, err := sim.Load([]pattern.Pair{blocked}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, false); mask != 0 {
		t.Errorf("controlling side value must block detection, mask = %b", mask)
	}
}

func TestDetectsBatchParallel(t *testing.T) {
	c := bench.C17()
	fault := paths.Fault{Path: pathByNames(t, c, "3", "11", "16", "22"), Transition: paths.Rising}
	good := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(hi, hi), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	bad := pairFor(c, map[string][2]logic.Value3{
		"1": v(lo, lo), "2": v(lo, lo), "3": v(lo, hi), "6": v(hi, hi), "7": v(lo, lo),
	})
	sim := New(c)
	n, err := sim.Load([]pattern.Pair{bad, good, bad, good})
	if err != nil {
		t.Fatal(err)
	}
	if n != 4 {
		t.Fatalf("loaded %d pairs", n)
	}
	if mask := sim.Detects(fault, true); mask != 0b1010 {
		t.Errorf("detection mask = %04b, want 1010", mask)
	}
	if sim.BatchMask() != 0b1111 {
		t.Errorf("batch mask = %b", sim.BatchMask())
	}
}

// TestRobustImpliesNonrobust is the fundamental containment property of the
// two test classes: any robustly detected (fault, pair) combination is also
// nonrobustly detected.
func TestRobustImpliesNonrobust(t *testing.T) {
	circuits := []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.Adder(4), bench.MuxTree(2)}
	for _, c := range circuits {
		faults := paths.EnumerateFaults(c, 200)
		pairs := randomPairs(c, 64, 12345)
		sim := New(c)
		if _, err := sim.Load(pairs); err != nil {
			t.Fatal(err)
		}
		for _, f := range faults {
			rob := sim.Detects(f, true)
			non := sim.Detects(f, false)
			if rob&^non != 0 {
				t.Fatalf("%s: fault %s robustly detected on pairs %b but not nonrobustly (%b)",
					c.Name, f.Describe(c), rob, non)
			}
		}
	}
}

func randomPairs(c *circuit.Circuit, n int, seed int64) []pattern.Pair {
	// Simple deterministic pseudo-random vectors (xorshift) — enough for
	// property tests without importing math/rand here.
	state := uint64(seed)
	next := func() uint64 {
		state ^= state << 13
		state ^= state >> 7
		state ^= state << 17
		return state
	}
	pairs := make([]pattern.Pair, n)
	for i := range pairs {
		p := pattern.NewPair(len(c.Inputs()))
		for j := range p.V1 {
			if next()&1 == 1 {
				p.V1[j] = logic.One3
			} else {
				p.V1[j] = logic.Zero3
			}
			if next()&1 == 1 {
				p.V2[j] = logic.One3
			} else {
				p.V2[j] = logic.Zero3
			}
		}
		pairs[i] = p
	}
	return pairs
}

func TestRunAndCoverage(t *testing.T) {
	c := bench.C17()
	faults := paths.EnumerateFaults(c, 0)
	if len(faults) != 22 {
		t.Fatalf("c17 should have 22 faults, got %d", len(faults))
	}
	pairs := randomPairs(c, 128, 999)
	res, err := Run(c, pairs, faults, false)
	if err != nil {
		t.Fatal(err)
	}
	if res.NumDetected == 0 {
		t.Error("128 random pairs should detect at least one fault of c17")
	}
	count := 0
	for i, d := range res.Detected {
		if d {
			count++
			if res.DetectedBy[i] < 0 || res.DetectedBy[i] >= len(pairs) {
				t.Errorf("DetectedBy[%d] = %d out of range", i, res.DetectedBy[i])
			}
		} else if res.DetectedBy[i] != -1 {
			t.Errorf("undetected fault %d has DetectedBy %d", i, res.DetectedBy[i])
		}
	}
	if count != res.NumDetected {
		t.Errorf("NumDetected %d != counted %d", res.NumDetected, count)
	}
	cov, err := Coverage(c, pairs, faults, false)
	if err != nil {
		t.Fatal(err)
	}
	if cov != float64(res.NumDetected)/22 {
		t.Errorf("coverage %v inconsistent with %d/22", cov, res.NumDetected)
	}
	covR, err := Coverage(c, pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	if covR > cov {
		t.Errorf("robust coverage %v cannot exceed nonrobust coverage %v", covR, cov)
	}
	// Empty fault list yields zero coverage without error.
	if z, err := Coverage(c, pairs, nil, false); err != nil || z != 0 {
		t.Errorf("Coverage with no faults = %v, %v", z, err)
	}
}

func TestEstimateCoverage(t *testing.T) {
	c := bench.Adder(6)
	pairs := randomPairs(c, 256, 4242)
	est, n, err := EstimateCoverage(c, pairs, 100, 7, false)
	if err != nil {
		t.Fatal(err)
	}
	if n == 0 {
		t.Fatal("no faults sampled")
	}
	if est < 0 || est > 1 {
		t.Errorf("estimate %v out of range", est)
	}
	// The estimate should not be wildly off the exhaustive value for this
	// small circuit.
	exact, err := Coverage(c, pairs, paths.EnumerateFaults(c, 0), false)
	if err != nil {
		t.Fatal(err)
	}
	if est == 0 && exact > 0.3 {
		t.Errorf("estimate 0 but exact coverage %v", exact)
	}
}

func TestLoadErrors(t *testing.T) {
	c := bench.C17()
	sim := New(c)
	bad := pattern.NewPair(3)
	if _, err := sim.Load([]pattern.Pair{bad}); err == nil {
		t.Error("loading a pair with the wrong arity should fail")
	}
	if sim.BatchMask() != 0 {
		t.Errorf("batch mask after a failed Load = %b, want an empty batch", sim.BatchMask())
	}
	// More than BatchSize pairs: only the first BatchSize are loaded.
	many := make([]pattern.Pair, BatchSize+10)
	for i := range many {
		many[i] = pattern.NewPair(len(c.Inputs())).FillX(logic.Zero3)
	}
	n, err := sim.Load(many)
	if err != nil {
		t.Fatal(err)
	}
	if n != BatchSize {
		t.Errorf("loaded %d pairs, want %d", n, BatchSize)
	}
}

// BenchmarkFaultSimC880Class simulates one 64-pair batch against 500
// faults of the c880 stand-in, robustly.  It must not allocate.
func BenchmarkFaultSimC880Class(b *testing.B) {
	batch := c880Batch(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		batch()
	}
}

// c880Batch returns one batch of BenchmarkFaultSimC880Class: 64 random
// pairs loaded and 500 sampled c880 faults simulated against them.  It runs
// the batch once before returning, which allocates the simulator's per-net
// state and grows its evaluation stack.
func c880Batch(tb testing.TB) func() {
	tb.Helper()
	p, _ := bench.ProfileByName("c880")
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 500, 3)
	pairs := randomPairs(c, 64, 17)
	sim := New(c)
	batch := func() {
		if _, err := sim.Load(pairs); err != nil {
			tb.Fatal(err)
		}
		for _, f := range faults {
			sim.Detects(f, true)
		}
	}
	batch()
	return batch
}

// TestRunParallelMatchesRun checks that the batch-sharded simulation gives
// Run's result on any number of simulators, including pair counts that
// leave a partial last batch, and that a pair that does not load in a later
// batch fails the run with the error Run reports.
func TestRunParallelMatchesRun(t *testing.T) {
	c, err := bench.Get("adder8")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	for _, n := range []int{1, 63, 64, 65, 100, 200, 330} {
		pairs := randomPairs(c, n, int64(7+n))
		for _, robust := range []bool{false, true} {
			want, err := Run(c, pairs, faults, robust)
			if err != nil {
				t.Fatal(err)
			}
			for _, workers := range []int{2, 3, 16, 1000} {
				got, err := RunParallel(c, pairs, faults, robust, workers)
				if err != nil {
					t.Fatal(err)
				}
				if got.NumDetected != want.NumDetected {
					t.Errorf("pairs=%d workers=%d robust=%v: NumDetected %d, want %d",
						n, workers, robust, got.NumDetected, want.NumDetected)
				}
				for i := range faults {
					if got.Detected[i] != want.Detected[i] || got.DetectedBy[i] != want.DetectedBy[i] {
						t.Errorf("pairs=%d workers=%d robust=%v fault %d: (%v, %d), want (%v, %d)",
							n, workers, robust, i, got.Detected[i], got.DetectedBy[i],
							want.Detected[i], want.DetectedBy[i])
					}
				}
			}
		}
	}
	// A pair/input mismatch must surface from the simulators, not be
	// swallowed: in the first batch, and in a later batch of a set whose
	// earlier batches load, where the error is the lowest failing batch's.
	bad := []pattern.Pair{pattern.NewPair(1)}
	if _, err := RunParallel(c, bad, faults, false, 4); err == nil {
		t.Error("RunParallel with malformed pairs: expected an error")
	}
	pairs := randomPairs(c, 300, 11)
	pairs[2*BatchSize+5] = pattern.NewPair(1)
	pairs[4*BatchSize+1] = pattern.NewPair(2)
	_, want := Run(c, pairs, faults, false)
	if want == nil {
		t.Fatal("Run with a malformed pair in batch 2: expected an error")
	}
	for _, workers := range []int{2, 3, 4} {
		if _, err := RunParallel(c, pairs, faults, false, workers); err == nil || err.Error() != want.Error() {
			t.Errorf("workers=%d, malformed pair in batch 2: error %v, want %v", workers, err, want)
		}
	}
}

// sweep is the reference evaluation the demand-driven simulator replaces:
// every net of the circuit for the batch, in topological order.
func sweep(c *circuit.Circuit, pairs []pattern.Pair) []logic.Word7 {
	vals := make([]logic.Word7, c.NumNets())
	for i, in := range c.Inputs() {
		for j, p := range pairs {
			vals[in].MergeAt(j, p.Value7(i))
		}
	}
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		if g.Kind == logic.Input {
			continue
		}
		in := make([]logic.Word7, len(g.Fanin))
		for k, f := range g.Fanin {
			in[k] = vals[f]
		}
		vals[id] = logic.EvalGate7(g.Kind, in)
	}
	return vals
}

// randomBatch draws n pairs whose values are 0, 1 or X, so inputs carry
// stable values, transitions, final-only values and X.
func randomBatch(c *circuit.Circuit, n int, rng *rand.Rand) []pattern.Pair {
	vals := []logic.Value3{logic.Zero3, logic.One3, logic.X3}
	pairs := make([]pattern.Pair, n)
	for j := range pairs {
		p := pattern.NewPair(len(c.Inputs()))
		for i := range p.V1 {
			p.V1[i], p.V2[i] = vals[rng.Intn(3)], vals[rng.Intn(3)]
		}
		pairs[j] = p
	}
	return pairs
}

// checkValues evaluates nets on demand in the given order and then compares
// every net of the circuit with the reference sweep of the batch.
func checkValues(t *testing.T, sim *Simulator, pairs []pattern.Pair, order []int, what string) {
	t.Helper()
	for _, net := range order {
		sim.value(circuit.NetID(net))
	}
	want := sweep(sim.c, pairs)
	for net := range want {
		if got := sim.value(circuit.NetID(net)); got != want[net] {
			t.Fatalf("%s: %s: net %s = %v, reference sweep gives %v",
				sim.c.Name, what, sim.c.NetName(circuit.NetID(net)), got, want[net])
		}
	}
}

// TestDemandValuesMatchSweep checks every net's demand-driven value against
// the reference sweep, on a fresh simulator and after further Loads whose
// stale values must all be ignored.
func TestDemandValuesMatchSweep(t *testing.T) {
	for _, name := range []string{"c17", "adder8", "c880", "c7552", "s38584"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		rng := rand.New(rand.NewSource(int64(c.NumNets())))
		sim := New(c)
		n := c.NumNets()

		first := randomBatch(c, BatchSize, rng)
		if _, err := sim.Load(first); err != nil {
			t.Fatal(err)
		}
		checkValues(t, sim, first, rng.Perm(n), "first batch")

		// Every net now holds a value of the first batch.  The second batch
		// is smaller, and its cones are entered from the outputs first.
		second := randomBatch(c, 37, rng)
		if _, err := sim.Load(second); err != nil {
			t.Fatal(err)
		}
		order := make([]int, 0, len(c.Outputs()))
		for _, out := range c.Outputs() {
			order = append(order, int(out))
		}
		checkValues(t, sim, second, order, "second batch")

		third := randomBatch(c, 5, rng)
		if _, err := sim.Load(third); err != nil {
			t.Fatal(err)
		}
		checkValues(t, sim, third, rng.Perm(n)[:n/3], "third batch")
	}
}

// TestXorSideInputParity pins the XOR rule of the robust check on a
// hand-built circuit, y = NAND(XOR(a, b, c), c), path a - x - y, rising at
// a.  The check expects the transition polarity of paths.Fault.Transitions
// (an XOR passes the transition uninverted) and stable XOR side inputs, at
// any values.  With b and c stable 1 the side inputs' parity is even, the
// transition arrives uninverted and the pair detects the fault robustly.
// With only c at 1 the parity is odd and the pair does not.
//
// The generator's sensitization demands stable 0 on XOR side inputs
// (sensitize.SideInputValue), so for this path it requires c stable 0 for
// the XOR and final 1 for the NAND: it proves the fault redundant although
// the first pair below detects it.
func TestXorSideInputParity(t *testing.T) {
	b := circuit.NewBuilder("xor-parity")
	a, s1, s2 := b.Input("a"), b.Input("b"), b.Input("c")
	x := b.Gate("x", logic.Xor, a, s1, s2)
	b.Output(b.Gate("y", logic.Nand, x, s2))
	c, err := b.Build()
	if err != nil {
		t.Fatal(err)
	}
	fault := paths.Fault{Path: pathByNames(t, c, "a", "x", "y"), Transition: paths.Rising}
	even := pairFor(c, map[string][2]logic.Value3{"a": v(lo, hi), "b": v(hi, hi), "c": v(hi, hi)})
	odd := pairFor(c, map[string][2]logic.Value3{"a": v(lo, hi), "b": v(lo, lo), "c": v(hi, hi)})
	sim := New(c)
	if _, err := sim.Load([]pattern.Pair{even, odd}); err != nil {
		t.Fatal(err)
	}
	if mask := sim.Detects(fault, true); mask != 0b01 {
		t.Errorf("robust detection mask = %02b, want 01 (even side-input parity only)", mask)
	}
}
