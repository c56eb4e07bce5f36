package compact_test

import (
	"context"
	"fmt"
	"math/rand"
	"slices"
	"strings"
	"sync"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

func TestParseLevel(t *testing.T) {
	for _, tc := range []struct {
		in   string
		want compact.Level
	}{
		{"none", compact.None},
		{"", compact.None},
		{"reverse", compact.Reverse},
		{"full", compact.Full},
	} {
		got, err := compact.ParseLevel(tc.in)
		if err != nil || got != tc.want {
			t.Errorf("ParseLevel(%q) = %v, %v; want %v", tc.in, got, err, tc.want)
		}
		if tc.in != "" && got.String() != tc.in {
			t.Errorf("Level(%v).String() = %q, want %q", got, got.String(), tc.in)
		}
	}
	if _, err := compact.ParseLevel("aggressive"); err == nil {
		t.Error("ParseLevel accepted an unknown level")
	}
}

func mustPair(t *testing.T, s string) pattern.Pair {
	t.Helper()
	p, err := pattern.ParsePair(s)
	if err != nil {
		t.Fatal(err)
	}
	return p
}

func TestFillers(t *testing.T) {
	p := mustPair(t, "x0x -> x1x")
	zero := compact.ZeroFill().Fill(p)
	if zero.String() != "000 -> 010" {
		t.Errorf("ZeroFill: got %q", zero.String())
	}
	one := compact.OneFill().Fill(p)
	if one.String() != "101 -> 111" {
		t.Errorf("OneFill: got %q", one.String())
	}
	r1 := compact.RandomFill(42).Fill(p)
	r2 := compact.RandomFill(42).Fill(p)
	if r1.String() != r2.String() {
		t.Errorf("RandomFill not deterministic: %q vs %q", r1.String(), r2.String())
	}
	for i := range r1.V1 {
		if !r1.V1[i].IsAssigned() || !r1.V2[i].IsAssigned() {
			t.Fatalf("RandomFill left position %d unassigned: %s", i, r1.String())
		}
	}
	// Specified positions must never change, and a V1-only X must follow V2
	// (no spurious transitions).
	if r1.V2[1] != logic.One3 || r1.V1[1] != logic.Zero3 {
		t.Errorf("RandomFill changed specified values: %s", r1.String())
	}
	if r1.V1[0] != r1.V2[0] || r1.V1[2] != r1.V2[2] {
		t.Errorf("RandomFill introduced a spurious transition: %s", r1.String())
	}
	// Different seeds should (for this pair) disagree somewhere across a few
	// tries; identical everywhere would mean the seed is ignored.
	varies := false
	for seed := int64(0); seed < 8 && !varies; seed++ {
		if compact.RandomFill(seed).Fill(p).String() != r1.String() {
			varies = true
		}
	}
	if !varies {
		t.Error("RandomFill ignores its seed")
	}
	// Name and Seed are what the service wire carries: ParseFill must give
	// back the same filler, and the zero value is the zero fill.
	for _, f := range []compact.Filler{{}, compact.ZeroFill(), compact.OneFill(), compact.RandomFill(7)} {
		if got, err := compact.ParseFill(f.Name(), f.Seed()); err != nil || got != f {
			t.Errorf("ParseFill(%q, %d) = %v, %v; want %v", f.Name(), f.Seed(), got, err, f)
		}
	}
	if _, err := compact.ParseFill("half", 0); err == nil {
		t.Error("ParseFill accepted an unknown strategy")
	}
}

// generate runs the bit-parallel generator with unfilled-pair tracking and
// returns the circuit, fault sample and generated set.
func generate(t *testing.T, name string, n int, mode sensitize.Mode) (*circuit.Circuit, []paths.Fault, *pattern.Set) {
	t.Helper()
	c, err := bench.Get(name)
	if err != nil {
		t.Fatalf("bench.Get(%s): %v", name, err)
	}
	faults := paths.SampleFaults(c, n, 7)
	opts := core.DefaultOptions(mode)
	opts.EmitUnfilled = true
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, faults, 1)
	return c, faults, g.TestSet()
}

// detectedVector runs the full fault simulation and returns the per-fault
// detection flags.
func detectedVector(t *testing.T, c *circuit.Circuit, pairs []pattern.Pair, faults []paths.Fault, robust bool) []bool {
	t.Helper()
	res, err := faultsim.Run(c, pairs, faults, robust)
	if err != nil {
		t.Fatal(err)
	}
	return res.Detected
}

// TestCompactionInvariants is the property-style check of the compaction
// contract on three ISCAS85-class circuits: compaction never changes the
// detected-fault vector (bit-identical coverage), never grows the set, and
// is idempotent.
func TestCompactionInvariants(t *testing.T) {
	for _, name := range []string{"c432", "c499", "c880"} {
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			robust := mode == sensitize.Robust
			t.Run(name+"/"+map[bool]string{true: "robust", false: "nonrobust"}[robust], func(t *testing.T) {
				c, faults, set := generate(t, name, 96, mode)
				before := detectedVector(t, c, set.Pairs, faults, robust)

				for _, level := range []compact.Level{compact.Reverse, compact.Full} {
					out, st, err := compact.Compact(c, set, faults, robust, level, compact.ZeroFill())
					if err != nil {
						t.Fatalf("%v: %v", level, err)
					}
					if out.Len() > set.Len() {
						t.Errorf("%v: compaction grew the set: %d -> %d", level, set.Len(), out.Len())
					}
					if st.PairsBefore != set.Len() || st.PairsAfter != out.Len() {
						t.Errorf("%v: stats disagree with sets: %+v", level, st)
					}
					after := detectedVector(t, c, out.Pairs, faults, robust)
					for f := range before {
						if before[f] != after[f] {
							t.Fatalf("%v: coverage not bit-identical at fault %d: before=%v after=%v",
								level, f, before[f], after[f])
						}
					}

					// Idempotence: compacting the compacted set is a no-op.
					out2, st2, err := compact.Compact(c, out, faults, robust, level, compact.ZeroFill())
					if err != nil {
						t.Fatalf("%v (second pass): %v", level, err)
					}
					if out2.Len() != out.Len() || out2.String() != out.String() {
						t.Errorf("%v: not idempotent: %d pairs then %d pairs", level, out.Len(), out2.Len())
					}
					if st2.Merged != 0 || st2.SimDropped != 0 {
						t.Errorf("%v: second pass reports work: %+v", level, st2)
					}
				}
			})
		}
	}
}

// TestReverseOrderDropsDuplicates doubles a test set and checks that the
// reverse-order pass eliminates at least the duplicated half without
// changing coverage.
func TestReverseOrderDropsDuplicates(t *testing.T) {
	c, faults, set := generate(t, "c432", 64, sensitize.Robust)
	doubled := &pattern.Set{InputNames: set.InputNames}
	doubled.Append(set)
	doubled.Append(set)

	out, st, err := compact.Compact(c, doubled, faults, true, compact.Reverse, compact.ZeroFill())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() > set.Len() {
		t.Errorf("reverse-order pass kept %d of %d pairs; want <= %d", out.Len(), doubled.Len(), set.Len())
	}
	if st.SimDropped < set.Len() {
		t.Errorf("expected at least %d sim drops, got %d", set.Len(), st.SimDropped)
	}
	before := detectedVector(t, c, doubled.Pairs, faults, true)
	after := detectedVector(t, c, out.Pairs, faults, true)
	for f := range before {
		if before[f] != after[f] {
			t.Fatalf("coverage changed at fault %d", f)
		}
	}
}

// TestMergeUsesUnfilledPairs builds two hand-made compatible pairs and
// checks that full compaction actually merges them.
func TestMergeUsesUnfilledPairs(t *testing.T) {
	c, err := bench.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 0)
	opts := core.DefaultOptions(sensitize.Robust)
	opts.EmitUnfilled = true
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, faults, 1)
	set := g.TestSet()
	if set.Unfilled == nil {
		t.Fatal("generator did not record unfilled pairs despite EmitUnfilled")
	}
	for i := range set.Pairs {
		// The filled pair must be the zero-fill of its unfilled form.
		refilled := set.Unfilled[i].FillX(logic.Zero3)
		if refilled.String() != set.Pairs[i].String() {
			t.Fatalf("pair %d: fill of unfilled %q gives %q, want %q",
				i, set.Unfilled[i], refilled.String(), set.Pairs[i].String())
		}
	}

	out, st, err := compact.Compact(c, set, faults, true, compact.Full, compact.ZeroFill())
	if err != nil {
		t.Fatal(err)
	}
	if out.Len() >= set.Len() && st.Merged+st.SimDropped == 0 {
		t.Errorf("full compaction did nothing on c17: %d -> %d (%+v)", set.Len(), out.Len(), st)
	}
	// Merged targets keep every constituent's description.
	joined := strings.Join(out.Targets, "\n")
	for _, target := range set.Targets {
		if target != "" && !strings.Contains(joined, target) {
			t.Errorf("target %q lost by compaction", target)
		}
	}
}

func TestCompactNoneAndEmpty(t *testing.T) {
	c, err := bench.Get("c17")
	if err != nil {
		t.Fatal(err)
	}
	faults := paths.EnumerateFaults(c, 4)
	empty := &pattern.Set{}
	out, st, err := compact.Compact(c, empty, faults, true, compact.Full, compact.ZeroFill())
	if err != nil || out.Len() != 0 {
		t.Fatalf("empty set: %v, %v", out, err)
	}
	if st.PairsBefore != 0 || st.PairsAfter != 0 {
		t.Errorf("empty set stats: %+v", st)
	}
	set := &pattern.Set{}
	set.Add(pattern.NewPair(len(c.Inputs())).FillX(logic.Zero3), "t")
	if out, _, _ := compact.Compact(c, set, faults, true, compact.None, compact.ZeroFill()); out != set {
		t.Error("level None should return the input set unchanged")
	}
	if out, _, _ := compact.Compact(c, set, nil, true, compact.Full, compact.ZeroFill()); out != set {
		t.Error("empty fault list should return the input set unchanged")
	}
}

func TestStatsHelpers(t *testing.T) {
	st := compact.Stats{PairsBefore: 100, PairsAfter: 60, Merged: 30, SimDropped: 10}
	if got := st.Reduction(); got != 0.4 {
		t.Errorf("Reduction = %v, want 0.4", got)
	}
	var sum compact.Stats
	sum.Add(st)
	sum.Add(st)
	if sum.PairsBefore != 200 || sum.PairsAfter != 120 || sum.Merged != 60 {
		t.Errorf("Add: %+v", sum)
	}
	if s := st.String(); !strings.Contains(s, "100 -> 60") {
		t.Errorf("String: %q", s)
	}
	if (compact.Stats{}).Reduction() != 0 {
		t.Error("zero stats Reduction should be 0")
	}
}

// s38584Unfilled caches the X-preserving test set BenchmarkGreedyMerge
// merges: the s38584 stand-in, 1024 sampled faults, nonrobust, as in the
// large-nonrobust benchmark workload.
var s38584Unfilled = sync.OnceValues(func() (*pattern.Set, error) {
	c, err := bench.Get("s38584")
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(sensitize.Nonrobust)
	opts.EmitUnfilled = true
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, paths.SampleFaults(c, 1024, 1995), 1)
	return g.TestSet(), nil
})

// c7552Unfilled caches an X-preserving robust test set of the c7552
// stand-in, 512 sampled faults, and those faults.
var c7552Unfilled = sync.OnceValues(func() (*pattern.Set, error) {
	c, err := bench.Get("c7552")
	if err != nil {
		return nil, err
	}
	opts := core.DefaultOptions(sensitize.Robust)
	opts.EmitUnfilled = true
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, paths.SampleFaults(c, 512, 1995), 1)
	return g.TestSet(), nil
})

// randomUnfilled draws a set of n X-preserving pairs over the circuit's
// inputs, each position specified with probability density, filled with
// zeros; sparse enough that full compaction both keeps and rejects merges.
func randomUnfilled(c *circuit.Circuit, n int, density float64, seed int64) *pattern.Set {
	rng := rand.New(rand.NewSource(seed))
	set := pattern.NewSet(c)
	draw := func() logic.Value3 {
		switch {
		case rng.Float64() >= density:
			return logic.X3
		case rng.Intn(2) == 0:
			return logic.Zero3
		}
		return logic.One3
	}
	for i := 0; i < n; i++ {
		u := pattern.NewPair(len(c.Inputs()))
		for j := range u.V1 {
			u.V1[j], u.V2[j] = draw(), draw()
		}
		set.AddUnfilled(u.FillX(logic.Zero3), u, fmt.Sprintf("r%d", i))
	}
	return set
}

// TestCompactOnMatchesReference holds CompactOn, which simulates its input
// once and carries each surviving pair's detections and planes from round
// to round, to the reference that re-simulates every round's whole set on
// a fresh simulator: the same set bytes, Stats and first detecting pairs,
// on one, two and three simulators.
func TestCompactOnMatchesReference(t *testing.T) {
	type input struct {
		name   string
		c      *circuit.Circuit
		set    *pattern.Set
		faults []paths.Fault
		robust bool
	}
	var inputs []input
	for _, name := range []string{"c432", "c880"} {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		faults := paths.SampleFaults(c, 300, 3)
		for _, robust := range []bool{true, false} {
			for _, density := range []float64{0.05, 0.2} {
				inputs = append(inputs, input{
					fmt.Sprintf("random/%s/robust=%v/density=%v", name, robust, density),
					c, randomUnfilled(c, 200, density, int64(len(inputs))), faults, robust,
				})
			}
		}
	}
	if !testing.Short() {
		for _, big := range []struct {
			circuit string
			faults  int
			set     func() (*pattern.Set, error)
			robust  bool
		}{
			{"s38584", 1024, s38584Unfilled, false},
			{"c7552", 512, c7552Unfilled, true},
		} {
			c, err := bench.Get(big.circuit)
			if err != nil {
				t.Fatal(err)
			}
			set, err := big.set()
			if err != nil {
				t.Fatal(err)
			}
			inputs = append(inputs, input{big.circuit, c, set, paths.SampleFaults(c, big.faults, 1995), big.robust})
		}
	}
	for _, in := range inputs {
		for _, level := range []compact.Level{compact.Reverse, compact.Full} {
			want, wantSt, wantFirst, err := compact.ReferenceCompact(in.c, in.set, in.faults, in.robust, level, compact.ZeroFill())
			if err != nil {
				t.Fatal(err)
			}
			if wantSt.Merged == 0 && level == compact.Full && strings.HasPrefix(in.name, "random") {
				t.Errorf("%s: the reference merged nothing; the set does not exercise merging", in.name)
			}
			for sims := 1; sims <= 3; sims++ {
				ss := make([]*faultsim.Simulator, sims)
				for w := range ss {
					ss[w] = faultsim.New(in.c)
				}
				got, st, first, err := compact.CompactOn(ss, in.set, in.faults, in.robust, level, compact.ZeroFill())
				if err != nil {
					t.Fatalf("%s %v sims=%d: %v", in.name, level, sims, err)
				}
				if st != wantSt {
					t.Errorf("%s %v sims=%d: stats %+v, reference %+v", in.name, level, sims, st, wantSt)
				}
				if got.String() != want.String() {
					t.Errorf("%s %v sims=%d: the compacted set differs from the reference's", in.name, level, sims)
				}
				if !slices.Equal(first, wantFirst) {
					t.Errorf("%s %v sims=%d: first detecting pairs differ from the reference's", in.name, level, sims)
				}
			}
		}
	}
}

// buckets keeps BenchmarkGreedyMerge's result alive.
var buckets int

// BenchmarkGreedyMerge measures the merge pass of full compaction, which
// runs serially once per round, on the s38584 nonrobust unfilled set packed
// into planes (compaction packs its input once, outside the rounds).
func BenchmarkGreedyMerge(b *testing.B) {
	set, err := s38584Unfilled()
	if err != nil {
		b.Fatal(err)
	}
	planes := compact.PackSet(set)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		buckets = len(compact.GreedyMerge(planes))
	}
}

// compacted keeps BenchmarkCompact's result alive.
var compacted int

// BenchmarkCompact measures full compaction of the s38584 nonrobust
// unfilled set against its 1,024 faults, as the large-nonrobust workload's
// run ends, on one and on two simulators (a sharded run compacts on its
// workers' simulators, which the benchmark builds once, outside the loop).
func BenchmarkCompact(b *testing.B) {
	set, err := s38584Unfilled()
	if err != nil {
		b.Fatal(err)
	}
	c, err := bench.Get("s38584")
	if err != nil {
		b.Fatal(err)
	}
	faults := paths.SampleFaults(c, 1024, 1995)
	for _, n := range []int{1, 2} {
		b.Run(fmt.Sprintf("sims=%d", n), func(b *testing.B) {
			sims := make([]*faultsim.Simulator, n)
			for w := range sims {
				sims[w] = faultsim.New(c)
			}
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				out, _, _, err := compact.CompactOn(sims, set, faults, false, compact.Full, compact.ZeroFill())
				if err != nil {
					b.Fatal(err)
				}
				compacted = out.Len()
			}
		})
	}
}
