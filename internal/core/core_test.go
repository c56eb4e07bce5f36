package core

import (
	"context"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/faultsim"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sensitize"
)

// runAll generates tests for every fault of the circuit with the given
// options and performs consistency checks on the results: statuses add up,
// every generated pattern really detects its fault, and every fault dropped
// by the interleaved simulation really is covered by the test set.
func runAll(t *testing.T, c *circuit.Circuit, opts Options) (*Generator, []FaultResult) {
	t.Helper()
	faults := paths.EnumerateFaults(c, 0)
	g := New(c, opts)
	results := RunSharded(context.Background(), g, faults, 1)
	if len(results) != len(faults) {
		t.Fatalf("%s: %d results for %d faults", c.Name, len(results), len(faults))
	}
	st := g.Stats()
	if st.Faults != len(faults) {
		t.Errorf("%s: stats.Faults = %d, want %d", c.Name, st.Faults, len(faults))
	}
	counted := map[Status]int{}
	for _, r := range results {
		counted[r.Status]++
		if r.Status == Pending {
			t.Errorf("%s: fault %s left pending", c.Name, r.Fault.Describe(c))
		}
		if r.Status == Tested {
			if r.PatternIndex < 0 || r.PatternIndex >= g.TestSet().Len() {
				t.Errorf("%s: tested fault %s has bad pattern index %d", c.Name, r.Fault.Describe(c), r.PatternIndex)
			}
		}
	}
	if counted[Tested] != st.Tested || counted[Redundant] != st.Redundant ||
		counted[Aborted] != st.Aborted || counted[DetectedBySim] != st.DetectedBySim {
		t.Errorf("%s: stats %+v disagree with per-fault statuses %v", c.Name, st, counted)
	}
	if st.Tested != g.TestSet().Len() {
		t.Errorf("%s: %d tested faults but %d patterns", c.Name, st.Tested, g.TestSet().Len())
	}
	robust := opts.Mode == sensitize.Robust
	for _, r := range results {
		if r.Status != Tested {
			continue
		}
		res, err := faultsim.Run(c, []pattern.Pair{r.Test}, []paths.Fault{r.Fault}, robust)
		if err != nil {
			t.Fatalf("fault simulation: %v", err)
		}
		if !res.Detected[0] {
			t.Errorf("%s: generated pattern %s does not detect %s (%s)",
				c.Name, r.Test, r.Fault.Describe(c), opts.Mode)
		}
	}
	var simFaults []paths.Fault
	for _, r := range results {
		if r.Status == DetectedBySim {
			simFaults = append(simFaults, r.Fault)
		}
	}
	if len(simFaults) > 0 {
		res, err := faultsim.Run(c, g.TestSet().Pairs, simFaults, robust)
		if err != nil {
			t.Fatal(err)
		}
		for i, d := range res.Detected {
			if !d {
				t.Errorf("%s: fault %s marked detected-by-simulation but the test set misses it",
					c.Name, simFaults[i].Describe(c))
			}
		}
	}
	return g, results
}

func detectedCount(results []FaultResult) int {
	n := 0
	for _, r := range results {
		if r.Status.Detected() {
			n++
		}
	}
	return n
}

func abortedCount(results []FaultResult) int {
	n := 0
	for _, r := range results {
		if r.Status == Aborted {
			n++
		}
	}
	return n
}

func TestC17FullATPG(t *testing.T) {
	c := bench.C17()
	for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
		g, results := runAll(t, c, DefaultOptions(mode))
		if n := abortedCount(results); n != 0 {
			t.Errorf("%s: %d aborted faults on c17", mode, n)
		}
		if detectedCount(results) == 0 {
			t.Errorf("%s: no faults detected on c17", mode)
		}
		if g.Stats().Efficiency() != 100 {
			t.Errorf("%s: efficiency %.2f%% on c17, want 100%%", mode, g.Stats().Efficiency())
		}
	}
}

func TestSmallCircuitsFullATPG(t *testing.T) {
	circuits := []*circuit.Circuit{
		bench.PaperExample(),
		bench.RedundantExample(),
		bench.Adder(3),
		bench.MuxTree(2),
		bench.Comparator(3),
		bench.ParityTree(4),
	}
	for _, c := range circuits {
		for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
			_, results := runAll(t, c, DefaultOptions(mode))
			if n := abortedCount(results); n != 0 {
				t.Errorf("%s/%s: %d aborted faults", c.Name, mode, n)
			}
		}
	}
}

// TestNonrobustCoversRobust: a fault detectable robustly is also detectable
// nonrobustly, so with complete (abort-free) runs the nonrobust detected
// count is at least the robust one.
func TestNonrobustCoversRobust(t *testing.T) {
	for _, c := range []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.Adder(3)} {
		_, robust := runAll(t, c, DefaultOptions(sensitize.Robust))
		_, nonrobust := runAll(t, c, DefaultOptions(sensitize.Nonrobust))
		if abortedCount(robust) != 0 || abortedCount(nonrobust) != 0 {
			t.Fatalf("%s: unexpected aborts", c.Name)
		}
		if detectedCount(nonrobust) < detectedCount(robust) {
			t.Errorf("%s: nonrobust detects %d faults, robust detects %d — containment violated",
				c.Name, detectedCount(nonrobust), detectedCount(robust))
		}
	}
}

// TestSingleBitEquivalence: the single-bit baseline restricts the word width
// but explores the same search space, so on small circuits (no aborts) it
// must classify exactly the same faults as detected and as redundant.
func TestSingleBitEquivalence(t *testing.T) {
	circuits := []*circuit.Circuit{bench.C17(), bench.PaperExample(), bench.RedundantExample(), bench.Adder(3)}
	for _, c := range circuits {
		for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
			_, parallel := runAll(t, c, DefaultOptions(mode))
			_, single := runAll(t, c, SingleBitOptions(mode))
			if abortedCount(parallel) != 0 || abortedCount(single) != 0 {
				t.Fatalf("%s/%s: unexpected aborts", c.Name, mode)
			}
			for i := range parallel {
				pDet := parallel[i].Status.Detected()
				sDet := single[i].Status.Detected()
				if pDet != sDet {
					t.Errorf("%s/%s: fault %s detected=%v in parallel but %v in single-bit",
						c.Name, mode, parallel[i].Fault.Describe(c), pDet, sDet)
				}
				pRed := parallel[i].Status == Redundant
				sRed := single[i].Status == Redundant
				if pRed != sRed {
					t.Errorf("%s/%s: fault %s redundant=%v in parallel but %v in single-bit",
						c.Name, mode, parallel[i].Fault.Describe(c), pRed, sRed)
				}
			}
		}
	}
}

// TestRedundantExampleIdentifiesRedundancy: every path through gate g2 of
// the redundant example (g2 = a AND NOT a AND b, a constant 0) is robustly
// unsensitizable and must be classified Redundant (not Aborted).  Nonrobust
// tests for some of these paths exist (a static hazard on g2 can expose the
// fault when other delays cooperate), so the check applies to robust mode.
//
// This is the paper's Figure 1 rule, that every path through an
// unsensitizable subpath is redundant, on the generator alone: each such
// fault carries the subpath's requirements, so its bit level conflicts at
// the FPTPG group's first implication, before any decision.  That holds at
// every width, a one-fault group included.
func TestRedundantExampleIdentifiesRedundancy(t *testing.T) {
	c := bench.RedundantExample()
	g2 := c.NetByName("g2")
	for _, width := range []int{64, 1} {
		opts := DefaultOptions(sensitize.Robust)
		opts.WordWidth = width
		opts.FaultSimInterval = width
		_, results := runAll(t, c, opts)
		through := 0
		for _, r := range results {
			if !slices.Contains(r.Fault.Path.Nets, g2) {
				if r.Status == Aborted {
					t.Errorf("width %d: fault %s should not be aborted", width, r.Fault.Describe(c))
				}
				continue
			}
			through++
			if r.Status != Redundant || r.Phase != PhaseFPTPG || r.Decisions != 0 {
				t.Errorf("width %d: fault %s through g2 is %v/%v after %d decisions, want redundant/fptpg after none",
					width, r.Fault.Describe(c), r.Status, r.Phase, r.Decisions)
			}
		}
		if through == 0 {
			t.Fatalf("width %d: no fault runs through g2", width)
		}
	}
}

// TestFigure1FPTPG replays the FPTPG walk-through of Figure 1: the four
// paths b-p-x, b-q-s-x, c-r-s-x and c-r-s-y of the example circuit are
// processed in one fault-parallel group (plus APTPG for any level that needs
// backtracking) and each is classified as tested or redundant, with path
// b-p-x testable.
func TestFigure1FPTPG(t *testing.T) {
	c := bench.PaperExample()
	byName := func(names ...string) paths.Path {
		nets := make([]circuit.NetID, len(names))
		for i, n := range names {
			nets[i] = c.NetByName(n)
		}
		return paths.Path{Nets: nets}
	}
	faults := []paths.Fault{
		{Path: byName("b", "p", "x"), Transition: paths.Rising},
		{Path: byName("b", "q", "s", "x"), Transition: paths.Rising},
		{Path: byName("c", "r", "s", "x"), Transition: paths.Rising},
		{Path: byName("c", "r", "s", "y"), Transition: paths.Rising},
	}
	for _, f := range faults {
		if err := f.Path.Validate(c); err != nil {
			t.Fatalf("figure-1 path invalid: %v", err)
		}
	}
	g := New(c, DefaultOptions(sensitize.Nonrobust))
	results := RunSharded(context.Background(), g, faults, 1)
	for _, r := range results {
		if r.Status != Tested && r.Status != Redundant && r.Status != DetectedBySim {
			t.Errorf("fault %s ended as %v; FPTPG/APTPG should settle every figure-1 fault",
				r.Fault.Describe(c), r.Status)
		}
	}
	if !results[0].Status.Detected() {
		t.Errorf("path b-p-x should be testable, got %v", results[0].Status)
	}
	if g.Stats().FPTPGGroups == 0 {
		t.Error("the four faults should have been processed in at least one FPTPG group")
	}
}

// TestFigure2APTPG replays the APTPG walk-through of Figure 2: path a-p-x
// with a falling transition at a is handed directly to APTPG (FPTPG
// disabled) and a test is found by enumerating input alternatives.
func TestFigure2APTPG(t *testing.T) {
	c := bench.PaperExample()
	f := paths.Fault{
		Path:       paths.Path{Nets: []circuit.NetID{c.NetByName("a"), c.NetByName("p"), c.NetByName("x")}},
		Transition: paths.Falling,
	}
	if err := f.Path.Validate(c); err != nil {
		t.Fatal(err)
	}
	opts := DefaultOptions(sensitize.Nonrobust)
	opts.UseFPTPG = false
	g := New(c, opts)
	results := RunSharded(context.Background(), g, []paths.Fault{f}, 1)
	if !results[0].Status.Detected() {
		t.Fatalf("path a-p-x (falling) should be testable, got %v", results[0].Status)
	}
	if g.Stats().APTPGFaults != 1 {
		t.Errorf("APTPGFaults = %d, want 1", g.Stats().APTPGFaults)
	}
}

// TestPhaseAblations: FPTPG-only and APTPG-only configurations still settle
// every fault of small circuits; the combined configuration never does
// worse than either.
func TestPhaseAblations(t *testing.T) {
	c := bench.C17()
	mode := sensitize.Nonrobust

	both := DefaultOptions(mode)
	fptpgOnly := DefaultOptions(mode)
	fptpgOnly.UseAPTPG = false
	aptpgOnly := DefaultOptions(mode)
	aptpgOnly.UseFPTPG = false

	_, rBoth := runAll(t, c, both)
	_, rA := runAll(t, c, aptpgOnly)
	gF := New(c, fptpgOnly)
	rF := RunSharded(context.Background(), gF, paths.EnumerateFaults(c, 0), 1)

	if detectedCount(rBoth) < detectedCount(rA) {
		t.Error("combined configuration should not detect fewer faults than APTPG-only")
	}
	// FPTPG-only may abort faults that need backtracking, but must never
	// misclassify: whatever it calls tested/redundant must agree with the
	// complete runs.
	for i := range rF {
		switch rF[i].Status {
		case Tested, DetectedBySim:
			if !rBoth[i].Status.Detected() {
				t.Errorf("FPTPG-only detected %s but the complete run did not", rF[i].Fault.Describe(c))
			}
		case Redundant:
			if rBoth[i].Status != Redundant {
				t.Errorf("FPTPG-only called %s redundant but the complete run says %v",
					rF[i].Fault.Describe(c), rBoth[i].Status)
			}
		}
	}

	neither := DefaultOptions(mode)
	neither.UseFPTPG = false
	neither.UseAPTPG = false
	gN := New(c, neither)
	rN := RunSharded(context.Background(), gN, paths.EnumerateFaults(c, 4), 1)
	for _, r := range rN {
		if r.Status != Aborted {
			t.Errorf("with both phases disabled every fault should abort, got %v", r.Status)
		}
	}
}

// TestWordWidthSweep: every word width from 1 to the two-word maximum
// produces a complete and consistent classification on c17.
func TestWordWidthSweep(t *testing.T) {
	c := bench.C17()
	var reference []FaultResult
	for _, width := range []int{1, 2, 4, 8, 16, 32, 64, 128} {
		opts := DefaultOptions(sensitize.Robust)
		opts.WordWidth = width
		opts.FaultSimInterval = width
		_, results := runAll(t, c, opts)
		if abortedCount(results) != 0 {
			t.Fatalf("width %d: unexpected aborts", width)
		}
		if reference == nil {
			reference = results
			continue
		}
		for i := range results {
			if results[i].Status.Detected() != reference[i].Status.Detected() {
				t.Errorf("width %d: fault %s detection differs from width 1",
					width, results[i].Fault.Describe(c))
			}
		}
	}
}

// TestWideGeneratorRunsOnOneWord: a generator wider than a machine word
// allocates its objective scratch at one word (its implication state is one
// word at every width), and runs its wider units as several one-word groups.
func TestWideGeneratorRunsOnOneWord(t *testing.T) {
	opts := DefaultOptions(sensitize.Robust)
	opts.WordWidth = MaxWordWidth
	g := New(bench.C17(), opts)
	if n := len(g.objKeys); n != logic.WordWidth {
		t.Errorf("width-%d generator: %d objective orders, want %d", opts.WordWidth, n, logic.WordWidth)
	}
}

// TestSubpathPruning: in nonrobust mode, where some paths through the
// unsensitizable gate g2 stay testable, every fault through g2 proved
// redundant is settled by its FPTPG group's first implication, with no
// search and no record of earlier proofs: the subpath's conflict prunes each
// such fault by itself, one fault at a time and sixty-four at once alike.
func TestSubpathPruning(t *testing.T) {
	c := bench.RedundantExample()
	g2 := c.NetByName("g2")
	var reference []FaultResult
	for _, width := range []int{64, 1} {
		opts := DefaultOptions(sensitize.Nonrobust)
		opts.WordWidth = width
		opts.FaultSimInterval = width
		_, results := runAll(t, c, opts)
		pruned := 0
		for _, r := range results {
			if r.Status != Redundant || !slices.Contains(r.Fault.Path.Nets, g2) {
				continue
			}
			pruned++
			if r.Phase != PhaseFPTPG || r.Decisions != 0 {
				t.Errorf("width %d: redundant fault %s through g2 settled in %v after %d decisions, want fptpg after none",
					width, r.Fault.Describe(c), r.Phase, r.Decisions)
			}
		}
		if pruned == 0 {
			t.Fatalf("width %d: no fault through g2 is redundant", width)
		}
		if reference == nil {
			reference = results
			continue
		}
		for i := range results {
			if (results[i].Status == Redundant) != (reference[i].Status == Redundant) {
				t.Errorf("width %d: fault %s redundancy differs from width 64",
					width, results[i].Fault.Describe(c))
			}
		}
	}
}

// TestFaultSimulationDrop: a pattern generated for one fault drops a second
// fault that shares the same launch and side conditions, through the
// interleaved fault simulation.  The circuit is built so the drop is
// guaranteed: z1 = AND(a,b) and z2 = NAND(a,b) share the side condition
// b = 1 for a rising launch at a.
func TestFaultSimulationDrop(t *testing.T) {
	bld := circuit.NewBuilder("simdrop")
	a := bld.Input("a")
	b := bld.Input("b")
	z1 := bld.Gate("z1", logic.And, a, b)
	z2 := bld.Gate("z2", logic.Nand, a, b)
	bld.Output(z1)
	bld.Output(z2)
	c, err := bld.Build()
	if err != nil {
		t.Fatal(err)
	}
	faults := []paths.Fault{
		{Path: paths.Path{Nets: []circuit.NetID{a, z1}}, Transition: paths.Rising},
		{Path: paths.Path{Nets: []circuit.NetID{a, z2}}, Transition: paths.Rising},
	}
	opts := SingleBitOptions(sensitize.Robust)
	opts.FaultSimInterval = 1
	g := New(c, opts)
	results := RunSharded(context.Background(), g, faults, 1)
	if !results[0].Status.Detected() || !results[1].Status.Detected() {
		t.Fatalf("both faults should be detected: %v, %v", results[0].Status, results[1].Status)
	}
	if g.Stats().DetectedBySim != 1 {
		t.Errorf("DetectedBySim = %d, want 1 (the second fault dropped by simulation)", g.Stats().DetectedBySim)
	}
	if results[1].Status != DetectedBySim || results[1].Phase != PhaseSimulation {
		t.Errorf("second fault should be detected by simulation, got %v/%v", results[1].Status, results[1].Phase)
	}

	// Switching fault simulation off must not reduce coverage, and nothing
	// may then be attributed to simulation.
	opts.FaultSimInterval = 0
	g2 := New(c, opts)
	results2 := RunSharded(context.Background(), g2, faults, 1)
	if detectedCount(results2) < detectedCount(results) {
		t.Errorf("coverage without fault simulation (%d) below coverage with it (%d)",
			detectedCount(results2), detectedCount(results))
	}
	if g2.Stats().DetectedBySim != 0 {
		t.Error("fault simulation disabled but faults dropped by it")
	}
}

// TestStatusAndOptionHelpers covers the small helper types.
func TestStatusAndOptionHelpers(t *testing.T) {
	if Pending.String() != "pending" || Tested.String() != "tested" ||
		Redundant.String() != "redundant" || Aborted.String() != "aborted" ||
		DetectedBySim.String() != "detected-by-simulation" {
		t.Error("Status.String wrong")
	}
	if !Tested.Detected() || !DetectedBySim.Detected() || Redundant.Detected() || Aborted.Detected() {
		t.Error("Status.Detected wrong")
	}
	if PhaseFPTPG.String() != "fptpg" || PhaseAPTPG.String() != "aptpg" ||
		PhaseSimulation.String() != "simulation" || PhasePruning.String() != "pruning" || PhaseNone.String() != "none" {
		t.Error("Phase.String wrong")
	}
	o := Options{Mode: sensitize.Robust, WordWidth: 100, MaxBacktracks: -1}.normalize()
	if o.WordWidth != 100 || o.MaxBacktracks <= 0 {
		t.Errorf("normalize gave %+v", o)
	}
	o = Options{Mode: sensitize.Robust, WordWidth: 4 * MaxWordWidth}.normalize()
	if o.WordWidth != MaxWordWidth {
		t.Errorf("normalize gave %+v", o)
	}
	o = Options{WordWidth: 0}.normalize()
	if o.WordWidth != 1 {
		t.Errorf("normalize gave %+v", o)
	}
	if log2(64) != 6 || log2(1) != 0 || log2(32) != 5 {
		t.Error("log2 wrong")
	}
	if enumInputs(1) != 0 || enumInputs(32) != 5 || enumInputs(200) != 6 || enumInputs(MaxWordWidth) != 6 {
		t.Error("enumInputs wrong")
	}
	s := Stats{Faults: 200, Aborted: 2, Tested: 150, DetectedBySim: 40}
	if s.Efficiency() != 99 {
		t.Errorf("Efficiency = %v", s.Efficiency())
	}
	if s.Coverage() != 0.95 {
		t.Errorf("Coverage = %v", s.Coverage())
	}
	if (Stats{}).Efficiency() != 100 || (Stats{}).Coverage() != 0 {
		t.Error("empty stats helpers wrong")
	}
	if s.String() == "" {
		t.Error("Stats.String empty")
	}
}

// TestSyntheticCircuitATPG runs the generator end to end on a synthetic
// ISCAS-like circuit with a sampled fault list, checking consistency and a
// reasonable efficiency.
func TestSyntheticCircuitATPG(t *testing.T) {
	p := bench.Profile{Name: "synth", Inputs: 16, Outputs: 8, Gates: 150, Depth: 12, Seed: 77,
		InputFaninBias: 0.5, WideFaninFraction: 0.15, InverterFraction: 0.25}
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 200, 9)
	for _, mode := range []sensitize.Mode{sensitize.Nonrobust, sensitize.Robust} {
		g := New(c, DefaultOptions(mode))
		results := RunSharded(context.Background(), g, faults, 1)
		st := g.Stats()
		if st.Faults != len(faults) {
			t.Fatalf("stats faults %d != %d", st.Faults, len(faults))
		}
		for _, r := range results {
			if r.Status == Pending {
				t.Errorf("%s: fault left pending", mode)
			}
		}
		if st.Efficiency() < 90 {
			t.Errorf("%s: efficiency %.2f%% unexpectedly low on a small synthetic circuit", mode, st.Efficiency())
		}
		robust := mode == sensitize.Robust
		for _, r := range results {
			if r.Status != Tested {
				continue
			}
			res, err := faultsim.Run(c, []pattern.Pair{r.Test}, []paths.Fault{r.Fault}, robust)
			if err != nil {
				t.Fatal(err)
			}
			if !res.Detected[0] {
				t.Errorf("%s: pattern fails to detect %s", mode, r.Fault.Describe(c))
			}
		}
	}
}

// verifySetup returns a nonrobust s38584 generator and a fault of a small
// run of it that was tested, with its test.
func verifySetup(tb testing.TB) (*Generator, *FaultResult) {
	tb.Helper()
	c, err := bench.Get("s38584")
	if err != nil {
		tb.Fatal(err)
	}
	g := New(c, DefaultOptions(sensitize.Nonrobust))
	for _, r := range RunSharded(context.Background(), g, paths.SampleFaults(c, 8, 1995), 1) {
		if r.Status == Tested {
			return g, &r
		}
	}
	tb.Fatal("no fault of the sample was tested")
	return nil, nil
}

// BenchmarkVerify measures the check every emitted test passes before it
// is recorded (verifyPattern: one Load and one Detects) on the s38584
// stand-in, in the nonrobust mode of its benchmark workload.  The pair is
// one the generator emitted for the fault, so the check walks the whole
// path: a random pair fails the launch check at the path input and
// measures nothing.
func BenchmarkVerify(b *testing.B) {
	g, tested := verifySetup(b)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if !g.verifyPattern(tested.Fault, tested.Test) {
			b.Fatal("the emitted pair does not verify")
		}
	}
}

// BenchmarkObjectives measures the objective selection of FPTPG on a
// 64-fault c7552 group, in the state of the group's first decision point,
// right after the launch implication.  order is what the group pays once:
// ordering every alive level's unjustified requirements.  round is what each
// decision round pays on top: one findObjective per alive level over the
// group's epoch order, as runGroup does before it assigns the inputs.
func BenchmarkObjectives(b *testing.B) {
	c, err := bench.Get("c7552")
	if err != nil {
		b.Fatal(err)
	}
	g := New(c, DefaultOptions(sensitize.Robust))
	faults := paths.SampleFaults(c, logic.WordWidth, 1995)
	g.st.Reset(logic.LevelsMask(len(faults)))
	for i, f := range faults {
		r := &rec{fault: f}
		if !g.sensitizeRec(r) {
			b.Fatal("cannot sensitize a sampled fault")
		}
		bit := logic.BitMask(i)
		for _, a := range r.cond.Assignments {
			g.st.AddRequirement(a.Net, a.Value, bit)
		}
		g.st.AssignPI(f.Path.Input(), g.launchValue(f.Transition), bit)
	}
	conflict := g.st.Imply()
	g.st.ForwardSim()
	alive := g.st.Active() &^ conflict &^ g.st.JustifiedMask(g.st.Active())
	if alive == 0 {
		b.Fatal("no level of the group needs a decision")
	}
	b.Run("order", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			g.orderObjectives(alive)
		}
	})
	g.orderObjectives(alive)
	b.Run("round", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			for lvl := 0; lvl < len(faults); lvl++ {
				if alive.Bit(lvl) {
					g.findObjective(g.objKeys[lvl], lvl)
				}
			}
		}
	})
}
