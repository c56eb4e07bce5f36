package core

import (
	"context"
	"fmt"
	"slices"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// These tests pin the event-driven incremental implication engine to the
// full-sweep reference (implic.NewFullSweepState) at the generator level:
// same faults, same options, the runs must agree on every fault
// classification, every emitted pattern and the search-effort counters.

func equivGenCircuits(t *testing.T) []*circuit.Circuit {
	t.Helper()
	cs := []*circuit.Circuit{bench.PaperExample(), bench.RedundantExample(), bench.MuxTree(3)}
	for _, spec := range []struct {
		name  string
		scale float64
	}{
		{"c432", 1.0}, {"c880", 0.6}, {"c1355", 0.4},
	} {
		p, ok := bench.ProfileByName(spec.name)
		if !ok {
			t.Fatalf("unknown profile %q", spec.name)
		}
		cs = append(cs, bench.MustSynthesize(p.Scaled(spec.scale)))
	}
	cs = append(cs, bench.MustSynthesize(bench.Profile{
		Name: "gen-eq-rnd", Inputs: 16, Outputs: 8, Gates: 200, Depth: 12, Seed: 61,
		InputFaninBias: 0.45, WideFaninFraction: 0.2, InverterFraction: 0.3,
	}))
	return cs
}

// runEquivPair runs the same faults through the incremental engine and the
// full-sweep oracle and fails on any observable difference.
func runEquivPair(t *testing.T, c *circuit.Circuit, faults []paths.Fault, opts Options, tag string) {
	t.Helper()
	inc := New(c, opts)
	resInc := RunSharded(context.Background(), inc, faults, 1)

	opts.FullSweepImplic = true
	ora := New(c, opts)
	resOra := RunSharded(context.Background(), ora, faults, 1)

	for i := range resInc {
		a, b := resInc[i], resOra[i]
		if a.Status != b.Status || a.Phase != b.Phase || a.PatternIndex != b.PatternIndex {
			t.Fatalf("%s: fault %d (%s): incremental %v/%v idx=%d, oracle %v/%v idx=%d",
				tag, i, faults[i].Describe(c),
				a.Status, a.Phase, a.PatternIndex, b.Status, b.Phase, b.PatternIndex)
		}
		if a.Decisions != b.Decisions || a.Backtracks != b.Backtracks {
			t.Fatalf("%s: fault %d: search effort differs: incremental %d dec/%d bt, oracle %d dec/%d bt",
				tag, i, a.Decisions, a.Backtracks, b.Decisions, b.Backtracks)
		}
		if !slices.Equal(a.Test.V1, b.Test.V1) || !slices.Equal(a.Test.V2, b.Test.V2) {
			t.Fatalf("%s: fault %d: test pattern differs", tag, i)
		}
	}
	sa, sb := inc.Stats(), ora.Stats()
	if sa.Tested != sb.Tested || sa.Redundant != sb.Redundant || sa.Aborted != sb.Aborted ||
		sa.DetectedBySim != sb.DetectedBySim ||
		sa.Decisions != sb.Decisions || sa.Backtracks != sb.Backtracks {
		t.Fatalf("%s: stats differ:\n  incremental %v\n  oracle      %v", tag, sa, sb)
	}
	ta, tb := inc.TestSet(), ora.TestSet()
	if ta.Len() != tb.Len() {
		t.Fatalf("%s: test set sizes differ: %d vs %d", tag, ta.Len(), tb.Len())
	}
	for i := range ta.Pairs {
		if !slices.Equal(ta.Pairs[i].V1, tb.Pairs[i].V1) || !slices.Equal(ta.Pairs[i].V2, tb.Pairs[i].V2) {
			t.Fatalf("%s: pattern %d differs", tag, i)
		}
	}
}

// TestEventDrivenGeneratorMatchesFullSweep runs the full generator — both
// phases, fault-parallel only, and alternative-parallel only — over
// ISCAS-85-class and randomized circuits in both test classes, comparing
// the incremental engine against the full-sweep oracle fault by fault.
func TestEventDrivenGeneratorMatchesFullSweep(t *testing.T) {
	for _, c := range equivGenCircuits(t) {
		faults := paths.SampleFaults(c, 48, 1995)
		if len(faults) == 0 {
			faults = paths.EnumerateFaults(c, 0)
		}
		for _, mode := range []sensitize.Mode{sensitize.Robust, sensitize.Nonrobust} {
			for _, phases := range []struct {
				name         string
				fptpg, aptpg bool
			}{
				{"both", true, true},
				{"fptpg-only", true, false},
				{"aptpg-only", false, true},
			} {
				opts := DefaultOptions(mode)
				opts.UseFPTPG = phases.fptpg
				opts.UseAPTPG = phases.aptpg
				tag := fmt.Sprintf("%s/%s/%s", c.Name, mode, phases.name)
				runEquivPair(t, c, faults, opts, tag)
			}
		}
	}
}

// TestBacktrackHeavyTrailMatchesFullSweep forces deep alternative-parallel
// search — narrow word, no input enumeration shortcut, generous backtrack
// budget — so the Assign/Undo trail unwinds thousands of frames, and checks
// the run is still bit-identical to the full-sweep oracle, which unwinds the
// same frames over whole-circuit closures.
func TestBacktrackHeavyTrailMatchesFullSweep(t *testing.T) {
	c := bench.MustSynthesize(bench.Profile{
		Name: "bt-heavy", Inputs: 14, Outputs: 6, Gates: 170, Depth: 13, Seed: 71,
		InputFaninBias: 0.35, WideFaninFraction: 0.25, InverterFraction: 0.45,
	})
	faults := paths.SampleFaults(c, 256, 7)
	opts := DefaultOptions(sensitize.Robust)
	opts.UseFPTPG = false     // every fault goes through backtracking search
	opts.WordWidth = 2        // almost no alternative-parallelism: more real backtracks
	opts.FaultSimInterval = 0 // no drops: every fault is searched in full
	opts.MaxBacktracks = 48
	runEquivPair(t, c, faults, opts, "backtrack-heavy")

	g := New(c, opts)
	RunSharded(context.Background(), g, faults, 1)
	if bt := g.Stats().Backtracks; bt < 100 {
		t.Fatalf("backtrack-heavy case only produced %d backtracks; the trail was barely exercised", bt)
	}
}
