package atpg_test

import (
	"context"
	"testing"

	"repro/atpg"
)

func TestCompactionOptionValidation(t *testing.T) {
	c, err := atpg.Builtin("c17")
	if err != nil {
		t.Fatal(err)
	}
	if _, err := atpg.New(c, atpg.WithCompaction(atpg.CompactionLevel(99))); err == nil {
		t.Error("WithCompaction accepted an unknown level")
	}
	for _, level := range []atpg.CompactionLevel{atpg.CompactNone, atpg.CompactReverse, atpg.CompactFull} {
		if _, err := atpg.New(c, atpg.WithCompaction(level), atpg.WithXFill(atpg.XFillRandom(1))); err != nil {
			t.Errorf("WithCompaction(%v) rejected: %v", level, err)
		}
	}
	if _, err := atpg.ParseCompaction("full"); err != nil {
		t.Errorf("ParseCompaction(full): %v", err)
	}
	if _, err := atpg.ParseCompaction("nope"); err == nil {
		t.Error("ParseCompaction accepted garbage")
	}
}

// TestEngineCompactionPreservesCoverage runs the same faults through a
// plain engine and a compacting engine and checks the compacted engine
// covers the identical fault set with at most as many patterns, with the
// compaction counters exposed through Stats.
func TestEngineCompactionPreservesCoverage(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 80, 5)

	plain, err := atpg.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := plain.Run(context.Background(), faults); err != nil {
		t.Fatal(err)
	}

	for _, workers := range []int{1, 2} {
		compacting, err := atpg.New(c,
			atpg.WithWorkers(workers),
			atpg.WithCompaction(atpg.CompactFull),
			atpg.WithXFill(atpg.XFillZero()),
		)
		if err != nil {
			t.Fatal(err)
		}
		results, err := compacting.Run(context.Background(), faults)
		if err != nil {
			t.Fatal(err)
		}

		if n := compacting.Tests().Len(); n > plain.Tests().Len() {
			t.Errorf("workers=%d: compacted engine has more patterns (%d) than plain (%d)",
				workers, n, plain.Tests().Len())
		}
		st := compacting.Stats()
		if st.Compaction.PairsBefore == 0 {
			t.Errorf("workers=%d: compaction stats empty: %+v", workers, st.Compaction)
		}
		if got := compacting.Coverage().Patterns; got != compacting.Tests().Len() {
			t.Errorf("workers=%d: Coverage().Patterns = %d, want the set size %d",
				workers, got, compacting.Tests().Len())
		}

		// The full-fault-list coverage must be bit-identical to the plain
		// engine's.
		plainSim, err := atpg.Simulate(c, plain.Tests().Pairs, faults, true)
		if err != nil {
			t.Fatal(err)
		}
		compactSim, err := atpg.Simulate(c, compacting.Tests().Pairs, faults, true)
		if err != nil {
			t.Fatal(err)
		}
		for f := range plainSim.Detected {
			if plainSim.Detected[f] != compactSim.Detected[f] {
				t.Fatalf("workers=%d: fault %d: plain=%v compacted=%v",
					workers, f, plainSim.Detected[f], compactSim.Detected[f])
			}
		}

		// Pattern indices of covered faults must be valid in the compacted set.
		for i, r := range results {
			if r.Status.Detected() && (r.PatternIndex < 0 || r.PatternIndex >= compacting.Tests().Len()) {
				t.Errorf("workers=%d: fault %d index %d out of range", workers, i, r.PatternIndex)
			}
		}
	}
}

// TestCompactTests exercises the standalone CompactTests entry (the dfsim
// -compact path): coverage must be preserved exactly and the input set left
// untouched.
func TestCompactTests(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 64, 9)
	e, err := atpg.New(c)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := e.Run(context.Background(), faults); err != nil {
		t.Fatal(err)
	}
	set := e.Tests()
	beforeLen := set.Len()
	beforeText := set.String()

	out, st, err := atpg.CompactTests(c, set, faults, true, atpg.CompactFull, atpg.XFillRandom(3))
	if err != nil {
		t.Fatal(err)
	}
	if set.Len() != beforeLen || set.String() != beforeText {
		t.Error("CompactTests modified its input set")
	}
	if out.Len() > set.Len() {
		t.Errorf("compacted set grew: %d -> %d", set.Len(), out.Len())
	}
	if st.PairsBefore != beforeLen || st.PairsAfter != out.Len() {
		t.Errorf("stats inconsistent: %+v", st)
	}
	a, err := atpg.FaultCoverage(c, set.Pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	b, err := atpg.FaultCoverage(c, out.Pairs, faults, true)
	if err != nil {
		t.Fatal(err)
	}
	if a != b {
		t.Errorf("coverage changed: %v -> %v", a, b)
	}

	if _, _, err := atpg.CompactTests(nil, set, faults, true, atpg.CompactFull, atpg.XFillZero()); err == nil {
		t.Error("nil circuit accepted")
	}
	if _, _, err := atpg.CompactTests(c, nil, faults, true, atpg.CompactFull, atpg.XFillZero()); err == nil {
		t.Error("nil set accepted")
	}
}

// TestStreamAppliesCompaction pins the fix for the sequential Stream path
// bypassing compaction: after a stream ends, the engine's set must be the
// compacted one and Stats.Compaction populated, for 1 and 2 workers alike.
func TestStreamAppliesCompaction(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 64, 5)
	for _, workers := range []int{1, 2} {
		e, err := atpg.New(c, atpg.WithWorkers(workers), atpg.WithCompaction(atpg.CompactFull))
		if err != nil {
			t.Fatal(err)
		}
		n := 0
		for range e.Stream(context.Background(), faults) {
			n++
		}
		if n != len(faults) {
			t.Fatalf("workers=%d: streamed %d of %d results", workers, n, len(faults))
		}
		st := e.Stats()
		if st.Compaction.PairsBefore == 0 {
			t.Errorf("workers=%d: stream did not compact: %+v", workers, st.Compaction)
		}
		if e.Tests().Len() != st.Compaction.PairsAfter {
			t.Errorf("workers=%d: set len %d != PairsAfter %d",
				workers, e.Tests().Len(), st.Compaction.PairsAfter)
		}
	}
}
