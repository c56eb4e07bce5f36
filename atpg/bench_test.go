// The repository-level benchmarks regenerate every table and figure of the
// paper's evaluation (docs/ARCHITECTURE.md, "Paper-section map", names the
// package behind each table).  They live in the atpg package directory
// because the public facade is the layer they exercise.
//
// The benchmarks run the same harness code as cmd/experiments, but on
// scaled-down circuit stand-ins and smaller fault samples so that
// `go test -bench=. ./atpg` completes in minutes.  Full-size runs are
// produced with `go run ./cmd/experiments -all`.
package atpg_test

import (
	"context"
	"fmt"
	"sort"
	"testing"

	"repro/atpg"
	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/harness"
	"repro/internal/paths"
	"repro/internal/sensitize"
	"repro/internal/testability"
)

// benchConfig is the scaled-down configuration used by the table benchmarks.
func benchConfig(mode sensitize.Mode) harness.Config {
	cfg := harness.QuickConfig(mode)
	cfg.Scale = 0.10
	cfg.FaultsPerCircuit = 32
	return cfg
}

// BenchmarkTable3RobustISCAS85 regenerates Table 3: robust ATPG over the
// ISCAS85-class suite (#faults, #tested, efficiency, time per circuit).
func BenchmarkTable3RobustISCAS85(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable3(benchConfig(sensitize.Robust))
		if len(rows) != 9 {
			b.Fatalf("expected 9 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable4NonrobustISCAS85 regenerates Table 4: nonrobust ATPG over
// the ISCAS85-class suite.
func BenchmarkTable4NonrobustISCAS85(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable4(benchConfig(sensitize.Nonrobust))
		if len(rows) != 9 {
			b.Fatalf("expected 9 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable5RobustSpeedup regenerates Table 5: bit-parallel versus
// single-bit robust generation on the ISCAS89-class suite (t_sens, t_single,
// t_parallel, speed-up).
func BenchmarkTable5RobustSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable5(benchConfig(sensitize.Robust))
		if len(rows) != 11 {
			b.Fatalf("expected 11 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable6NonrobustSpeedup regenerates Table 6: the nonrobust
// counterpart of Table 5.
func BenchmarkTable6NonrobustSpeedup(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable6(benchConfig(sensitize.Nonrobust))
		if len(rows) != 11 {
			b.Fatalf("expected 11 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable7NonrobustComparison regenerates Table 7: the bit-parallel
// generator against the conventional structural baseline, nonrobust, L=32.
func BenchmarkTable7NonrobustComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable7(benchConfig(sensitize.Nonrobust))
		if len(rows) != 10 {
			b.Fatalf("expected 10 rows, got %d", len(rows))
		}
	}
}

// BenchmarkTable8RobustComparison regenerates Table 8: the robust
// counterpart of Table 7.
func BenchmarkTable8RobustComparison(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunTable8(benchConfig(sensitize.Robust))
		if len(rows) != 10 {
			b.Fatalf("expected 10 rows, got %d", len(rows))
		}
	}
}

// BenchmarkRun measures the multi-core scheduler-driven engine on the
// largest builtin circuit (the c7552-class profile): the same 128-fault
// robust run sharded across 1, 2, 4 and 8 workers.  On a multi-core machine
// the wall-clock time should drop roughly with the worker count until the
// scheduler runs out of units; on a single core the worker counts tie,
// which is the overhead check.
func BenchmarkRun(b *testing.B) {
	c, err := atpg.Builtin("c7552")
	if err != nil {
		b.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 128, 1995)
	for _, workers := range []int{1, 2, 4, 8} {
		b.Run(fmt.Sprintf("workers=%d", workers), func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := atpg.New(c, atpg.WithWorkers(workers))
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(context.Background(), faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGrouping measures the width economics on the c7552 easy-fault
// reference sample (the run behind the README Performance table): fixed
// full-width groups against the fault-serial L=1 baseline.
func BenchmarkGrouping(b *testing.B) {
	c, err := atpg.Builtin("c7552")
	if err != nil {
		b.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 128, 1995)
	for _, v := range []struct {
		name string
		opts []atpg.Option
	}{
		{"fixed=64", nil},
		{"serial=1", []atpg.Option{atpg.WithWordWidth(1), atpg.WithInterleavedSim(1)}},
	} {
		b.Run(v.name, func(b *testing.B) {
			for i := 0; i < b.N; i++ {
				e, err := atpg.New(c, v.opts...)
				if err != nil {
					b.Fatal(err)
				}
				if _, err := e.Run(context.Background(), faults); err != nil {
					b.Fatal(err)
				}
			}
		})
	}
}

// BenchmarkGroupingWide measures the widths above one machine word on a
// hard-fault reference: the c7552 sample is scored with the circuit's
// testability measures and only the hardest quarter is kept, so the run is
// dominated by faults whose searches are expensive enough to pay for
// word-parallel sharing.  The generator runs on one word at every width, so
// L=128 runs each 128-fault unit as two 64-fault FPTPG groups and decides
// what fixed L=64 decides; the benchmark measures what its larger units
// cost (see the README Performance notes).
func BenchmarkGroupingWide(b *testing.B) {
	c, err := bench.Get("c7552")
	if err != nil {
		b.Fatal(err)
	}
	sample := paths.SampleFaults(c, 1024, 1995)
	tm := testability.For(c)
	sort.SliceStable(sample, func(i, j int) bool {
		return tm.FaultScore(c, sample[i], sensitize.Robust) > tm.FaultScore(c, sample[j], sensitize.Robust)
	})
	faults := sample[:256]
	for _, width := range []int{64, 128} {
		b.Run(fmt.Sprintf("fixed=%d", width), func(b *testing.B) {
			opts := core.DefaultOptions(sensitize.Robust)
			opts.WordWidth = width
			opts.FaultSimInterval = width
			for i := 0; i < b.N; i++ {
				core.RunSharded(context.Background(), core.New(c, opts), faults, 1)
			}
		})
	}
}

// figure1Faults returns the four faults processed fault-parallel in the
// Figure 1 walk-through of the paper.
func figure1Faults(c *circuit.Circuit) []paths.Fault {
	byName := func(names ...string) paths.Path {
		nets := make([]circuit.NetID, len(names))
		for i, n := range names {
			nets[i] = c.NetByName(n)
		}
		return paths.Path{Nets: nets}
	}
	return []paths.Fault{
		{Path: byName("b", "p", "x"), Transition: paths.Rising},
		{Path: byName("b", "q", "s", "x"), Transition: paths.Rising},
		{Path: byName("c", "r", "s", "x"), Transition: paths.Rising},
		{Path: byName("c", "r", "s", "y"), Transition: paths.Rising},
	}
}

// BenchmarkFigure1FPTPG regenerates the Figure 1 experiment: four paths of
// the example circuit handled simultaneously by fault-parallel generation.
func BenchmarkFigure1FPTPG(b *testing.B) {
	c := bench.PaperExample()
	faults := figure1Faults(c)
	opts := core.DefaultOptions(sensitize.Nonrobust)
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := core.New(c, opts)
		core.RunSharded(context.Background(), g, faults, 1)
	}
}

// BenchmarkFigure2APTPG regenerates the Figure 2 experiment: path a-p-x with
// a falling transition handled by alternative-parallel generation alone.
func BenchmarkFigure2APTPG(b *testing.B) {
	c := bench.PaperExample()
	f := paths.Fault{
		Path:       paths.Path{Nets: []circuit.NetID{c.NetByName("a"), c.NetByName("p"), c.NetByName("x")}},
		Transition: paths.Falling,
	}
	opts := core.DefaultOptions(sensitize.Nonrobust)
	opts.UseFPTPG = false
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		g := core.New(c, opts)
		core.RunSharded(context.Background(), g, []paths.Fault{f}, 1)
	}
}

// BenchmarkAblationWordWidth sweeps the word width L (the paper's central
// parameter) on the s1423-class circuit.
func BenchmarkAblationWordWidth(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunWordWidthAblation(benchConfig(sensitize.Nonrobust), []int{1, 8, 32, 64, 128})
		if len(rows) != 5 {
			b.Fatalf("expected 5 rows, got %d", len(rows))
		}
	}
}

// BenchmarkAblationModes compares FPTPG-only, APTPG-only and the combined
// generator (Section 3.3 of the paper).
func BenchmarkAblationModes(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunModeAblation(benchConfig(sensitize.Nonrobust))
		if len(rows) != 3 {
			b.Fatalf("expected 3 rows, got %d", len(rows))
		}
	}
}

// BenchmarkAblationFaultSim compares generation with and without the
// interleaved fault simulation after every L patterns.
func BenchmarkAblationFaultSim(b *testing.B) {
	for i := 0; i < b.N; i++ {
		rows := harness.RunFaultSimAblation(benchConfig(sensitize.Nonrobust))
		if len(rows) != 2 {
			b.Fatalf("expected 2 rows, got %d", len(rows))
		}
	}
}

// BenchmarkAblationLogicWidth compares the cost of robust (seven-valued,
// four planes) against nonrobust (three-valued, two planes effectively)
// generation on the same circuit and fault list — the price of the Table 2
// encoding relative to the Table 1 encoding at the whole-generator level.
func BenchmarkAblationLogicWidth(b *testing.B) {
	p, _ := bench.ProfileByName("s713")
	c := bench.MustSynthesize(p.Scaled(0.25))
	faults := paths.SampleFaults(c, 64, 3)
	b.Run("robust", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunSharded(context.Background(), core.New(c, core.DefaultOptions(sensitize.Robust)), faults, 1)
		}
	})
	b.Run("nonrobust", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunSharded(context.Background(), core.New(c, core.DefaultOptions(sensitize.Nonrobust)), faults, 1)
		}
	})
}

// BenchmarkSpeedupHeadline measures the single-number headline of the paper
// (Section 5: "a speedup of up to nine ... average acceleration is about
// five") on one mid-size circuit: the ratio is reported by
// cmd/experiments -summary; this benchmark just times the parallel side.
func BenchmarkSpeedupHeadline(b *testing.B) {
	p, _ := bench.ProfileByName("s713")
	c := bench.MustSynthesize(p)
	faults := paths.SampleFaults(c, 128, 5)
	b.Run("bit-parallel", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunSharded(context.Background(), core.New(c, core.DefaultOptions(sensitize.Robust)), faults, 1)
		}
	})
	b.Run("single-bit", func(b *testing.B) {
		for i := 0; i < b.N; i++ {
			core.RunSharded(context.Background(), core.New(c, core.SingleBitOptions(sensitize.Robust)), faults, 1)
		}
	})
}
