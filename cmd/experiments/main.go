// Command experiments reproduces the tables of the paper: robust and
// nonrobust ATPG over the ISCAS85-class suite (Tables 3 and 4), the
// bit-parallel versus single-bit comparison on the ISCAS89-class suite
// (Tables 5 and 6), the comparison against a conventional structural
// generator (Tables 7 and 8), the headline speed-up summary, and the
// ablation studies of internal/harness (-ablations and -grouping, see the
// README's "Command-line tools").
//
// Usage:
//
//	experiments -table 5                # one table at full size
//	experiments -all -quick             # everything, scaled down
//	experiments -summary                # speed-up summary (Section 5 prose)
//	experiments -ablations
package main

import (
	"flag"
	"fmt"
	"os"
	"runtime"

	"repro/atpg"
)

func main() {
	var (
		table     = flag.Int("table", 0, "reproduce a single table (3-8)")
		all       = flag.Bool("all", false, "reproduce every table")
		summary   = flag.Bool("summary", false, "print the speed-up summary over Tables 5 and 6")
		ablations = flag.Bool("ablations", false, "run the ablation studies")
		grouping  = flag.Bool("grouping", false, "run the grouping ablation: the Tables 5/6 comparison of fault-serial and fixed-wide grouping under the incremental and full-sweep engines")
		quick     = flag.Bool("quick", false, "use scaled-down circuits and fewer faults")
		scale     = flag.Float64("scale", 0, "override the circuit scale factor (1.0 = published size)")
		faults    = flag.Int("faults", 0, "override the number of faults sampled per circuit")
		seed      = flag.Int64("seed", 1995, "fault sampling seed")
		workers   = flag.Int("workers", 1, "worker goroutines per generator run (0 = one per core)")
		compactS  = flag.String("compact", "none", "static test-set compaction per run: none, reverse or full")
		xfill     = flag.String("xfill", "zero", "don't-care fill for merged pairs: zero, one or random")
		xfillSeed = flag.Int64("xfill-seed", 1995, "seed for -xfill random")
		cpuprof   = flag.String("cpuprofile", "", "write a pprof CPU profile of the selected runs to this file")
		memprof   = flag.String("memprofile", "", "write a pprof heap profile (taken at exit) to this file")
	)
	flag.Parse()

	compactLevel, err := atpg.ParseCompaction(*compactS)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
	fill, err := atpg.ParseXFill(*xfill, *xfillSeed)
	if err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}

	baseCfg := func(mode atpg.Mode) atpg.ExperimentConfig {
		cfg := atpg.DefaultExperimentConfig(mode)
		if *quick {
			cfg = atpg.QuickExperimentConfig(mode)
		}
		if *scale > 0 {
			cfg.Scale = *scale
		}
		if *faults > 0 {
			cfg.FaultsPerCircuit = *faults
		}
		cfg.Seed = *seed
		cfg.Workers = *workers
		if cfg.Workers <= 0 {
			cfg.Workers = runtime.GOMAXPROCS(0)
		}
		cfg.Compact = compactLevel
		cfg.XFill = fill
		return cfg
	}

	if *table == 0 && !*all && !*summary && !*ablations && !*grouping {
		fmt.Fprintln(os.Stderr, "experiments: nothing to do; use -table N, -all, -summary, -ablations or -grouping")
		os.Exit(1)
	}

	runTable := func(n int) {
		switch n {
		case 3:
			fmt.Print(atpg.FormatATPGTable("Table 3: robust ATPG for the ISCAS85-class circuits",
				atpg.RunTable3(baseCfg(atpg.Robust))))
		case 4:
			fmt.Print(atpg.FormatATPGTable("Table 4: nonrobust ATPG for the ISCAS85-class circuits",
				atpg.RunTable4(baseCfg(atpg.Nonrobust))))
		case 5:
			fmt.Print(atpg.FormatSpeedupTable("Table 5: bit-parallel vs single-bit generation (robust)",
				atpg.RunTable5(baseCfg(atpg.Robust))))
		case 6:
			fmt.Print(atpg.FormatSpeedupTable("Table 6: bit-parallel vs single-bit generation (nonrobust)",
				atpg.RunTable6(baseCfg(atpg.Nonrobust))))
		case 7:
			fmt.Print(atpg.FormatCompareTable("Table 7: TIP vs structural baseline, nonrobust (L=32)",
				atpg.RunTable7(baseCfg(atpg.Nonrobust))))
		case 8:
			fmt.Print(atpg.FormatCompareTable("Table 8: TIP vs structural baseline, robust (L=32)",
				atpg.RunTable8(baseCfg(atpg.Robust))))
		default:
			fmt.Fprintf(os.Stderr, "experiments: unknown table %d (want 3-8)\n", n)
			os.Exit(1)
		}
		fmt.Println()
	}

	// runSelected executes the tables, summary and ablations chosen on the
	// command line; the pprof profile below wraps all of it.
	runSelected := func() {
		if *table != 0 {
			runTable(*table)
		}
		if *all {
			for n := 3; n <= 8; n++ {
				runTable(n)
			}
		}
		if *summary {
			rows5 := atpg.RunTable5(baseCfg(atpg.Robust))
			avg5, max5 := atpg.SpeedupSummary(rows5)
			rows6 := atpg.RunTable6(baseCfg(atpg.Nonrobust))
			avg6, max6 := atpg.SpeedupSummary(rows6)
			fmt.Println("Speed-up summary (paper: average about five, maximum up to nine):")
			fmt.Printf("  robust    (Table 5): average %.1fx, maximum %.1fx\n", avg5, max5)
			fmt.Printf("  nonrobust (Table 6): average %.1fx, maximum %.1fx\n", avg6, max6)
			fmt.Println()
		}
		if *grouping {
			fmt.Print(atpg.FormatGroupingTable(
				"Grouping ablation: fault-serial vs fixed-wide, per implication engine (Tables 5/6 re-measured)",
				atpg.RunGroupingAblation(baseCfg(atpg.Robust))))
			fmt.Println()
		}
		if *ablations {
			cfg := baseCfg(atpg.Nonrobust)
			fmt.Print(atpg.FormatAblationTable("Ablation: word width L", atpg.RunWordWidthAblation(cfg, nil)))
			fmt.Println()
			fmt.Print(atpg.FormatAblationTable("Ablation: FPTPG / APTPG / combined", atpg.RunModeAblation(cfg)))
			fmt.Println()
			fmt.Print(atpg.FormatAblationTable("Ablation: interleaved fault simulation", atpg.RunFaultSimAblation(cfg)))
			fmt.Println()
			fmt.Print(atpg.FormatAblationTable("Ablation: sharded-engine workers", atpg.RunWorkerAblation(cfg, nil)))
			fmt.Println()
			fmt.Print(atpg.FormatAblationTable("Ablation: static test-set compaction", atpg.RunCompactionAblation(cfg)))
			fmt.Println()
			est := atpg.RunCoverageEstimate(cfg, "s713", 500)
			if est.Err != nil {
				fmt.Fprintf(os.Stderr, "coverage estimate: %v\n", est.Err)
			} else {
				fmt.Printf("Coverage estimate (NEST-style, %s): %d patterns, %.1f%% of %d sampled faults covered\n",
					est.Circuit, est.Patterns, est.Estimated*100, est.Sampled)
			}
		}
	}

	// The profile covers every table, summary and ablation selected above.
	prof := atpg.ExperimentConfig{CPUProfile: *cpuprof, MemProfile: *memprof}
	if err := prof.Profiled(func() error {
		runSelected()
		return nil
	}); err != nil {
		fmt.Fprintln(os.Stderr, "experiments:", err)
		os.Exit(1)
	}
}
