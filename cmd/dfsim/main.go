// Command dfsim is a parallel-pattern path delay fault simulator: it reads a
// test set (as written by cmd/tip) and reports the robust and nonrobust path
// delay fault coverage over a sample of the circuit's faults.  With
// -compact it also statically compacts the test set against the sampled
// fault list (reverse-order simulation dropping, plus compatible-pair
// merging at level full) before reporting, and -out writes the compacted
// set back out; the compacted coverage in the selected class is identical
// by construction.
package main

import (
	"flag"
	"fmt"
	"os"

	"repro/atpg"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in circuit name")
		benchFile   = flag.String("bench", "", "path to an ISCAS .bench file")
		patternFile = flag.String("patterns", "", "test set file (as written by cmd/tip -out)")
		sample      = flag.Int("sample", 1000, "number of faults to sample (0 = enumerate all; beware of path explosion)")
		seed        = flag.Int64("seed", 1, "fault sampling seed")
		workers     = flag.Int("workers", 1, "simulators to spread the test set's 64-pair batches across (0 = one per core)")
		compactStr  = flag.String("compact", "none", "statically compact the test set against the fault list: none, reverse or full")
		class       = flag.String("class", "robust", "test class the compaction preserves coverage in: robust or nonrobust")
		xfill       = flag.String("xfill", "zero", "don't-care fill for merged pairs: zero, one or random")
		xfillSeed   = flag.Int64("xfill-seed", 1995, "seed for -xfill random")
		out         = flag.String("out", "", "write the (compacted) test set to this file")
	)
	flag.Parse()

	c, err := atpg.LoadCircuit(*circuitName, *benchFile)
	if err != nil {
		fail(err)
	}
	if *patternFile == "" {
		fail(fmt.Errorf("-patterns is required"))
	}
	set, err := atpg.LoadTests(*patternFile)
	if err != nil {
		fail(err)
	}
	if set.Len() == 0 {
		fail(fmt.Errorf("test set %s is empty", *patternFile))
	}
	if got, want := set.Pairs[0].Len(), c.NumInputs(); got != want {
		fail(fmt.Errorf("test set has %d inputs per vector, circuit has %d", got, want))
	}

	var faults []atpg.Fault
	if *sample <= 0 {
		faults = atpg.AllFaults(c, 0)
	} else {
		faults = atpg.SampleFaults(c, *sample, *seed)
	}

	fmt.Printf("circuit: %s\n", c)
	fmt.Printf("test pairs: %d, faults simulated: %d\n", set.Len(), len(faults))

	level, err := atpg.ParseCompaction(*compactStr)
	if err != nil {
		fail(err)
	}
	if level != atpg.CompactNone {
		mode, err := atpg.ParseMode(*class)
		if err != nil {
			fail(err)
		}
		fill, err := atpg.ParseXFill(*xfill, *xfillSeed)
		if err != nil {
			fail(err)
		}
		compacted, st, err := atpg.CompactTests(c, set, faults, mode == atpg.Robust, level, fill)
		if err != nil {
			fail(err)
		}
		set = compacted
		fmt.Printf("compaction (%s, %s class): %s\n", level, *class, st)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		if err := set.Write(f); err != nil {
			fail(err)
		}
		if err := f.Close(); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d test pairs to %s\n", set.Len(), *out)
	}

	for _, robust := range []bool{false, true} {
		res, err := atpg.SimulateParallel(c, set.Pairs, faults, robust, *workers)
		if err != nil {
			fail(err)
		}
		label := "nonrobust"
		if robust {
			label = "robust"
		}
		cov := 0.0
		if len(faults) > 0 {
			cov = float64(res.NumDetected) / float64(len(faults))
		}
		fmt.Printf("%-10s coverage: %6.2f%%\n", label, cov*100)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "dfsim:", err)
	os.Exit(1)
}
