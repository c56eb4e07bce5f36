// Command tip is the bit-parallel path delay fault test pattern generator
// (named after the paper's tool).  It reads a benchmark circuit, selects a
// set of target path delay faults, generates robust or nonrobust two-vector
// tests for them and reports the per-fault outcome.  With -remote the run
// goes to an atpgd coordinator's worker fleet instead (see cmd/atpgd); the
// -v, -out and -statuses output is the same as a local run's, and with the
// interleaved simulation off (-sim 0) it is byte-identical.  An interrupt
// cancels the run (a remote one on its coordinator too); a second one
// kills the process.
//
// Usage:
//
//	tip -circuit c432 -mode robust -faults 256
//	tip -bench mydesign.bench -mode nonrobust -faults 1000 -out tests.txt
//	tip -remote http://127.0.0.1:9090 -circuit c432 -sim 0 -out remote.tests
package main

import (
	"context"
	"errors"
	"flag"
	"fmt"
	"os"
	"os/signal"
	"syscall"

	"repro/atpg"
)

func main() {
	var (
		circuitName = flag.String("circuit", "", "built-in circuit name (see cmd/circgen -list)")
		benchFile   = flag.String("bench", "", "path to an ISCAS .bench file")
		mode        = flag.String("mode", "robust", "test class: robust or nonrobust")
		numFaults   = flag.Int("faults", 256, "number of target faults (0 = all structural faults; beware of path explosion)")
		seed        = flag.Int64("seed", 1995, "seed for fault sampling")
		width       = flag.Int("width", atpg.DefaultWordWidth, fmt.Sprintf("word width L (1..%d); 1 is the single-bit baseline, widths above 64 run as several one-word groups", atpg.MaxWordWidth))
		workers     = flag.Int("workers", 1, "worker goroutines to shard the fault list across (0 = one per core)")
		backtracks  = flag.Int("backtracks", 64, "backtrack limit per fault")
		noFPTPG     = flag.Bool("no-fptpg", false, "disable fault-parallel generation")
		noAPTPG     = flag.Bool("no-aptpg", false, "disable alternative-parallel generation")
		compactStr  = flag.String("compact", "none", "static test-set compaction: none, reverse (reverse-order sim dropping) or full (+ compatible-pair merging)")
		xfill       = flag.String("xfill", "zero", "don't-care fill for merged pairs: zero, one or random")
		xfillSeed   = flag.Int64("xfill-seed", 1995, "seed for -xfill random")
		sim         = flag.Int("sim", -1, "interleaved fault-simulation interval in patterns (0 = off, -1 = track the word width)")
		out         = flag.String("out", "", "write the generated test set to this file")
		statuses    = flag.String("statuses", "", "write one 'fault<TAB>status' line per target fault (input order) to this file")
		verbose     = flag.Bool("v", false, "print one line per fault")
		remote      = flag.String("remote", "", "run on the atpgd coordinator at this base URL (e.g. http://127.0.0.1:9090) instead of in-process")
		cpuprofile  = flag.String("cpuprofile", "", "write a pprof CPU profile of the generation run to this file")
		memprofile  = flag.String("memprofile", "", "write a pprof heap profile (taken after the run) to this file")
	)
	flag.Parse()

	ctx, stop := signal.NotifyContext(context.Background(), os.Interrupt, syscall.SIGTERM)
	defer stop()
	context.AfterFunc(ctx, stop) // a second interrupt kills the process

	c, err := atpg.LoadCircuit(*circuitName, *benchFile)
	if err != nil {
		fail(err)
	}
	m, err := atpg.ParseMode(*mode)
	if err != nil {
		fail(err)
	}
	level, err := atpg.ParseCompaction(*compactStr)
	if err != nil {
		fail(err)
	}
	fill, err := atpg.ParseXFill(*xfill, *xfillSeed)
	if err != nil {
		fail(err)
	}

	fmt.Printf("circuit: %s\n", c)
	fmt.Printf("structural paths: %s, path delay faults: %s\n",
		c.PathCount().String(), c.FaultCount().String())

	var faults []atpg.Fault
	if *numFaults <= 0 {
		faults = atpg.AllFaults(c, 0)
	} else {
		faults = atpg.SampleFaults(c, *numFaults, *seed)
	}
	fmt.Printf("target faults: %d (%s)\n", len(faults), m)

	engineOpts := []atpg.Option{
		atpg.WithMode(m),
		atpg.WithWordWidth(*width),
		atpg.WithWorkers(*workers),
		atpg.WithBacktrackLimit(*backtracks),
		atpg.WithFaultParallel(!*noFPTPG),
		atpg.WithAlternativeParallel(!*noAPTPG),
		atpg.WithCompaction(level),
		atpg.WithXFill(fill),
	}
	if *sim >= 0 {
		engineOpts = append(engineOpts, atpg.WithInterleavedSim(*sim))
	}
	if *remote != "" {
		engineOpts = append(engineOpts, atpg.WithRemote(*remote))
	}
	e, err := atpg.New(c, engineOpts...)
	if errors.Is(err, atpg.ErrBadWidth) {
		fail(fmt.Errorf("invalid width: %v (valid: -width 1..%d)", err, atpg.MaxWordWidth))
	}
	if err != nil {
		fail(err)
	}
	if e.Workers() > 1 {
		fmt.Printf("workers: %d\n", e.Workers())
	}

	var results []atpg.Result
	profiled := atpg.ExperimentConfig{CPUProfile: *cpuprofile, MemProfile: *memprofile}
	if err := profiled.Profiled(func() error {
		var runErr error
		results, runErr = e.Run(ctx, faults)
		return runErr
	}); err != nil {
		fail(err)
	}

	if *verbose {
		for _, r := range results {
			fmt.Printf("  %-60s %-12s %s\n", c.Describe(r.Fault), r.Status, r.Phase)
		}
	}
	st := e.Stats()
	fmt.Printf("result: %s\n", st)
	fmt.Printf("sensitization time: %s, generation time: %s\n", st.SensitizeTime, st.GenerateTime)
	if e.Workers() != 1 { // 0 on a remote engine
		fmt.Printf("scheduling: %s\n", st.Sched)
	}
	if level != atpg.CompactNone {
		fmt.Printf("compaction: %s\n", st.Compaction)
	}

	if *out != "" {
		f, err := os.Create(*out)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		if err := e.Tests().Write(f); err != nil {
			fail(err)
		}
		fmt.Printf("wrote %d test pairs to %s\n", e.Tests().Len(), *out)
	}
	if *statuses != "" {
		f, err := os.Create(*statuses)
		if err != nil {
			fail(err)
		}
		defer f.Close()
		// Status only, not phase: which phase settles a fault can shift with
		// worker interleaving, the classification cannot.
		for _, r := range results {
			fmt.Fprintf(f, "%s\t%s\n", c.Describe(r.Fault), r.Status)
		}
		fmt.Printf("wrote %d fault statuses to %s\n", len(results), *statuses)
	}
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "tip:", err)
	os.Exit(1)
}
