package atpg

import (
	"fmt"
	"io"
	"os"
	"runtime"

	"repro/internal/faultsim"
	"repro/internal/pattern"
)

// SimResult is the outcome of a fault-simulation run: per-fault detection
// flags, the index of the first detecting pair, and aggregate counts.
type SimResult = faultsim.Result

// Simulate runs the parallel-pattern path delay fault simulator: it applies
// every test pair to every fault and reports which faults are detected (in
// the robust or nonrobust class).
func Simulate(c *Circuit, pairs []TestPair, faults []Fault, robust bool) (SimResult, error) {
	if c == nil || c.c == nil {
		return SimResult{}, ErrNilCircuit
	}
	return faultsim.Run(c.c, pairs, faults, robust)
}

// SimulateParallel is Simulate on workers goroutines, each simulating its
// share of the 64-pair batches against every fault; a fault's first
// detecting pair is the least over all batches, so the result is identical
// to Simulate, only faster on multi-core machines with sets of several
// batches.  Like [WithWorkers], 0 selects one worker per core and negative
// counts are an error.
func SimulateParallel(c *Circuit, pairs []TestPair, faults []Fault, robust bool, workers int) (SimResult, error) {
	if c == nil || c.c == nil {
		return SimResult{}, ErrNilCircuit
	}
	if workers < 0 {
		return SimResult{}, fmt.Errorf("atpg: negative worker count %d", workers)
	}
	if workers == 0 {
		workers = runtime.GOMAXPROCS(0)
	}
	return faultsim.RunParallel(c.c, pairs, faults, robust, workers)
}

// FaultCoverage returns the fraction of the given faults detected by the
// test pairs (0..1).
func FaultCoverage(c *Circuit, pairs []TestPair, faults []Fault, robust bool) (float64, error) {
	if c == nil || c.c == nil {
		return 0, ErrNilCircuit
	}
	return faultsim.Coverage(c.c, pairs, faults, robust)
}

// EstimateFaultCoverage estimates the coverage of the test pairs over the
// circuit's full fault population by simulating a uniform sample of
// sampleSize faults; it returns the estimate and the number of faults
// actually sampled.
func EstimateFaultCoverage(c *Circuit, pairs []TestPair, sampleSize int, seed int64, robust bool) (float64, int, error) {
	if c == nil || c.c == nil {
		return 0, 0, ErrNilCircuit
	}
	return faultsim.EstimateCoverage(c.c, pairs, sampleSize, seed, robust)
}

// ReadTests parses a test set in the text format written by TestSet.Write.
func ReadTests(r io.Reader) (*TestSet, error) { return pattern.Read(r) }

// LoadTests reads a test set file (as written by Engine.Tests().Write or
// the tip command's -out flag).
func LoadTests(path string) (*TestSet, error) {
	f, err := os.Open(path)
	if err != nil {
		return nil, err
	}
	defer f.Close()
	return pattern.Read(f)
}
