// Package atpg is the public API of the HenftlingW95 reproduction: a
// bit-parallel automatic test pattern generator (ATPG) for path delay
// faults, as described in M. Henftling and H. Wittmann, "Bit parallel test
// pattern generation for path delay faults", ED&TC 1995.
//
// Everything an external program needs lives in this package: circuit
// loading ([LoadBench], [Builtin], [Synthesize]), fault selection
// ([AllFaults], [SampleFaults], [LongestPaths]), the generator itself
// ([Engine], built with [New] and functional options), fault simulation
// ([Simulate], [FaultCoverage], [EstimateFaultCoverage]) and the paper's
// experiment harness (RunTable3 … RunTable8).  The repro/internal packages
// are implementation detail and not importable.
//
// # Quickstart
//
//	c, err := atpg.Builtin("c17")
//	if err != nil { ... }
//	e, err := atpg.New(c, atpg.WithMode(atpg.Robust))
//	if err != nil { ... }
//	results, err := e.Run(context.Background(), atpg.AllFaults(c, 0))
//	for _, r := range results {
//		fmt.Println(c.Describe(r.Fault), r.Status)
//	}
//
// Results can also be consumed as they are produced, via the streaming
// iterator [Engine.Stream]:
//
//	for r := range e.Stream(ctx, faults) {
//		if r.Status == atpg.Tested { persist(r.Test) }
//	}
//
// # How the options map onto the paper
//
// The paper combines two forms of bit parallelism over the L bit levels of
// a machine word (Section 3); each option controls one published knob:
//
//   - [WithWordWidth] sets L, the number of bit levels exploited
//     (1..[MaxWordWidth], Section 3; Tables 3-6 use 64, Tables 7-8 use 32).
//     L = 1 is the single-bit baseline of Tables 5 and 6.  The searches run
//     on one machine word: L = 65..128 only cuts larger work units, each
//     run as one-word groups.
//   - [WithMode] selects the test class: [Robust] (Lin/Reddy robust path
//     delay tests) or [Nonrobust], the two classes of Tables 3 and 4.
//   - [WithFaultParallel] toggles FPTPG (fault-parallel test pattern
//     generation, Section 3.1): up to L target faults are sensitized
//     simultaneously, one per bit level, and justified with shared
//     bit-parallel implications.
//   - [WithAlternativeParallel] toggles APTPG (alternative-parallel test
//     pattern generation, Section 3.2): a single hard fault is flattened
//     onto all L bit levels and all value combinations of up to log2(L)
//     backtrace-selected inputs are examined in parallel.
//   - [WithBacktrackLimit] bounds the conventional backtracks APTPG spends
//     per fault before aborting it (the abort limit behind the efficiency
//     column of Tables 3 and 4).
//   - [WithInterleavedSim] sets the interleaved fault-simulation interval:
//     the paper simulates the pending faults after every L generated
//     patterns and drops the detected ones.
//   - [WithProgress] registers a callback invoked as each fault settles;
//     it observes the same stream [Engine.Stream] yields.
//
// # Beyond the paper: scheduling
//
// The paper's parallelism lives inside one machine word; [WithWorkers]
// multiplies it by core-level parallelism.  All fault dispatch goes
// through one scheduling layer: the fault list is cut into work units
// (word-parallel fault groups) that n worker goroutines claim from one
// FIFO in cut order, through an atomic cursor with no lock, each worker
// running an independent generator over the shared immutable circuit.
// A run starts no more workers than it has units, so none idles while a
// unit is left.  The workers cooperate: patterns emitted by
// one join the run's pattern pool and are fault-simulated against the
// faults the others claim, so the interleaved-simulation dropping of the
// paper keeps working across workers.  Results merge into the same
// deterministic, input-ordered slice [Engine.Run] always returns — the merged test set is reassembled
// in canonical fault order, so with the interleaved simulation disabled
// it is identical for every worker count, one included, and every claim
// interleaving (with it enabled, which covered fault contributes a
// pattern still depends on cross-worker drop timing) — and the test set
// and statistics accumulate in the engine across runs.  See docs/ARCHITECTURE.md
// ("Scheduling") for the design.
//
// Generation honors context cancellation and deadlines: a canceled run
// returns early with an error matching [ErrCanceled], and every fault that
// had not settled yet is reported as [Aborted] with the cancellation cause
// in its Err field.
package atpg
