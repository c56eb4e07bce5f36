package atpg

import (
	"context"
	"fmt"
	"iter"

	"repro/internal/core"
	"repro/internal/pattern"
)

// Status is the final classification of a target fault.
type Status = core.Status

// The fault classifications.
const (
	// Pending: not yet processed.  Run and Stream never return Pending
	// results (canceled faults come back Aborted with Err set); the value
	// exists as the zero status.
	Pending = core.Pending
	// Tested: a two-vector test was generated for the fault.
	Tested = core.Tested
	// Redundant: the fault was proved untestable in the selected class.
	Redundant = core.Redundant
	// Aborted: the generator gave up within its limits (or was canceled;
	// then the result's Err field carries the cause).
	Aborted = core.Aborted
	// DetectedBySim: dropped because another fault's test already detects
	// it, found by the interleaved fault simulation.
	DetectedBySim = core.DetectedBySim
)

// Phase identifies which part of the generator settled a fault.
type Phase = core.Phase

// The generator phases.
const (
	PhaseNone       = core.PhaseNone
	PhaseFPTPG      = core.PhaseFPTPG
	PhaseAPTPG      = core.PhaseAPTPG
	PhaseSimulation = core.PhaseSimulation
	// PhasePruning is no longer produced by the generator; it is decoded
	// only from the service ledgers of earlier builds (see core.PhasePruning).
	PhasePruning = core.PhasePruning
)

// Result is the outcome for one target fault: its classification, the phase
// that settled it, the generated test (when Status == Tested), the index of
// the detecting pattern in the engine's test set, and the search effort
// spent.
type Result = core.FaultResult

// TestPair is a two-vector test: the initialization vector V1 followed by
// the propagation vector V2, one value per primary input.
type TestPair = pattern.Pair

// TestSet is an ordered collection of test pairs with the fault each pair
// was generated for; it can be written to and re-read from a simple text
// format (Write/Read, see also [LoadTests]).
type TestSet = pattern.Set

// Stats aggregates a generator run: per-classification fault counts, pattern
// and search-effort counters, and the sensitization/generation time split
// reported in Tables 5 and 6.
type Stats = core.Stats

// Coverage summarizes how well the generated test set covers the targeted
// faults.
type Coverage struct {
	// Faults is the number of faults targeted so far.
	Faults int
	// Detected counts faults covered by the test set: tested directly or
	// detected by the interleaved simulation.
	Detected int
	// Redundant counts faults proved untestable.
	Redundant int
	// Aborted counts faults given up on.
	Aborted int
	// Patterns is the size of the engine's test set — after compaction when
	// the engine was built with [WithCompaction], so it can be smaller than
	// Stats.Tested, the number of patterns generated.
	Patterns int
}

// Fraction returns the covered fraction of the targeted faults (0..1).
func (c Coverage) Fraction() float64 {
	if c.Faults == 0 {
		return 0
	}
	return float64(c.Detected) / float64(c.Faults)
}

// Efficiency returns the paper's fault efficiency metric,
// (1 - aborted/faults) * 100%.
func (c Coverage) Efficiency() float64 {
	if c.Faults == 0 {
		return 100
	}
	return (1 - float64(c.Aborted)/float64(c.Faults)) * 100
}

// Engine is the bit-parallel path delay fault test pattern generator, bound
// to one circuit and one configuration.  Run and Stream may be called
// several times; the test set and statistics accumulate across calls.  With
// [WithWorkers] the engine parallelizes each run internally, but an Engine
// is still not safe for concurrent use by multiple goroutines.
type Engine struct {
	circuit  *Circuit
	gen      *core.Generator
	workers  int
	progress func(Result)
	// remote, when non-empty, routes Run and Stream to an ATPG service
	// coordinator at this base URL (see WithRemote).
	remote string
}

// New builds an engine for the circuit.  Without options it generates
// robust tests at the full word width with both FPTPG and APTPG enabled and
// fault simulation after every L patterns, the configuration of the paper's
// main experiments.  Invalid options fail construction (e.g. ErrBadWidth
// for an out-of-range WithWordWidth).
func New(c *Circuit, opts ...Option) (*Engine, error) {
	if c == nil || c.c == nil {
		return nil, ErrNilCircuit
	}
	cfg := engineConfig{opts: core.DefaultOptions(Robust)}
	for _, opt := range opts {
		if err := opt(&cfg); err != nil {
			return nil, err
		}
	}
	if cfg.simInterval != nil {
		cfg.opts.FaultSimInterval = *cfg.simInterval
	} else {
		cfg.opts.FaultSimInterval = cfg.opts.WordWidth
	}
	workers := max(cfg.workers, 1)
	if cfg.remote != "" {
		workers = 0 // the fleet sets a remote run's parallelism
	}
	return &Engine{
		circuit:  c,
		gen:      core.New(c.c, cfg.opts),
		workers:  workers,
		progress: cfg.progress,
		remote:   cfg.remote,
	}, nil
}

// Circuit returns the circuit the engine generates tests for.
func (e *Engine) Circuit() *Circuit { return e.circuit }

// Mode returns the test class the engine generates.
func (e *Engine) Mode() Mode { return e.gen.Options().Mode }

// WordWidth returns the number of bit levels L the engine exploits.
func (e *Engine) WordWidth() int { return e.gen.Options().WordWidth }

// Workers returns the number of worker goroutines each run is sharded
// across (1 = the paper's sequential generator), or 0 on a remote engine
// (see WithRemote), whose runs the coordinator's fleet parallelizes.
func (e *Engine) Workers() int { return e.workers }

// Run generates tests for the given faults and returns one result per
// fault, in input order (the order is deterministic regardless of the
// worker count).  It honors ctx: on cancellation or deadline expiry the run
// stops early, the error matches ErrCanceled (and wraps the context cause),
// and every fault that had not settled is returned as Aborted with the
// cause in its Err field.  An empty fault list yields ErrNoFaults.
func (e *Engine) Run(ctx context.Context, faults []Fault) ([]Result, error) {
	if ctx == nil {
		ctx = context.Background()
	}
	if len(faults) == 0 {
		return nil, ErrNoFaults
	}
	if e.remote != "" {
		return e.runRemote(ctx, faults)
	}
	if e.progress != nil {
		e.gen.OnSettle = func(_ int, r Result) { e.progress(r) }
	}
	defer func() { e.gen.OnSettle = nil }()
	results := core.RunSharded(ctx, e.gen, faults, e.workers)
	if ctx.Err() != nil {
		return results, fmt.Errorf("%w after %d of %d faults: %w",
			ErrCanceled, settledCount(results), len(faults), context.Cause(ctx))
	}
	if err := e.gen.Err(); err != nil {
		return results, fmt.Errorf("atpg: %w", err)
	}
	return results, nil
}

// Stream generates tests for the given faults and yields each fault's
// result as soon as its classification is final — generally not in input
// order: redundant and easy faults settle first, simulation-detected ones
// whenever a new pattern covers them, and with several workers the shards
// interleave.  Callers can stop consuming at any time (break), which
// cancels the rest of the generation; cancelling ctx has the same effect.
// After the stream ends, [Engine.Coverage] and [Engine.Tests] reflect
// everything generated.
//
// The yield function always runs on the consumer's goroutine: the worker
// goroutines hand their settled results over a channel, so ranging over the
// stream needs no synchronization.  One caveat, at every worker count: a
// streamed result's PatternIndex is -1, because the run's test set is
// merged (and, with [WithCompaction], compacted) only after every fault has
// settled; indices into the final set are only available from
// [Engine.Run].  After the stream ends, [Engine.Tests] returns that set.
func (e *Engine) Stream(ctx context.Context, faults []Fault) iter.Seq[Result] {
	return func(yield func(Result) bool) {
		if len(faults) == 0 {
			return
		}
		if ctx == nil {
			ctx = context.Background()
		}
		if e.remote != "" {
			e.streamRemote(ctx, faults)(yield)
			return
		}
		runCtx, cancel := context.WithCancel(ctx)
		defer cancel()
		defer func() { e.gen.OnSettle = nil }()

		// Workers settle faults on their own goroutines.  Every fault settles
		// exactly once, so a buffer of len(faults) lets workers publish
		// without ever blocking; the consumer drains on its own goroutine.
		// After an early break the channel is drained to completion so the
		// engine's accumulated state is final (and the master generator idle)
		// by the time the stream returns.
		ch := make(chan Result, len(faults))
		e.gen.OnSettle = func(_ int, r Result) {
			if e.progress != nil {
				e.progress(r)
			}
			ch <- r
		}
		go func() {
			core.RunSharded(runCtx, e.gen, faults, e.workers)
			close(ch)
		}()
		for r := range ch {
			if !yield(r) {
				cancel()
				for range ch {
				}
				return
			}
		}
	}
}

// Tests returns the test set generated so far (accumulated across runs).
func (e *Engine) Tests() *TestSet { return e.gen.TestSet() }

// Stats returns the accumulated generator statistics.
func (e *Engine) Stats() Stats { return e.gen.Stats() }

// Coverage summarizes the accumulated runs.
func (e *Engine) Coverage() Coverage {
	st := e.gen.Stats()
	return Coverage{
		Faults:    st.Faults,
		Detected:  st.Tested + st.DetectedBySim,
		Redundant: st.Redundant,
		Aborted:   st.Aborted,
		Patterns:  e.gen.TestSet().Len(),
	}
}

// settledCount counts the faults that reached a real classification (i.e.
// were not cut short by cancellation).
func settledCount(results []Result) int {
	n := 0
	for i := range results {
		if results[i].Status != Pending && results[i].Err == nil {
			n++
		}
	}
	return n
}
