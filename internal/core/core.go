// Package core implements the paper's primary contribution: bit-parallel
// test pattern generation for path delay faults.
//
// Two modes of bit parallelism are combined, exactly as in Section 3 of the
// paper:
//
//   - FPTPG (fault-parallel test pattern generation) sensitizes up to L
//     target faults simultaneously, one per bit level, and justifies them
//     with shared bit-parallel implications.  Levels that conflict before
//     any optional decision prove their fault redundant; levels whose
//     requirements become justified yield a test.  This also settles the
//     Figure 1 rule that every path through an unsensitizable subpath is
//     redundant: such a fault carries the subpath's requirements, so its
//     level conflicts at the group's first implication.
//
//   - APTPG (alternative-parallel test pattern generation) takes a single
//     hard fault, flattens it onto all L bit levels and enumerates all value
//     combinations of up to log2(L) backtrace-selected primary inputs in
//     parallel, one combination per bit level.  Further decisions are made
//     conventionally (one value for all levels) and backtracked on conflict.
//
// The combined generator starts every fault in FPTPG and dynamically passes
// faults that would need backtracking to APTPG.  Restricting the word width
// to one bit yields the single-bit baseline used for the comparison in
// Tables 5 and 6 of the paper.
//
// The hand-over carries the fault's first closure with it.  A window of up
// to one machine word of faults is opened with a single implication of all
// their requirements and launches, whose closure the implication state
// saves (implic.State.SaveClosure) before FPTPG's first decision.  APTPG
// then starts each fault the window hands over from that closure's bit
// level (implic.State.LoadClosure) rather than implying the fault again; the
// load counts as the implication it replaces, so every effort counter reads
// as before.  With FPTPG off the window is opened all the same and hands
// every fault over: a fault whose first closure conflicts is Redundant in
// APTPG, one that cannot be sensitized Aborted in APTPG, as before.
package core

import (
	"fmt"
	"time"

	"repro/internal/compact"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/pattern"
	"repro/internal/sched"
	"repro/internal/sensitize"
)

// Status is the final classification of a target fault.
type Status uint8

// Fault classifications.
const (
	// Pending: not yet processed.
	Pending Status = iota
	// Tested: a test pattern was generated for the fault.
	Tested
	// Redundant: the fault was proved untestable (in the selected test
	// class).
	Redundant
	// Aborted: the generator gave up within its backtrack/iteration limits.
	Aborted
	// DetectedBySim: the fault was dropped because a pattern generated for
	// another fault already detects it (found by the interleaved fault
	// simulation).
	DetectedBySim
)

// String returns a short lower-case name for the status.
func (s Status) String() string {
	switch s {
	case Pending:
		return "pending"
	case Tested:
		return "tested"
	case Redundant:
		return "redundant"
	case Aborted:
		return "aborted"
	case DetectedBySim:
		return "detected-by-simulation"
	}
	return fmt.Sprintf("Status(%d)", uint8(s))
}

// Detected reports whether the fault is covered by the generated test set
// (either by its own test or by another fault's test).
func (s Status) Detected() bool { return s == Tested || s == DetectedBySim }

// Phase identifies which part of the generator settled a fault.
type Phase uint8

// Generator phases.
const (
	PhaseNone Phase = iota
	PhaseFPTPG
	PhaseAPTPG
	PhaseSimulation
	// PhasePruning is no longer produced by the generator: earlier builds
	// settled faults through a recorded redundant subpath under it.  Such
	// faults now conflict at their FPTPG group's first implication
	// (PhaseFPTPG).  Nothing decodes it any more; it stays only because
	// bench/layers.go reads it for its core.settled.pruning row, and goes
	// with that row.
	PhasePruning
)

// String returns a short name for the phase.
func (p Phase) String() string {
	switch p {
	case PhaseFPTPG:
		return "fptpg"
	case PhaseAPTPG:
		return "aptpg"
	case PhaseSimulation:
		return "simulation"
	case PhasePruning:
		return "pruning"
	}
	return "none"
}

// Options configure the generator.
type Options struct {
	// Mode selects robust or nonrobust test generation.
	Mode sensitize.Mode
	// WordWidth is the number of bit levels L exploited (1..MaxWordWidth);
	// width 1 is the single-bit baseline of Tables 5 and 6.  It sets the
	// size of a work unit and the default simulation interval.  The
	// searches run on one machine word: a unit of more than logic.WordWidth
	// faults runs as consecutive FPTPG groups of at most logic.WordWidth,
	// and APTPG enumerates at most that many alternatives.
	WordWidth int
	// UseFPTPG enables the fault-parallel first phase.
	UseFPTPG bool
	// UseAPTPG enables the alternative-parallel second phase.  With both
	// phases disabled every fault is aborted, so at least one should be on.
	UseAPTPG bool
	// MaxBacktracks bounds the conventional backtracks per fault in APTPG
	// before the fault is aborted.
	MaxBacktracks int
	// FaultSimInterval runs parallel-pattern fault simulation over the
	// pending faults after every FaultSimInterval generated patterns and
	// drops the detected ones; 0 disables it.  The paper simulates after
	// every L generated patterns.
	FaultSimInterval int
	// FullSweepImplic runs the generator on the full-sweep reference
	// (implic.NewFullSweepState: from-scratch forward/backward sweeps on
	// every Imply and a whole-circuit ForwardSim) instead of the event-driven
	// engine.  Both backtrack over the assignment trail and reach identical
	// decisions; the reference is the oracle of the equivalence tests and
	// the paper's cost model in the grouping experiment.  Production runs
	// leave it off.
	FullSweepImplic bool
	// Compaction selects the static compaction pass applied to a run's
	// freshly generated patterns after the (sharded) merge: compatible-pair
	// merging and/or reverse-order fault simulation (see internal/compact).
	// Compaction never changes which faults of the run are detected.
	Compaction compact.Level
	// CompactionXFill fills the don't-care positions of merged pairs during
	// compaction; the zero value is compact.ZeroFill().
	CompactionXFill compact.Filler
	// EmitUnfilled records the X-preserving form of every generated pattern
	// alongside the filled one (pattern.Set.Unfilled).  Merge-level
	// compaction needs it, so normalize turns it on when Compaction is
	// compact.Full.
	EmitUnfilled bool
}

// DefaultOptions returns the configuration used by the experiments: robust
// or nonrobust mode with the full word width, both phases enabled, fault
// simulation after every L patterns and moderate abort limits.
func DefaultOptions(mode sensitize.Mode) Options {
	return Options{
		Mode:             mode,
		WordWidth:        logic.WordWidth,
		UseFPTPG:         true,
		UseAPTPG:         true,
		MaxBacktracks:    8,
		FaultSimInterval: logic.WordWidth,
	}
}

// SingleBitOptions returns the single-bit baseline configuration: the same
// algorithm restricted to one bit level, i.e. one fault and one value
// alternative at a time, as used for the comparison in Tables 5 and 6.
func SingleBitOptions(mode sensitize.Mode) Options {
	o := DefaultOptions(mode)
	o.WordWidth = 1
	o.FaultSimInterval = 1
	return o
}

// normalize clamps the options to legal values.
func (o Options) normalize() Options {
	if o.WordWidth < 1 {
		o.WordWidth = 1
	}
	if o.WordWidth > MaxWordWidth {
		o.WordWidth = MaxWordWidth
	}
	if o.MaxBacktracks <= 0 {
		o.MaxBacktracks = 8
	}
	if o.Compaction == compact.Full {
		o.EmitUnfilled = true
	}
	return o
}

// maxFPTPGIterations bounds the decision rounds per FPTPG group.
const maxFPTPGIterations = 128

// fillValue is the value of the primary inputs a test does not constrain.
const fillValue = logic.Zero3

// MaxWordWidth is the widest word width L a run accepts: 128.  The width is
// the size of a work unit (see cut) and the default simulation interval; the
// searches run on one machine word of logic.WordWidth levels, so a wider
// unit runs as consecutive FPTPG groups of at most logic.WordWidth faults.
const MaxWordWidth = 2 * logic.WordWidth

// cut groups the n target faults of a run into the work units of its pass:
// runs of WordWidth (at most MaxWordWidth) fault indices, in input order.
func (o Options) cut(n int) []sched.Unit {
	idx := make([]int, n)
	for i := range idx {
		idx[i] = i
	}
	return sched.Group(idx, o.WordWidth)
}

func log2(n int) int {
	l := 0
	for n > 1 {
		n >>= 1
		l++
	}
	return l
}

// FaultResult is the outcome of the generator for one target fault.
type FaultResult struct {
	Fault  paths.Fault
	Status Status
	Phase  Phase
	// Test is the generated two-vector test (valid when Status == Tested).
	Test pattern.Pair
	// PatternIndex is the index of the detecting pattern in the test set,
	// for Tested and DetectedBySim faults; -1 otherwise.
	PatternIndex int
	// Decisions and Backtracks count the search effort spent on the fault.
	Decisions  int
	Backtracks int
	// Err records why an Aborted fault was given up before its search limits
	// were exhausted (typically the context cancellation cause); it is nil
	// for faults that ran to a regular classification.
	Err error
}

// Effort is the search effort of a run: the FPTPG groups run, the faults
// searched by APTPG, the decisions, backtracks and implications made, and
// the time split of Tables 5 and 6.  A remote worker reports it for the
// units it processed.
type Effort struct {
	FPTPGGroups  int
	APTPGFaults  int
	Decisions    int
	Backtracks   int
	Implications int

	// SensitizeTime is the time spent computing sensitization conditions
	// (the t_sens column of Tables 5 and 6); GenerateTime is the rest of the
	// generation time.
	SensitizeTime time.Duration
	GenerateTime  time.Duration
}

// Add accumulates another effort into e.
func (e *Effort) Add(o Effort) {
	e.FPTPGGroups += o.FPTPGGroups
	e.APTPGFaults += o.APTPGFaults
	e.Decisions += o.Decisions
	e.Backtracks += o.Backtracks
	e.Implications += o.Implications
	e.SensitizeTime += o.SensitizeTime
	e.GenerateTime += o.GenerateTime
}

// Stats aggregates a generator run.  The classification counters are
// counted once per run, from its final results (see mergeRun).
type Stats struct {
	Faults        int
	Tested        int
	Redundant     int
	Aborted       int
	DetectedBySim int

	Effort

	// Sched summarizes the dispatch layer of the run(s): the work units,
	// and for a remote run its lease counters (see sched.Stats).
	Sched sched.Stats

	// Compaction summarizes the static compaction passes of the run(s):
	// pairs before/after, compatible merges, reverse-order simulation drops.
	// All counters stay zero while Options.Compaction is compact.None.
	Compaction compact.Stats
}

// Add accumulates the counters and times of another run into s.  It is the
// merge operation of the sharded engine: every worker runs with its own
// Stats, and the orchestrator folds them into the master's.  The time fields
// add up to aggregate CPU time, not wall-clock time, when the runs were
// concurrent.
func (s *Stats) Add(o Stats) {
	s.Faults += o.Faults
	s.Tested += o.Tested
	s.Redundant += o.Redundant
	s.Aborted += o.Aborted
	s.DetectedBySim += o.DetectedBySim
	s.Effort.Add(o.Effort)
	s.Sched.Add(o.Sched)
	s.Compaction.Add(o.Compaction)
}

// tally counts the final classifications of a run's results.
func (s *Stats) tally(results []FaultResult) {
	s.Faults += len(results)
	for i := range results {
		switch results[i].Status {
		case Tested:
			s.Tested++
		case Redundant:
			s.Redundant++
		case Aborted:
			s.Aborted++
		case DetectedBySim:
			s.DetectedBySim++
		}
	}
}

// Efficiency returns the paper's efficiency metric
// (1 - aborted/faults) * 100%.
func (s Stats) Efficiency() float64 {
	if s.Faults == 0 {
		return 100
	}
	return (1 - float64(s.Aborted)/float64(s.Faults)) * 100
}

// Coverage returns the fraction of faults covered by the generated test set
// (tested directly or detected by simulation).
func (s Stats) Coverage() float64 {
	if s.Faults == 0 {
		return 0
	}
	return float64(s.Tested+s.DetectedBySim) / float64(s.Faults)
}

// String renders a one-line summary.
func (s Stats) String() string {
	return fmt.Sprintf("faults=%d tested=%d redundant=%d aborted=%d sim-detected=%d efficiency=%.2f%%",
		s.Faults, s.Tested, s.Redundant, s.Aborted, s.DetectedBySim, s.Efficiency())
}
