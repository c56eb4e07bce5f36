package atpg

import (
	"fmt"
	"runtime"

	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/sensitize"
)

// Mode selects the test class tests are generated for.
type Mode = sensitize.Mode

// The two test classes of the paper (Tables 3 and 4).
const (
	// Nonrobust tests only fix the final values of the off-path inputs.
	Nonrobust = sensitize.Nonrobust
	// Robust tests additionally keep off-path inputs stable where the
	// on-path input changes towards the controlling value (Lin/Reddy).
	Robust = sensitize.Robust
)

// ParseMode parses "robust" or "nonrobust" (the spelling of the CLI -mode
// flags).
func ParseMode(s string) (Mode, error) { return sensitize.ParseMode(s) }

// MaxWordWidth is the largest word width L an engine accepts: 128.  The
// searches run on one 64-bit machine word: a width above 64 sets the size
// of a work unit and the default simulation interval, and each unit runs
// as consecutive fault-parallel groups of at most 64 faults, which decide
// exactly what one wider group would.  See DefaultWordWidth for the width
// engines use when none is requested.
const MaxWordWidth = core.MaxWordWidth

// DefaultWordWidth is the width engines run at when WithWordWidth is not
// given: one machine word, 64 bit levels.
const DefaultWordWidth = logic.WordWidth

// Option configures an [Engine] at construction time.
type Option func(*engineConfig) error

// engineConfig accumulates the option values before they are validated and
// frozen into core options by New.
type engineConfig struct {
	opts core.Options
	// simInterval, when nil, tracks the word width (the paper simulates
	// after every L generated patterns).
	simInterval *int
	// workers is the resolved worker count; 0 (option absent) means 1.
	workers  int
	progress func(Result)
	// remote, when set, makes the engine submit runs to an ATPG service
	// coordinator instead of generating in-process (see WithRemote).
	remote string
}

// WithMode selects robust or nonrobust test generation (default: robust).
func WithMode(m Mode) Option {
	return func(c *engineConfig) error {
		if m != Robust && m != Nonrobust {
			return fmt.Errorf("atpg: unknown mode %d", m)
		}
		c.opts.Mode = m
		return nil
	}
}

// WithWordWidth sets the number of bit levels L exploited by both forms of
// bit parallelism (default: DefaultWordWidth).  Width 1 is the single-bit
// baseline of Tables 5 and 6; widths 65..128 run each work unit as several
// one-word groups (see MaxWordWidth).  Widths outside 1..MaxWordWidth make
// New fail with ErrBadWidth.
func WithWordWidth(w int) Option {
	return func(c *engineConfig) error {
		if w < 1 || w > MaxWordWidth {
			return fmt.Errorf("%w: %d (want 1..%d)", ErrBadWidth, w, MaxWordWidth)
		}
		c.opts.WordWidth = w
		return nil
	}
}

// WithBacktrackLimit bounds the conventional backtracks APTPG spends per
// fault before aborting it (default: 8).
func WithBacktrackLimit(n int) Option {
	return func(c *engineConfig) error {
		if n < 1 {
			return fmt.Errorf("atpg: backtrack limit must be at least 1, got %d", n)
		}
		c.opts.MaxBacktracks = n
		return nil
	}
}

// WithFaultParallel toggles FPTPG, the fault-parallel first phase (default:
// on).  With both phases disabled every fault is aborted.
func WithFaultParallel(on bool) Option {
	return func(c *engineConfig) error {
		c.opts.UseFPTPG = on
		return nil
	}
}

// WithAlternativeParallel toggles APTPG, the alternative-parallel second
// phase that takes over the faults FPTPG would have to backtrack on
// (default: on).
func WithAlternativeParallel(on bool) Option {
	return func(c *engineConfig) error {
		c.opts.UseAPTPG = on
		return nil
	}
}

// WithInterleavedSim sets the interleaved fault-simulation interval: after
// every interval generated patterns the pending faults are fault-simulated
// and the detected ones dropped.  0 disables the simulation.  The default
// follows the paper and simulates after every L patterns.
func WithInterleavedSim(interval int) Option {
	return func(c *engineConfig) error {
		if interval < 0 {
			return fmt.Errorf("atpg: negative fault-simulation interval %d", interval)
		}
		c.simInterval = &interval
		return nil
	}
}

// WithWorkers sets the number of worker goroutines the engine shards the
// fault list across, stacking core-level parallelism on top of the paper's
// word-level bit parallelism: each worker owns an independent generator over
// the shared immutable circuit, starts on one contiguous shard of the fault
// slice and, once its own shard is drained, steals queued fault groups from
// the most loaded peer.  When the interleaved simulation is on, workers
// share the run's pattern pool, so one shard's tests still drop detected
// faults on the others.  n = 0 selects runtime.GOMAXPROCS(0), one worker
// per available core; negative counts fail construction.  The default is 1: one worker
// owns every fault and drops the detected ones after every L patterns, as
// the paper's generator does.  Every worker count ends its runs with the
// same canonical merge of the test set.
//
// With the interleaved simulation on, sharding never changes which faults
// are proved redundant, but it changes when patterns drop faults, since
// that depends on the cross-shard pattern arrival order: a covered fault
// may report Tested (its own pattern) or DetectedBySim (dropped by another
// fault's pattern), and a fault one worker count aborts may be dropped by
// another fault's test at another, so coverage and efficiency move with n
// (of all 13,050 robust c880 faults, at L = 64 and a budget of 64
// backtracks, 739 abort at one worker and 719 at two).  With the interleaved simulation off (WithInterleavedSim(0))
// neither the statuses nor the written test set depend on n.  Statistics aggregate over the
// workers, so Stats time fields become CPU time rather than wall-clock
// time.
func WithWorkers(n int) Option {
	return func(c *engineConfig) error {
		if n < 0 {
			return fmt.Errorf("atpg: negative worker count %d", n)
		}
		if n == 0 {
			n = runtime.GOMAXPROCS(0)
		}
		c.workers = n
		return nil
	}
}

// WithProgress registers a callback invoked once for every fault whose
// classification becomes final, in settle order.  The callback runs on the
// worker goroutine that settles the fault, serialized by the engine, and
// must not call back into the engine.  Its results carry PatternIndex -1:
// the run's test set is merged only after every fault has settled.
func WithProgress(fn func(Result)) Option {
	return func(c *engineConfig) error {
		c.progress = fn
		return nil
	}
}

// WithCompaction selects the static compaction applied to every run's test
// set once, after the run's deterministic merge:
//
//   - CompactNone (the default) leaves the set as generated;
//   - CompactReverse re-simulates the pairs in reverse generation order and
//     drops every pair detecting no not-yet-detected fault;
//   - CompactFull additionally merges compatible pairs first, using the
//     don't-care information of the unfilled pairs (which the engine then
//     records automatically alongside the filled ones).
//
// Compaction never changes which faults a run detects: the compacted set's
// coverage over the run's fault list is identical, for any worker count.
// Pattern indices in Run results refer to the compacted set; Stats records
// the pairs before/after, merges and simulation drops in Stats.Compaction.
func WithCompaction(level CompactionLevel) Option {
	return func(c *engineConfig) error {
		switch level {
		case CompactNone, CompactReverse, CompactFull:
			c.opts.Compaction = level
			return nil
		}
		return fmt.Errorf("atpg: unknown compaction level %d", level)
	}
}

// WithXFill selects how the don't-care positions of pairs merged during
// compaction are filled: [XFillZero] (default), [XFillOne] or
// [XFillRandom].  It only takes effect together with
// WithCompaction(CompactFull).
func WithXFill(f XFill) Option {
	return func(c *engineConfig) error {
		c.opts.CompactionXFill = f
		return nil
	}
}
