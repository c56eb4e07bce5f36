package atpg

import (
	"fmt"

	"repro/internal/compact"
)

// CompactionLevel selects how aggressively the engine statically compacts
// each run's test set after generation.
type CompactionLevel = compact.Level

// The three compaction levels.
const (
	// CompactNone disables compaction (the default).
	CompactNone = compact.None
	// CompactReverse re-simulates the pairs in reverse generation order and
	// drops every pair that detects no not-yet-detected fault.
	CompactReverse = compact.Reverse
	// CompactFull first merges pairs whose three-valued vectors are
	// compatible (using the don't-care information of the unfilled pairs),
	// then applies the reverse-order pass to the merged set.
	CompactFull = compact.Full
)

// ParseCompaction parses "none", "reverse" or "full" (the spelling of the
// CLI -compact flags).
func ParseCompaction(s string) (CompactionLevel, error) { return compact.ParseLevel(s) }

// CompactionStats summarizes a compaction pass: pairs before/after,
// compatible merges and reverse-order simulation drops.  The engine
// accumulates them in Stats.Compaction.
type CompactionStats = compact.Stats

// XFill is a strategy for completing the don't-care positions of merged
// pairs after compaction: [XFillZero], [XFillOne] or [XFillRandom].  The
// zero value is XFillZero.
type XFill = compact.Filler

// XFillZero fills every don't care with logic 0 (the default, matching the
// generator's own fill value).
func XFillZero() XFill { return compact.ZeroFill() }

// XFillOne fills every don't care with logic 1.
func XFillOne() XFill { return compact.OneFill() }

// XFillRandom fills don't cares with seed-derived pseudo-random values; the
// same seed always produces the same fill, independent of call order.
func XFillRandom(seed int64) XFill { return compact.RandomFill(seed) }

// ParseXFill parses the CLI spelling of an X-fill strategy — "zero", "one"
// or "random" (seeded with seed); the empty string means zero.
func ParseXFill(name string, seed int64) (XFill, error) { return compact.ParseFill(name, seed) }

// CompactTests statically compacts a test set against a fault list without
// an engine: compatible-pair merging (level CompactFull) followed by
// reverse-order fault simulation.  The returned set detects exactly the
// same faults of the list, in the selected class, as the input set — never
// fewer and never more — and the input set is not modified.  fill selects
// how merged pairs' don't cares are completed.
//
// This is the library entry behind `dfsim -compact`; engines compact their
// own sets when built with [WithCompaction].
func CompactTests(c *Circuit, set *TestSet, faults []Fault, robust bool, level CompactionLevel, fill XFill) (*TestSet, CompactionStats, error) {
	if c == nil || c.c == nil {
		return nil, CompactionStats{}, ErrNilCircuit
	}
	if set == nil {
		return nil, CompactionStats{}, fmt.Errorf("atpg: nil test set")
	}
	return compact.Compact(c.c, set, faults, robust, level, fill)
}
