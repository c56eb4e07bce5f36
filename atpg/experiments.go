package atpg

import "repro/internal/harness"

// This file re-exports the experiment harness that reproduces the paper's
// tables, so cmd/experiments (and external reproductions) need nothing
// beyond repro/atpg.

// ExperimentConfig controls the size, word width and seeding of an
// experiment run over the benchmark suites.
type ExperimentConfig = harness.Config

// ATPGRow is one row of Table 3 (robust) or Table 4 (nonrobust).
type ATPGRow = harness.ATPGRow

// SpeedupRow is one row of Table 5 (robust) or Table 6 (nonrobust), or one
// circuit x implication engine row of the grouping ablation.
type SpeedupRow = harness.SpeedupRow

// CompareRow is one row of Table 7 (nonrobust) or Table 8 (robust).
type CompareRow = harness.CompareRow

// AblationRow is one configuration of an ablation sweep.
type AblationRow = harness.AblationRow

// CoverageEstimate is the NEST-style coverage-estimation experiment result.
type CoverageEstimate = harness.CoverageEstimate

// DefaultExperimentConfig returns the full-size configuration used by
// cmd/experiments.
func DefaultExperimentConfig(mode Mode) ExperimentConfig { return harness.DefaultConfig(mode) }

// QuickExperimentConfig returns a scaled-down configuration suitable for
// tests and quick runs.
func QuickExperimentConfig(mode Mode) ExperimentConfig { return harness.QuickConfig(mode) }

// RunTable3 reproduces Table 3: robust ATPG over the ISCAS85-class suite.
func RunTable3(cfg ExperimentConfig) []ATPGRow { return harness.RunTable3(cfg) }

// RunTable4 reproduces Table 4: nonrobust ATPG over the ISCAS85-class suite.
func RunTable4(cfg ExperimentConfig) []ATPGRow { return harness.RunTable4(cfg) }

// RunTable5 reproduces Table 5: bit-parallel vs single-bit generation,
// robust.
func RunTable5(cfg ExperimentConfig) []SpeedupRow { return harness.RunTable5(cfg) }

// RunTable6 reproduces Table 6: bit-parallel vs single-bit generation,
// nonrobust.
func RunTable6(cfg ExperimentConfig) []SpeedupRow { return harness.RunTable6(cfg) }

// RunTable7 reproduces Table 7: TIP vs a structural baseline, nonrobust,
// L=32.
func RunTable7(cfg ExperimentConfig) []CompareRow { return harness.RunTable7(cfg) }

// RunTable8 reproduces Table 8: TIP vs a structural baseline, robust, L=32.
func RunTable8(cfg ExperimentConfig) []CompareRow { return harness.RunTable8(cfg) }

// FormatATPGTable renders Table 3/4 rows in the paper's layout.
func FormatATPGTable(title string, rows []ATPGRow) string {
	return harness.FormatATPGTable(title, rows)
}

// FormatSpeedupTable renders Table 5/6 rows in the paper's layout.
func FormatSpeedupTable(title string, rows []SpeedupRow) string {
	return harness.FormatSpeedupTable(title, rows)
}

// FormatCompareTable renders Table 7/8 rows in the paper's layout.
func FormatCompareTable(title string, rows []CompareRow) string {
	return harness.FormatCompareTable(title, rows)
}

// SpeedupSummary returns the average and maximum speed-up of a Table 5/6
// run, the paper's headline numbers.
func SpeedupSummary(rows []SpeedupRow) (avg, max float64) { return harness.SpeedupSummary(rows) }

// RunWordWidthAblation sweeps the word width L, the paper's central design
// parameter.
func RunWordWidthAblation(cfg ExperimentConfig, widths []int) []AblationRow {
	return harness.RunWordWidthAblation(cfg, widths)
}

// RunModeAblation compares FPTPG-only, APTPG-only and the combined
// generator.
func RunModeAblation(cfg ExperimentConfig) []AblationRow { return harness.RunModeAblation(cfg) }

// RunWorkerAblation sweeps the worker count of the sharded engine (counts
// defaults to 1, 2 and GOMAXPROCS): core-level parallelism on top of the
// paper's word-level parallelism.
func RunWorkerAblation(cfg ExperimentConfig, counts []int) []AblationRow {
	return harness.RunWorkerAblation(cfg, counts)
}

// RunFaultSimAblation compares generation with and without the interleaved
// fault simulation.
func RunFaultSimAblation(cfg ExperimentConfig) []AblationRow { return harness.RunFaultSimAblation(cfg) }

// RunCompactionAblation compares the test-set size and run time across the
// static compaction levels (none / reverse-order simulation / full
// merge+reverse).
func RunCompactionAblation(cfg ExperimentConfig) []AblationRow {
	return harness.RunCompactionAblation(cfg)
}

// RunGroupingAblation re-runs the Tables 5/6 comparison, fault-serial
// (L=1) against fixed-wide grouping, under both the incremental
// event-driven implication engine and the retained full-sweep oracle: the
// paper's width economics re-measured on the new cost model, one row per
// circuit and engine.
func RunGroupingAblation(cfg ExperimentConfig) []SpeedupRow {
	return harness.RunGroupingAblation(cfg)
}

// FormatGroupingTable renders grouping ablation rows, one line per circuit
// and engine.
func FormatGroupingTable(title string, rows []SpeedupRow) string {
	return harness.FormatGroupingTable(title, rows)
}

// FormatAblationTable renders ablation rows.
func FormatAblationTable(title string, rows []AblationRow) string {
	return harness.FormatAblationTable(title, rows)
}

// RunCoverageEstimate produces the NEST-style coverage-estimation
// experiment for the named profile circuit.
func RunCoverageEstimate(cfg ExperimentConfig, profileName string, sampleSize int) CoverageEstimate {
	return harness.RunCoverageEstimate(cfg, profileName, sampleSize)
}
