// Package harness reproduces the experiments of the paper: it runs the
// bit-parallel generator (and its baselines) over the benchmark circuit
// suites and produces the rows of Tables 3 through 8.
//
// The original ISCAS netlists, the DECstation hardware and the proprietary
// comparison tools are unavailable, so the harness substitutes synthetic
// circuits with matching structural profiles, a selectable word width, and a
// conventional structural single-fault generator as the stand-in comparator
// (see bench.Profile and bench.Synthesize).  Absolute numbers therefore differ from the paper; the
// quantities that are expected to reproduce are the *shapes*: complete or
// near-complete efficiency, bit-parallel speed-ups over the single-bit
// generator, and a reduction of aborted faults.
package harness

import (
	"cmp"
	"context"
	"fmt"
	"math/big"
	"slices"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// Config controls the size and word width of an experiment run.
type Config struct {
	// Mode selects robust or nonrobust generation.
	Mode sensitize.Mode
	// WordWidth is the machine word length L exploited by the bit-parallel
	// generator (the paper uses 64 for Tables 3-6 and 32 for Tables 7-8).
	WordWidth int
	// FaultsPerCircuit bounds the number of target faults sampled per
	// circuit.  The ISCAS circuits have up to tens of millions of paths; the
	// paper runs for days on them, so the reproduction targets a uniform
	// sample.  0 means 256.
	FaultsPerCircuit int
	// Scale shrinks the synthetic circuit profiles (1.0 = full published
	// size).  0 means 1.0.
	Scale float64
	// Seed makes fault sampling deterministic.
	Seed int64
	// Workers shards every generator run across this many goroutines
	// (core-level parallelism on top of the word-level bit parallelism).
	// 0 or 1 runs one worker, which drops detected faults after every L
	// patterns as the paper's generator does; every count ends its runs
	// with the same canonical merge of the test set.
	Workers int
	// Compact selects the static test-set compaction applied after every
	// generator run (compact.None disables it, the default).
	Compact compact.Level
	// XFill fills the don't cares of pairs merged during compaction; the
	// zero value is compact.ZeroFill().
	XFill compact.Filler
	// CPUProfile and MemProfile, when non-empty, are the pprof output paths
	// used by Config.Profiled (and by the -cpuprofile/-memprofile flags of
	// the command-line tools).
	CPUProfile string
	MemProfile string
}

// DefaultConfig returns the configuration used by cmd/experiments: full-size
// profiles, 256 sampled faults per circuit.
func DefaultConfig(mode sensitize.Mode) Config {
	return Config{Mode: mode, WordWidth: logic.WordWidth, FaultsPerCircuit: 256, Scale: 1.0, Seed: 1995}
}

// QuickConfig returns a reduced configuration suitable for unit tests and
// Go benchmarks: scaled-down circuits and few faults per circuit.
func QuickConfig(mode sensitize.Mode) Config {
	return Config{Mode: mode, WordWidth: logic.WordWidth, FaultsPerCircuit: 48, Scale: 0.12, Seed: 1995}
}

func (cfg Config) normalize() Config {
	if cfg.WordWidth <= 0 {
		cfg.WordWidth = logic.WordWidth
	}
	if cfg.FaultsPerCircuit <= 0 {
		cfg.FaultsPerCircuit = 256
	}
	if cfg.Scale <= 0 {
		cfg.Scale = 1.0
	}
	if cfg.Seed == 0 {
		cfg.Seed = 1995
	}
	if cfg.Workers < 1 {
		cfg.Workers = 1
	}
	return cfg
}

// runGenerator builds a generator and runs it over the faults, sharded
// across cfg.Workers goroutines.
func (cfg Config) runGenerator(c *circuit.Circuit, opts core.Options, faults []paths.Fault) *core.Generator {
	g := core.New(c, opts)
	core.RunSharded(context.Background(), g, faults, cfg.Workers)
	return g
}

// circuitFor synthesizes the (possibly scaled) stand-in for a profile.
func (cfg Config) circuitFor(p bench.Profile) (*circuit.Circuit, error) {
	if cfg.Scale != 1.0 {
		p = p.Scaled(cfg.Scale)
	}
	return bench.Synthesize(p)
}

// sampleFaults draws the bounded target fault list for a circuit.
func (cfg Config) sampleFaults(c *circuit.Circuit) []paths.Fault {
	total := paths.CountFaults(c)
	if total.Cmp(big.NewInt(int64(cfg.FaultsPerCircuit))) <= 0 {
		return paths.EnumerateFaults(c, 0)
	}
	return paths.SampleFaults(c, cfg.FaultsPerCircuit, cfg.Seed)
}

// generatorOptions builds the core options for the bit-parallel generator.
func (cfg Config) generatorOptions() core.Options {
	o := core.DefaultOptions(cfg.Mode)
	o.WordWidth = cfg.WordWidth
	o.FaultSimInterval = cfg.WordWidth
	o.Compaction = cfg.Compact
	o.CompactionXFill = cfg.XFill
	return o
}

// singleBitOptions builds the options of the single-bit restriction used in
// Tables 5 and 6.
func (cfg Config) singleBitOptions() core.Options {
	o := cfg.generatorOptions()
	o.WordWidth = 1
	o.FaultSimInterval = 1
	return o
}

// structuralBaselineOptions builds the options of the conventional
// structural single-fault generator used as the stand-in for the comparison
// tools of Tables 7 and 8: one fault at a time, conventional backtracking
// only and no fault-simulation dropping.
func (cfg Config) structuralBaselineOptions() core.Options {
	o := cfg.generatorOptions()
	o.WordWidth = 1
	o.UseFPTPG = false
	o.FaultSimInterval = 0
	return o
}

// ---------------------------------------------------------------------------
// Tables 3 and 4: full ATPG over the ISCAS85 suite.
// ---------------------------------------------------------------------------

// ATPGRow is one row of Table 3 (robust) or Table 4 (nonrobust).
type ATPGRow struct {
	Circuit    string
	NumFaults  *big.Int // total path delay faults of the circuit (# faults)
	Targeted   int      // faults actually targeted (sampled)
	Tested     int      // faults covered by the generated test set
	Redundant  int
	Aborted    int
	Efficiency float64 // (1 - aborted/targeted) * 100 %
	Patterns   int
	Time       time.Duration
	Err        error
}

// RunISCAS85 produces the rows of Table 3 (mode Robust) or Table 4 (mode
// Nonrobust): full ATPG over the ISCAS85-class circuits.  The c6288-class
// multiplier is skipped exactly as in the paper.
func RunISCAS85(cfg Config) []ATPGRow {
	cfg = cfg.normalize()
	var rows []ATPGRow
	for _, p := range bench.ISCAS85Profiles() {
		if p.Name == "c6288" {
			continue // "except circuit c6288, containing 10^20 functional paths"
		}
		rows = append(rows, cfg.runATPGRow(p))
	}
	return rows
}

// RunTable3 is RunISCAS85 in robust mode.
func RunTable3(cfg Config) []ATPGRow {
	cfg.Mode = sensitize.Robust
	return RunISCAS85(cfg)
}

// RunTable4 is RunISCAS85 in nonrobust mode.
func RunTable4(cfg Config) []ATPGRow {
	cfg.Mode = sensitize.Nonrobust
	return RunISCAS85(cfg)
}

func (cfg Config) runATPGRow(p bench.Profile) ATPGRow {
	row := ATPGRow{Circuit: p.Name}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	row.NumFaults = paths.CountFaults(c)
	faults := cfg.sampleFaults(c)
	row.Targeted = len(faults)

	start := time.Now()
	g := cfg.runGenerator(c, cfg.generatorOptions(), faults)
	row.Time = time.Since(start)

	st := g.Stats()
	row.Tested = st.Tested + st.DetectedBySim
	row.Redundant = st.Redundant
	row.Aborted = st.Aborted
	row.Efficiency = st.Efficiency()
	row.Patterns = st.Tested
	return row
}

// FormatATPGTable renders rows in the layout of Tables 3/4.
func FormatATPGTable(title string, rows []ATPGRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %14s %10s %10s %10s %10s %12s %10s\n",
		"Circuit", "#faults", "#targeted", "#tested", "#redund", "#aborted", "efficiency", "time")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %14s %10d %10d %10d %10d %11.2f%% %10s\n",
			r.Circuit, r.NumFaults.String(), r.Targeted, r.Tested, r.Redundant, r.Aborted,
			r.Efficiency, r.Time.Round(time.Millisecond))
	}
	return sb.String()
}

// ---------------------------------------------------------------------------
// Tables 5 and 6: bit-parallel versus single-bit generation.
// ---------------------------------------------------------------------------

// SpeedupRow is one row of Table 5 (robust) or Table 6 (nonrobust), or one
// circuit x engine row of the grouping ablation.
type SpeedupRow struct {
	Circuit         string
	Engine          string        // the implication engine: "incremental" or "full-sweep"
	SensTime        time.Duration // t_sens: path sensitization (identical for both generators)
	SingleTime      time.Duration // t_single
	ParallelTime    time.Duration // t_parallel
	Speedup         float64       // t_single / t_parallel
	AbortedSingle   int
	AbortedParallel int
	Err             error
}

// implicEngine is an implication engine the generator runs on: the
// event-driven incremental one of every production run, or the full-sweep
// reference kept as the paper's cost model (core.Options.FullSweepImplic).
type implicEngine struct {
	label     string
	fullSweep bool
}

var (
	incremental = implicEngine{"incremental", false}
	fullSweep   = implicEngine{"full-sweep", true}
)

// table56Circuits lists the circuits of Tables 5 and 6 in the paper's order.
var table56Circuits = []string{
	"s713", "s838", "s938", "s991", "s1269", "s1423", "s3271", "s5378", "s9234", "s13207", "s15850",
}

// RunSpeedup produces the rows of Table 5 (robust) or Table 6 (nonrobust):
// the bit-parallel generator against the generator restricted to one bit
// level, on the ISCAS89-class circuits.
func RunSpeedup(cfg Config) []SpeedupRow {
	return cfg.normalize().speedupRows(incremental)
}

// RunTable5 is RunSpeedup in robust mode.
func RunTable5(cfg Config) []SpeedupRow {
	cfg.Mode = sensitize.Robust
	return RunSpeedup(cfg)
}

// RunTable6 is RunSpeedup in nonrobust mode.
func RunTable6(cfg Config) []SpeedupRow {
	cfg.Mode = sensitize.Nonrobust
	return RunSpeedup(cfg)
}

// RunGroupingAblation re-runs the Tables 5/6 comparison, fault-serial (L=1)
// against fixed full-width word-parallel groups, under both implication
// engines: one row per circuit and engine.  The paper's Tables 5 and 6 show
// wide grouping beating L=1 by about five times on the full-sweep cost
// model.  The incremental engine makes single-fault implications much
// cheaper, so the ablation shows how much of that win survives under each
// engine.
func RunGroupingAblation(cfg Config) []SpeedupRow {
	return cfg.normalize().speedupRows(incremental, fullSweep)
}

// speedupRows runs the Tables 5/6 comparison on each of their circuits,
// under each engine in turn.
func (cfg Config) speedupRows(engines ...implicEngine) []SpeedupRow {
	var rows []SpeedupRow
	for _, name := range table56Circuits {
		p, ok := bench.ProfileByName(name)
		if !ok {
			rows = append(rows, SpeedupRow{Circuit: name, Err: fmt.Errorf("unknown profile %q", name)})
			continue
		}
		for _, e := range engines {
			rows = append(rows, cfg.runSpeedupRow(p, e))
		}
	}
	return rows
}

// speedupReps is how many times runSpeedupRow times each width.  A cell
// takes 4–60 ms on the stand-ins, so one timing is noise; the row reports
// the median of its reps.
const speedupReps = 5

// runSpeedupRow times the bit-parallel and the single-bit generator on one
// circuit, speedupReps times each in alternating order (even reps run the
// bit-parallel width first, odd reps the single-bit one), and reports each
// width's median.  At one worker a run is deterministic, so every rep must
// abort as many faults as that width's first rep and a rep that does not
// makes the row an error.  With more workers the interleaved simulation
// drops faults as patterns reach the shared pool, so which faults abort
// varies between runs and the row reports each width's median count.
func (cfg Config) runSpeedupRow(p bench.Profile, e implicEngine) SpeedupRow {
	row := SpeedupRow{Circuit: p.Name, Engine: e.label}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)
	type width struct {
		label   string
		opts    core.Options
		gen     []time.Duration // t_total - t_sens of each rep
		sens    []time.Duration
		aborted []int
	}
	parallel := &width{label: "bit-parallel", opts: cfg.generatorOptions()}
	single := &width{label: "single-bit", opts: cfg.singleBitOptions()}
	parallel.opts.FullSweepImplic, single.opts.FullSweepImplic = e.fullSweep, e.fullSweep
	for rep := 0; rep < speedupReps; rep++ {
		order := [2]*width{parallel, single}
		if rep%2 == 1 {
			order = [2]*width{single, parallel}
		}
		for _, w := range order {
			start := time.Now()
			g := cfg.runGenerator(c, w.opts, faults)
			total := time.Since(start)
			st := g.Stats()
			if cfg.Workers <= 1 && rep > 0 && st.Aborted != w.aborted[0] {
				row.Err = fmt.Errorf("%s run %d aborted %d faults, run 1 aborted %d", w.label, rep+1, st.Aborted, w.aborted[0])
				return row
			}
			w.aborted = append(w.aborted, st.Aborted)
			// The paper reports the sensitization time separately (it is
			// identical for both generators) and compares the remaining
			// generation time.
			w.gen = append(w.gen, total-st.SensitizeTime)
			w.sens = append(w.sens, st.SensitizeTime)
		}
	}
	row.AbortedParallel, row.AbortedSingle = median(parallel.aborted), median(single.aborted)
	row.SensTime = median(parallel.sens)
	row.ParallelTime = max(median(parallel.gen), time.Microsecond)
	row.SingleTime = max(median(single.gen), time.Microsecond)
	row.Speedup = float64(row.SingleTime) / float64(row.ParallelTime)
	return row
}

// median returns the median of xs, which it sorts.
func median[T cmp.Ordered](xs []T) T {
	slices.Sort(xs)
	return xs[len(xs)/2]
}

// FormatSpeedupTable renders rows in the layout of Tables 5/6.
func FormatSpeedupTable(title string, rows []SpeedupRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %12s %12s %12s %10s %14s %14s\n",
		"Circuit", "t_sens", "t_single", "t_parallel", "speedup", "aborted(1bit)", "aborted(par)")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %12s %12s %12s %9.1fx %14d %14d\n",
			r.Circuit, r.SensTime.Round(time.Microsecond), r.SingleTime.Round(time.Microsecond),
			r.ParallelTime.Round(time.Microsecond), r.Speedup, r.AbortedSingle, r.AbortedParallel)
	}
	return sb.String()
}

// FormatGroupingTable renders grouping ablation rows, one line per circuit
// and engine: t_wide is the bit-parallel generator's t_parallel.
func FormatGroupingTable(title string, rows []SpeedupRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %-12s %12s %12s %12s\n",
		"Circuit", "engine", "t_single", "t_wide", "aborted s/w")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s %-12s error: %v\n", r.Circuit, r.Engine, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %-12s %12s %12s %12s\n",
			r.Circuit, r.Engine,
			r.SingleTime.Round(time.Microsecond), r.ParallelTime.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", r.AbortedSingle, r.AbortedParallel))
	}
	return sb.String()
}

// SpeedupSummary returns the average and maximum speed-up of a table, the
// two headline numbers of the paper ("average acceleration is about five",
// "speedup of up to nine").
func SpeedupSummary(rows []SpeedupRow) (avg, max float64) {
	n := 0
	for _, r := range rows {
		if r.Err != nil || r.Speedup <= 0 {
			continue
		}
		avg += r.Speedup
		if r.Speedup > max {
			max = r.Speedup
		}
		n++
	}
	if n > 0 {
		avg /= float64(n)
	}
	return avg, max
}

// ---------------------------------------------------------------------------
// Tables 7 and 8: comparison against a conventional structural generator.
// ---------------------------------------------------------------------------

// CompareRow is one row of Table 7 (nonrobust) or Table 8 (robust): the
// bit-parallel generator (TIP) against the structural single-fault baseline
// standing in for the unavailable TSUNAMI-D and DYNAMITE tools.
type CompareRow struct {
	Circuit        string
	Targeted       int
	TIPTested      int
	TIPTime        time.Duration
	BaselineTested int
	BaselineTime   time.Duration
	Err            error
}

// table78Circuits lists the circuits of Tables 7 and 8 in the paper's order.
var table78Circuits = []string{
	"s641", "s713", "s1196", "s1238", "s1423", "s1494", "s5378", "s13207", "s15850", "s38584",
}

// RunComparison produces the rows of Table 7 (nonrobust) or Table 8
// (robust).  The paper uses a 32-bit machine for these tables; the word
// width of cfg is used as given, so pass 32 to match.
func RunComparison(cfg Config) []CompareRow {
	cfg = cfg.normalize()
	var rows []CompareRow
	for _, name := range table78Circuits {
		p, ok := bench.ProfileByName(name)
		if !ok {
			rows = append(rows, CompareRow{Circuit: name, Err: fmt.Errorf("unknown profile %q", name)})
			continue
		}
		rows = append(rows, cfg.runCompareRow(p))
	}
	return rows
}

// RunTable7 is RunComparison in nonrobust mode with L=32.
func RunTable7(cfg Config) []CompareRow {
	cfg.Mode = sensitize.Nonrobust
	cfg.WordWidth = 32
	return RunComparison(cfg)
}

// RunTable8 is RunComparison in robust mode with L=32.
func RunTable8(cfg Config) []CompareRow {
	cfg.Mode = sensitize.Robust
	cfg.WordWidth = 32
	return RunComparison(cfg)
}

func (cfg Config) runCompareRow(p bench.Profile) CompareRow {
	row := CompareRow{Circuit: p.Name}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)
	row.Targeted = len(faults)

	start := time.Now()
	tip := cfg.runGenerator(c, cfg.generatorOptions(), faults)
	row.TIPTime = time.Since(start)
	row.TIPTested = tip.Stats().Tested + tip.Stats().DetectedBySim

	start = time.Now()
	base := cfg.runGenerator(c, cfg.structuralBaselineOptions(), faults)
	row.BaselineTime = time.Since(start)
	row.BaselineTested = base.Stats().Tested + base.Stats().DetectedBySim
	return row
}

// FormatCompareTable renders rows in the layout of Tables 7/8.
func FormatCompareTable(title string, rows []CompareRow) string {
	var sb strings.Builder
	fmt.Fprintf(&sb, "%s\n", title)
	fmt.Fprintf(&sb, "%-10s %10s | %10s %12s | %10s %12s\n",
		"Circuit", "#targeted", "TIP #tst", "TIP time", "base #tst", "base time")
	for _, r := range rows {
		if r.Err != nil {
			fmt.Fprintf(&sb, "%-10s error: %v\n", r.Circuit, r.Err)
			continue
		}
		fmt.Fprintf(&sb, "%-10s %10d | %10d %12s | %10d %12s\n",
			r.Circuit, r.Targeted, r.TIPTested, r.TIPTime.Round(time.Millisecond),
			r.BaselineTested, r.BaselineTime.Round(time.Millisecond))
	}
	return sb.String()
}
