package harness

import (
	"fmt"
	"strings"
	"time"

	"repro/internal/bench"
	"repro/internal/core"
)

// GroupingRow is one circuit x engine cell of the grouping ablation: the
// Tables 5/6 width-economics comparison — fault-serial (L=1, the single-bit
// baseline) against fixed full-width word-parallel groups — under either the
// event-driven incremental implication engine or the retained full-sweep
// oracle.
//
// The paper's Tables 5 and 6 show fixed wide grouping beating L=1 by about
// five times on the full-sweep cost model.  The incremental engine makes
// single-fault implications much cheaper, so the ablation shows how much of
// that win survives under each engine.
type GroupingRow struct {
	Circuit string
	Engine  string // "incremental" or "full-sweep"

	SingleTime time.Duration // L=1 fault-serial generation time (t_single)
	WideTime   time.Duration // fixed L=WordWidth groups (t_parallel)

	AbortedSingle int
	AbortedWide   int

	Err error
}

// groupingEngines names the two implication engines the ablation compares.
var groupingEngines = []struct {
	label     string
	fullSweep bool
}{
	{"incremental", false},
	{"full-sweep", true},
}

// RunGroupingAblation re-runs the Tables 5/6 comparison over the
// ISCAS89-class circuits with both grouping strategies under both
// implication engines.  The generation times exclude sensitization (which is
// identical across the strategies), matching the t_single/t_parallel columns
// of the paper.
func RunGroupingAblation(cfg Config) []GroupingRow {
	cfg = cfg.normalize()
	var rows []GroupingRow
	for _, name := range table56Circuits {
		p, ok := bench.ProfileByName(name)
		if !ok {
			rows = append(rows, GroupingRow{Circuit: name, Err: fmt.Errorf("unknown profile %q", name)})
			continue
		}
		for _, engine := range groupingEngines {
			rows = append(rows, cfg.runGroupingRow(p, engine.label, engine.fullSweep))
		}
	}
	return rows
}

func (cfg Config) runGroupingRow(p bench.Profile, engine string, fullSweep bool) GroupingRow {
	row := GroupingRow{Circuit: p.Name, Engine: engine}
	c, err := cfg.circuitFor(p)
	if err != nil {
		row.Err = err
		return row
	}
	faults := cfg.sampleFaults(c)

	timeRun := func(opts core.Options) (time.Duration, *core.Generator) {
		opts.FullSweepImplic = fullSweep
		start := time.Now()
		g := cfg.runGenerator(c, opts, faults)
		total := time.Since(start)
		gen := total - g.Stats().SensitizeTime
		if gen <= 0 {
			gen = time.Microsecond
		}
		return gen, g
	}

	gs := func(g *core.Generator) int { return g.Stats().Aborted }

	var g *core.Generator
	row.SingleTime, g = timeRun(cfg.singleBitOptions())
	row.AbortedSingle = gs(g)
	row.WideTime, g = timeRun(cfg.generatorOptions())
	row.AbortedWide = gs(g)
	return row
}

// FormatGroupingTable renders grouping ablation rows in a Tables 5/6-style
// layout, one line per circuit and engine.
func FormatGroupingTable(title string, rows []GroupingRow) string {
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
			r.SingleTime.Round(time.Microsecond), r.WideTime.Round(time.Microsecond),
			fmt.Sprintf("%d/%d", r.AbortedSingle, r.AbortedWide))
	}
	return sb.String()
}
