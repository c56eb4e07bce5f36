package harness

import (
	"fmt"
	"strings"
	"testing"

	"repro/internal/core"
	"repro/internal/sensitize"
)

// testConfig is a deliberately tiny configuration so the harness unit tests
// stay fast; the full-size runs live in the repository-level benchmarks and
// in cmd/experiments.
func testConfig(mode sensitize.Mode) Config {
	return Config{Mode: mode, WordWidth: 64, FaultsPerCircuit: 24, Scale: 0.06, Seed: 7}
}

func TestConfigNormalize(t *testing.T) {
	cfg := Config{}.normalize()
	if cfg.WordWidth != 64 || cfg.FaultsPerCircuit != 256 || cfg.Scale != 1.0 || cfg.Seed == 0 {
		t.Errorf("normalize gave %+v", cfg)
	}
	if o := DefaultConfig(sensitize.Robust); o.FaultsPerCircuit != 256 {
		t.Errorf("DefaultConfig: %+v", o)
	}
	if o := QuickConfig(sensitize.Robust); o.Scale >= 1.0 {
		t.Errorf("QuickConfig should scale down: %+v", o)
	}
	so := Config{}.normalize().structuralBaselineOptions()
	if so.WordWidth != 1 || so.UseFPTPG || so.FaultSimInterval != 0 {
		t.Errorf("structural baseline options wrong: %+v", so)
	}
	sb := Config{}.normalize().singleBitOptions()
	if sb.WordWidth != 1 || !sb.UseFPTPG || !sb.UseAPTPG {
		t.Errorf("single-bit options wrong: %+v", sb)
	}
}

func TestRunATPGRowConsistency(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	rows := RunISCAS85(cfg)
	if len(rows) != 9 {
		t.Fatalf("ISCAS85 table should have 9 rows (c6288 skipped), got %d", len(rows))
	}
	for _, r := range rows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Circuit, r.Err)
			continue
		}
		if r.Targeted == 0 || r.NumFaults == nil || r.NumFaults.Sign() <= 0 {
			t.Errorf("%s: empty row %+v", r.Circuit, r)
		}
		if r.Tested+r.Redundant+r.Aborted > r.Targeted {
			t.Errorf("%s: classifications exceed targeted faults: %+v", r.Circuit, r)
		}
		if r.Efficiency < 0 || r.Efficiency > 100 {
			t.Errorf("%s: efficiency %v out of range", r.Circuit, r.Efficiency)
		}
	}
	text := FormatATPGTable("Table 4 (test)", rows)
	if !strings.Contains(text, "c432") || !strings.Contains(text, "efficiency") {
		t.Errorf("formatted table missing content:\n%s", text)
	}
}

// TestRunSpeedupRow times one Tables 5/6 row under each implication
// engine, as the grouping ablation does.  The full-sweep engine decides
// what the incremental one decides, so the aborted counts agree.
func TestRunSpeedupRow(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	p := ablationProfile()
	row := cfg.normalize().runSpeedupRow(p, incremental)
	if row.Err != nil {
		t.Fatalf("speedup row: %v", row.Err)
	}
	if row.SingleTime <= 0 || row.ParallelTime <= 0 || row.Speedup <= 0 {
		t.Errorf("times not measured: %+v", row)
	}
	text := FormatSpeedupTable("Table 6 (test)", []SpeedupRow{row})
	if !strings.Contains(text, row.Circuit) || !strings.Contains(text, "t_parallel") {
		t.Errorf("formatted table missing content:\n%s", text)
	}
	sweep := cfg.normalize().runSpeedupRow(p, fullSweep)
	if sweep.Err != nil || sweep.Engine != "full-sweep" || row.Engine != "incremental" {
		t.Fatalf("engine rows %q and %q (%v)", row.Engine, sweep.Engine, sweep.Err)
	}
	if sweep.AbortedSingle != row.AbortedSingle || sweep.AbortedParallel != row.AbortedParallel {
		t.Errorf("aborted s/w: full-sweep %d/%d, incremental %d/%d",
			sweep.AbortedSingle, sweep.AbortedParallel, row.AbortedSingle, row.AbortedParallel)
	}
	text = FormatGroupingTable("Grouping (test)", []SpeedupRow{row, sweep})
	if !strings.Contains(text, "incremental") || !strings.Contains(text, "full-sweep") || !strings.Contains(text, "aborted s/w") {
		t.Errorf("formatted grouping table missing content:\n%s", text)
	}
	avg, max := SpeedupSummary([]SpeedupRow{row, {Err: nil, Speedup: 2 * row.Speedup}})
	if max < avg || avg <= 0 {
		t.Errorf("summary wrong: avg %v max %v", avg, max)
	}
}

func TestRunCompareRow(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	cfg.WordWidth = 32
	p := ablationProfile()
	row := cfg.normalize().runCompareRow(p)
	if row.Err != nil {
		t.Fatalf("compare row: %v", row.Err)
	}
	if row.Targeted == 0 {
		t.Error("no faults targeted")
	}
	if row.TIPTested < row.BaselineTested-row.Targeted/4 {
		// The bit-parallel generator should not be grossly worse than the
		// conventional baseline (it explores at least the same search space).
		t.Errorf("TIP tested %d far below baseline %d", row.TIPTested, row.BaselineTested)
	}
	text := FormatCompareTable("Table 7 (test)", []CompareRow{row})
	if !strings.Contains(text, row.Circuit) {
		t.Errorf("formatted table missing circuit:\n%s", text)
	}
}

// TestWordWidthAblationRefusesOutOfRange checks that a width the generator
// would clamp gets an error row under its own label instead of a run at
// another width.
func TestWordWidthAblationRefusesOutOfRange(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	rows := RunWordWidthAblation(cfg, []int{0, core.MaxWordWidth + 1, 600})
	if len(rows) != 3 {
		t.Fatalf("expected 3 width rows, got %d", len(rows))
	}
	for i, w := range []int{0, core.MaxWordWidth + 1, 600} {
		r := rows[i]
		if want := fmt.Sprintf("L=%d", w); r.Label != want {
			t.Errorf("row %d is labelled %q, want %q", i, r.Label, want)
		}
		if r.Err == nil || !strings.Contains(r.Err.Error(), fmt.Sprintf("1..%d", core.MaxWordWidth)) {
			t.Errorf("%s: Err = %v, want an error naming 1..%d", r.Label, r.Err, core.MaxWordWidth)
		}
		if r.Time != 0 || r.Tested != 0 || r.Patterns != 0 {
			t.Errorf("%s: an out-of-range width ran: %+v", r.Label, r)
		}
	}
	if text := FormatAblationTable("widths", rows); !strings.Contains(text, "L=600") || !strings.Contains(text, "error:") {
		t.Errorf("formatted table does not report the refused width:\n%s", text)
	}
}

func TestAblations(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	widths := RunWordWidthAblation(cfg, []int{1, 64})
	if len(widths) != 2 {
		t.Fatalf("expected 2 width rows, got %d", len(widths))
	}
	for _, r := range widths {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Label, r.Err)
		}
	}
	modes := RunModeAblation(cfg)
	if len(modes) != 3 {
		t.Fatalf("expected 3 mode rows, got %d", len(modes))
	}
	// The combined configuration covers at least as many faults as
	// FPTPG-only (which cannot backtrack).
	if modes[0].Err == nil && modes[1].Err == nil && modes[0].Tested < modes[1].Tested {
		t.Errorf("combined (%d tested) should not trail fptpg-only (%d tested)", modes[0].Tested, modes[1].Tested)
	}
	sims := RunFaultSimAblation(cfg)
	if len(sims) != 2 {
		t.Fatalf("expected 2 faultsim rows, got %d", len(sims))
	}
	workerRows := RunWorkerAblation(cfg, []int{1, 2, 4})
	if len(workerRows) != 3 {
		t.Fatalf("expected 3 worker rows, got %d", len(workerRows))
	}
	for _, r := range workerRows {
		if r.Err != nil {
			t.Errorf("%s: %v", r.Label, r.Err)
		}
	}
	// Sharding must not change what the run achieves, only how fast: the
	// covered and aborted counts are identical across worker counts.
	for _, r := range workerRows[1:] {
		if r.Tested != workerRows[0].Tested || r.Aborted != workerRows[0].Aborted {
			t.Errorf("%s covers %d/aborts %d, workers=1 covers %d/aborts %d",
				r.Label, r.Tested, r.Aborted, workerRows[0].Tested, workerRows[0].Aborted)
		}
	}
	text := FormatAblationTable("ablation (test)", append(widths, modes...))
	if !strings.Contains(text, "L=64") || !strings.Contains(text, "combined") {
		t.Errorf("formatted ablation table missing content:\n%s", text)
	}
}

func TestCoverageEstimateExperiment(t *testing.T) {
	cfg := testConfig(sensitize.Nonrobust)
	est := RunCoverageEstimate(cfg, "s713", 100)
	if est.Err != nil {
		t.Fatalf("coverage estimate: %v", est.Err)
	}
	if est.Sampled == 0 {
		t.Error("no faults sampled for the estimate")
	}
	if est.Estimated < 0 || est.Estimated > 1 {
		t.Errorf("estimate %v out of range", est.Estimated)
	}
	bad := RunCoverageEstimate(cfg, "no-such-circuit", 10)
	if bad.Err == nil {
		t.Error("unknown circuit should report an error")
	}
}

func TestTableEntryPoints(t *testing.T) {
	// The Table3/5/7 wrappers force the mode (and width for 7/8); check with
	// a single-circuit subset by reusing the row runners directly.
	cfg := testConfig(sensitize.Nonrobust)
	if rows := RunTable7(Config{Scale: 0.05, FaultsPerCircuit: 8, Seed: 3}); len(rows) != 10 {
		t.Errorf("Table 7 should have 10 rows, got %d", len(rows))
	}
	_ = cfg
}
