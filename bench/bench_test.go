package main

import (
	"bytes"
	"context"
	"encoding/json"
	"io"
	"math"
	"os"
	"path/filepath"
	"strings"
	"testing"
	"time"
)

// fullSpec adds the per-layer names, which only the tests read, to the part
// of BENCHMARK.json the comparison reads.
type fullSpec struct {
	benchSpec
	PerLayer []struct {
		Name string `json:"name"`
		Unit string `json:"unit"`
	} `json:"per_layer"`
}

func loadSpec(t *testing.T) fullSpec {
	t.Helper()
	var spec fullSpec
	if err := readJSON(filepath.Join("..", "BENCHMARK.json"), &spec); err != nil {
		t.Fatal(err)
	}
	return spec
}

// TestSpecMatchesCode keeps BENCHMARK.json and the metric tables the
// program emits from in step.
func TestSpecMatchesCode(t *testing.T) {
	spec := loadSpec(t)
	var e2e, layers []string
	for _, m := range spec.EndToEnd {
		e2e = append(e2e, m.Name+" "+m.Unit)
	}
	for _, m := range spec.PerLayer {
		layers = append(layers, m.Name+" "+m.Unit)
	}
	var wantE2E, wantLayers []string
	for _, m := range endToEnd {
		wantE2E = append(wantE2E, m.name+" "+m.unit)
	}
	for _, m := range layerMetrics {
		wantLayers = append(wantLayers, m.name+" "+m.unit)
	}
	if strings.Join(e2e, ",") != strings.Join(wantE2E, ",") {
		t.Errorf("end_to_end in BENCHMARK.json: %v, the program emits %v", e2e, wantE2E)
	}
	if strings.Join(layers, ",") != strings.Join(wantLayers, ",") {
		t.Errorf("per_layer in BENCHMARK.json: %v, the program emits %v", layers, wantLayers)
	}
}

// TestSmoke runs all four workloads once at toy size — 64 faults each, one
// 128-fault job for the service — with the traced pass, and checks that
// every run passes its checks and every metric BENCHMARK.json names is
// emitted, in the results and on the result line.
func TestSmoke(t *testing.T) {
	cfg := config{workloads: workloads, seed: 1, rounds: 1, untraced: true, traced: true, toy: true, dir: t.TempDir()}
	start := time.Now()
	results, err := runBench(context.Background(), cfg, io.Discard)
	if err != nil {
		t.Fatal(err)
	}
	t.Logf("smoke run: %.1f s", time.Since(start).Seconds())
	spec := loadSpec(t)
	ln := resultLine(cfg, results)
	if !ln.Correct || ln.Attempted == 0 {
		t.Errorf("result line: correct %v, %d attempted, %d failed", ln.Correct, ln.Attempted, ln.Failed)
	}
	for _, r := range results {
		if r.Failed > 0 {
			t.Errorf("%s: %d of %d runs failed: %v", r.Name, r.Failed, r.Attempted, r.Failures)
		}
		for _, m := range spec.EndToEnd {
			if s, ok := r.EndToEnd[m.Name]; !ok || s.Unit != m.Unit || s.N == 0 {
				t.Errorf("%s: end-to-end metric %s missing or without samples: %+v", r.Name, m.Name, s)
			}
			if _, ok := ln.Metrics[r.Name+"/"+m.Name]; !ok {
				t.Errorf("result line lacks %s/%s", r.Name, m.Name)
			}
		}
		for _, m := range spec.PerLayer {
			if _, ok := r.PerLayer[m.Name]; !ok {
				t.Errorf("%s: per-layer metric %s missing", r.Name, m.Name)
			}
			if _, ok := ln.Metrics[r.Name+"/"+m.Name]; !ok {
				t.Errorf("result line lacks %s/%s", r.Name, m.Name)
			}
		}
		if _, err := os.Stat(filepath.Join(cfg.dir, "trace-"+r.Name+".json")); err != nil {
			t.Errorf("%s: no trace file: %v", r.Name, err)
		}
	}
	if svc := results[len(results)-1]; svc.PerLayer["service.submit.calls"] != 1 {
		t.Errorf("service-loopback: %v submits per traced job, want 1", svc.PerLayer["service.submit.calls"])
	}
}

// TestQuantiles pins the cut points to those of Python's
// statistics.quantiles, which the benchmark's acceptance check uses.
func TestQuantiles(t *testing.T) {
	seq := func(n int) []float64 {
		xs := make([]float64, n)
		for i := range xs {
			xs[i] = float64(n - i) // unsorted on purpose
		}
		return xs
	}
	for _, tc := range []struct {
		xs   []float64
		n    int
		want []float64
	}{
		{seq(10), 4, []float64{2.75, 5.5, 8.25}},
		{[]float64{1, 2}, 4, []float64{0.75, 1.5, 2.25}},
		{[]float64{3, 1, 2}, 4, []float64{1, 2, 3}},
		{[]float64{7}, 4, []float64{7, 7, 7}},
		{seq(4), 2, []float64{2.5}},
	} {
		got := quantiles(tc.xs, tc.n)
		for i := range tc.want {
			if math.Abs(got[i]-tc.want[i]) > 1e-12 {
				t.Errorf("quantiles(%v, %d) = %v, want %v", tc.xs, tc.n, got, tc.want)
				break
			}
		}
	}
	if got := quantiles(seq(100), 10)[8]; math.Abs(got-90.9) > 1e-12 {
		t.Errorf("90th percentile of 1..100 = %v, want 90.9", got)
	}
	s := summarize("s", []float64{1, 2, 3, 4, 5, 6, 7, 8, 9, 10})
	if s.Median != 5.5 || s.spread() != (8.25-2.75)/5.5 {
		t.Errorf("summary %+v, spread %v", s, s.spread())
	}
	if got, want := s.medianSpread(), 1.0*math.Sqrt(math.Pi/2/10); math.Abs(got-want) > 1e-12 {
		t.Errorf("median spread %v, want %v", got, want)
	}
}

// TestSelfTimes covers a parent with nested, overlapping and overhanging
// children: self time is the duration minus the union of the children,
// clipped to the parent.
func TestSelfTimes(t *testing.T) {
	sp := func(rep int, name, parent string, start, end int64) span {
		return span{Workload: "w", Rep: rep, Name: name, Parent: parent, StartNS: start, EndNS: end}
	}
	spans := []span{
		sp(0, "rep", "", 0, 100),
		sp(0, "a", "rep", 10, 30),
		sp(0, "b", "rep", 20, 50),  // overlaps a
		sp(0, "c", "rep", 90, 120), // overhangs the parent
		sp(0, "a.1", "a", 12, 14),
		sp(0, "a.2", "a", 13, 20), // overlaps a.1
		sp(1, "rep", "", 0, 10),   // a second rep: its own children only
		sp(1, "a", "rep", 0, 4),
	}
	got := selfTimes(spans)
	want := map[string]time.Duration{
		"rep": (100 - 40 - 10) + (10 - 4),
		"a":   (20 - 8) + 4,
		"a.1": 2,
		"a.2": 7,
		"b":   30,
		"c":   30,
	}
	for name, d := range want {
		if got[name] != d {
			t.Errorf("self time of %s = %d, want %d", name, got[name], d)
		}
	}
}

// TestVerdict covers each -compare verdict in both directions.  Summaries
// hold one sample unless the case says otherwise, so their median spreads
// are their sample spreads times √(π/2).
func TestVerdict(t *testing.T) {
	s := func(q1, med, q3 float64) summary { return summary{Q1: q1, Median: med, Q3: q3, N: 1} }
	many := func(q1, med, q3 float64) summary { return summary{Q1: q1, Median: med, Q3: q3, N: 400} }
	for _, tc := range []struct {
		name   string
		a, b   summary
		lower  bool
		bound  float64
		expect string
	}{
		{"same", s(0.99, 1, 1.01), s(1.02, 1.03, 1.04), true, 0.05, "same"},
		{"worse, lower is better", s(0.99, 1, 1.01), s(1.19, 1.2, 1.21), true, 0.05, "worse"},
		{"better, lower is better", s(0.99, 1, 1.01), s(0.79, 0.8, 0.81), true, 0.05, "better"},
		{"worse, higher is better", s(99, 100, 101), s(79, 80, 81), false, 0.05, "worse"},
		{"better, higher is better", s(99, 100, 101), s(119, 120, 121), false, 0.05, "better"},
		{"unresolved: wide spread, overlapping", s(0.7, 1, 1.3), s(1, 1.2, 1.4), true, 0.05, "unresolved"},
		{"wide spread but apart", s(0.9, 1, 1.1), s(1.5, 1.6, 1.7), true, 0.05, "worse"},
		// 400 samples of a 20 % spread leave the medians a 1.25 % spread.
		{"wide spread, many samples", many(0.9, 1, 1.1), many(0.92, 1.02, 1.12), true, 0.05, "same"},
		{"wide spread, many samples, worse", many(0.9, 1, 1.1), many(0.97, 1.07, 1.17), true, 0.05, "worse"},
		{"exact counts", s(67, 67, 67), s(67, 67, 67), false, 0.001, "same"},
		{"zero baseline", s(0, 0, 0), s(1, 1, 1), true, 0.05, "worse"},
	} {
		if got := verdict(tc.a, tc.b, tc.lower, tc.bound); got != tc.expect {
			t.Errorf("%s: verdict %q, want %q", tc.name, got, tc.expect)
		}
	}
}

// TestCompareFiles runs -compare on two result files: exit status 1 and a
// "worse" row when the second is slower beyond the bound, 0 otherwise.
func TestCompareFiles(t *testing.T) {
	dir := t.TempDir()
	write := func(name string, v any) string {
		b, err := json.Marshal(v)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(dir, name)
		if err := os.WriteFile(path, b, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	spec := write("spec.json", map[string]any{"end_to_end": []map[string]any{
		{"name": "run_s", "unit": "s", "better": "lower", "bound": 0.1},
	}})
	result := func(run float64) resultFile {
		return resultFile{Workloads: []*workloadResult{{Name: "bulk",
			EndToEnd: map[string]summary{"run_s": summarize("s", []float64{run, run * 1.01, run * 0.99})}}}}
	}
	a, b, slow := write("a.json", result(1)), write("b.json", result(1.02)), write("slow.json", result(1.5))
	var out, errOut bytes.Buffer
	if code := compareFiles(spec, []string{a, b}, &out, &errOut); code != 0 || !strings.Contains(out.String(), "same") {
		t.Errorf("equal runs: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
	out.Reset()
	if code := compareFiles(spec, []string{a, slow}, &out, &errOut); code != 1 || !strings.Contains(out.String(), "worse") {
		t.Errorf("slower run: exit %d, output:\n%s%s", code, out.String(), errOut.String())
	}
	if code := compareFiles(spec, []string{a}, io.Discard, io.Discard); code != 2 {
		t.Errorf("one file: exit %d, want 2", code)
	}
}
