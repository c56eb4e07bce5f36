package main

import (
	"encoding/json"
	"fmt"
	"io"
	"math"
	"os"
)

// benchSpec is the part of BENCHMARK.json the comparison reads.
type benchSpec struct {
	EndToEnd []struct {
		Name   string  `json:"name"`
		Unit   string  `json:"unit"`
		Better string  `json:"better"`
		Bound  float64 `json:"bound"`
	} `json:"end_to_end"`
}

func readJSON(path string, v any) error {
	b, err := os.ReadFile(path)
	if err != nil {
		return err
	}
	if err := json.Unmarshal(b, v); err != nil {
		return fmt.Errorf("%s: %w", path, err)
	}
	return nil
}

// verdict judges candidate b against baseline a for one metric.  It is
// "unresolved" when either side's median is noisier than the bound — its
// median spread is wider — and the two medians' ranges overlap: the runs
// cannot tell the sides apart.  Otherwise the medians decide: "worse" or
// "better" when they differ by more than the bound in that direction, else
// "same".
func verdict(a, b summary, lowerIsBetter bool, bound float64) string {
	aLo, aHi := a.medianRange()
	bLo, bHi := b.medianRange()
	overlap := aLo <= bHi && bLo <= aHi
	if (a.medianSpread() > bound || b.medianSpread() > bound) && overlap {
		return "unresolved"
	}
	worse := relChange(a.Median, b.Median)
	if !lowerIsBetter {
		worse = -worse
	}
	switch {
	case worse > bound:
		return "worse"
	case worse < -bound:
		return "better"
	}
	return "same"
}

// relChange is (b-a)/|a|, signed infinity when only a is 0.
func relChange(a, b float64) float64 {
	if a == 0 {
		if b == 0 {
			return 0
		}
		return math.Copysign(math.Inf(1), b)
	}
	return (b - a) / math.Abs(a)
}

// compareFiles prints one row per workload and end-to-end metric of two
// result files and exits 1 when any metric got worse.
func compareFiles(specPath string, files []string, stdout, stderr io.Writer) int {
	if len(files) != 2 {
		fmt.Fprintln(stderr, "bench: -compare takes two result files: -compare A.json B.json")
		return 2
	}
	var spec benchSpec
	var a, b resultFile
	for _, f := range []struct {
		path string
		v    any
	}{{specPath, &spec}, {files[0], &a}, {files[1], &b}} {
		if err := readJSON(f.path, f.v); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
	}
	byName := map[string]*workloadResult{}
	for _, r := range b.Workloads {
		byName[r.Name] = r
	}
	fmt.Fprintf(stdout, "A: %s (%s, seed %d)\nB: %s (%s, seed %d)\n", files[0], a.Provenance.GitSHA, a.Provenance.Seed,
		files[1], b.Provenance.GitSHA, b.Provenance.Seed)
	fmt.Fprintf(stdout, "%-17s %-15s %-6s %11s %23s %11s %23s %8s %13s %6s  %s\n",
		"workload", "metric", "unit", "A median", "A q1..q3", "B median", "B q1..q3", "change", "med.spread", "bound", "verdict")
	worse := 0
	for _, ra := range a.Workloads {
		rb := byName[ra.Name]
		for _, m := range spec.EndToEnd {
			sa, okA := ra.EndToEnd[m.Name]
			var sb summary
			okB := false
			if rb != nil {
				sb, okB = rb.EndToEnd[m.Name]
			}
			v := "unresolved"
			if okA && okB {
				v = verdict(sa, sb, m.Better == "lower", m.Bound)
			}
			if v == "worse" {
				worse++
			}
			fmt.Fprintf(stdout, "%-17s %-15s %-6s %11.5g %11.5g..%-10.5g %11.5g %11.5g..%-10.5g %7.2f%% %5.1f/%5.1f%% %5.1f%%  %s\n",
				ra.Name, m.Name, m.Unit, sa.Median, sa.Q1, sa.Q3, sb.Median, sb.Q1, sb.Q3,
				100*relChange(sa.Median, sb.Median), 100*sa.medianSpread(), 100*sb.medianSpread(), 100*m.Bound, v)
		}
	}
	if worse > 0 {
		fmt.Fprintf(stdout, "%d metric(s) worse\n", worse)
		return 1
	}
	return 0
}
