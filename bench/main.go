// Command bench is the repository benchmark.  It drives four ATPG workloads
// through the public facade repro/atpg, checks every output, and prints each
// end-to-end metric with its unit, median, quartiles and sample count; a
// separate traced pass then times calls into each layer from the outside.
// Run it from the repository root through bench/run.sh, which builds it:
//
//	bash bench/run.sh -seed 1995
//	bash bench/run.sh -workload bulk -seed 1 -seconds 20 -trace 0
//	bash bench/run.sh -compare A.json B.json
//
// The last line of standard output is one JSON object with the keys
// correct, attempted, failed and metrics.  See README.md.
package main

import (
	"context"
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"runtime"
	"sort"
	"strings"
	"time"
)

// rounds is the number of interleaved rounds of timed reps of a full run.
const rounds = 12

func main() {
	os.Exit(run(context.Background(), os.Args[1:], os.Stdout, os.Stderr))
}

func run(ctx context.Context, args []string, stdout, stderr io.Writer) int {
	fs := flag.NewFlagSet("bench", flag.ContinueOnError)
	fs.SetOutput(stderr)
	only := fs.String("workload", "", "run only this workload (default: all four, interleaved)")
	seed := fs.Int64("seed", 1995, "input seed; it permutes each workload's fault population")
	seconds := fs.Float64("seconds", 0, fmt.Sprintf("time budget of the timed reps and of each traced pass (0: %d interleaved rounds)", rounds))
	trace := fs.String("trace", "", `"0" runs the timed reps only, "1" the traced pass only (default both)`)
	dir := fs.String("out", filepath.Join("bench", "out"), "directory for trace files and service ledgers")
	result := fs.String("result", "", "also write the full result, with provenance, to this JSON file")
	compare := fs.Bool("compare", false, "compare two result files by the bounds in BENCHMARK.json: -compare A.json B.json")
	if err := fs.Parse(args); err != nil {
		return 2
	}
	if *compare {
		return compareFiles("BENCHMARK.json", fs.Args(), stdout, stderr)
	}
	if *trace != "" && *trace != "0" && *trace != "1" {
		fmt.Fprintf(stderr, "bench: -trace must be 0 or 1, not %q\n", *trace)
		return 2
	}
	cfg := config{
		workloads: workloads, seed: *seed, rounds: rounds, seconds: *seconds,
		untraced: *trace != "1", traced: *trace != "0", dir: *dir,
	}
	if *only != "" {
		w, err := workloadByName(*only)
		if err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 2
		}
		cfg.workloads = []*workload{w}
	}

	results, err := runBench(ctx, cfg, stderr)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	printReport(stdout, cfg, results)
	if *result != "" {
		if err := writeResult(ctx, *result, cfg, results); err != nil {
			fmt.Fprintln(stderr, "bench:", err)
			return 1
		}
	}
	ln := resultLine(cfg, results)
	b, err := json.Marshal(ln)
	if err != nil {
		fmt.Fprintln(stderr, "bench:", err)
		return 1
	}
	fmt.Fprintln(stdout, string(b))
	if !ln.Correct {
		for _, r := range results {
			for _, f := range r.Failures {
				fmt.Fprintf(stderr, "bench: %s: %s\n", r.Name, f)
			}
		}
		return 1
	}
	return 0
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// line is the result line: the last line of standard output.
type line struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// resultLine holds the end-to-end medians when the timed reps ran and the
// layer metrics when the traced pass ran.  With one workload the metrics
// carry their plain names, otherwise "<workload>/<metric>".
func resultLine(cfg config, results []*workloadResult) line {
	ln := line{Metrics: map[string]metricValue{}}
	for _, r := range results {
		ln.Attempted += r.Attempted
		ln.Failed += r.Failed
		prefix := ""
		if len(results) > 1 {
			prefix = r.Name + "/"
		}
		if cfg.untraced {
			for _, m := range endToEnd {
				if s, ok := r.EndToEnd[m.name]; ok {
					ln.Metrics[prefix+m.name] = metricValue{s.Median, m.unit}
				}
			}
		}
		if cfg.traced {
			for _, m := range layerMetrics {
				if v, ok := r.PerLayer[m.name]; ok {
					ln.Metrics[prefix+m.name] = metricValue{v, m.unit}
				}
			}
		}
	}
	ln.Correct = ln.Failed == 0
	return ln
}

// printReport prints the end-to-end table, the layer table, the run-time
// split and the span self times.
func printReport(w io.Writer, cfg config, results []*workloadResult) {
	if cfg.untraced {
		fmt.Fprintf(w, "end-to-end metrics (untraced), seed %d\n", cfg.seed)
		fmt.Fprintf(w, "%-17s %-15s %-6s %12s %12s %12s %4s\n", "workload", "metric", "unit", "median", "q1", "q3", "n")
		for _, r := range results {
			for _, m := range endToEnd {
				if s, ok := r.EndToEnd[m.name]; ok {
					fmt.Fprintf(w, "%-17s %-15s %-6s %12.6g %12.6g %12.6g %4d\n", r.Name, m.name, m.unit, s.Median, s.Q1, s.Q3, s.N)
				}
			}
			fmt.Fprintf(w, "%-17s %d runs attempted, %d failed\n", r.Name, r.Attempted, r.Failed)
		}
	}
	if !cfg.traced {
		return
	}
	fmt.Fprintf(w, "\nper-layer metrics (traced pass, median over reps)\n%-30s %-6s", "metric", "unit")
	for _, r := range results {
		fmt.Fprintf(w, " %17s", r.Name)
	}
	fmt.Fprintln(w)
	for _, m := range layerMetrics {
		fmt.Fprintf(w, "%-30s %-6s", m.name, m.unit)
		for _, r := range results {
			fmt.Fprintf(w, " %17.6g", r.PerLayer[m.name])
		}
		fmt.Fprintln(w)
	}

	if cfg.untraced {
		fmt.Fprintln(w, "\nrun time split (traced reps against untraced run_s; unexplained time is the rest)")
		for _, r := range results {
			run := r.EndToEnd["run_s"].Median
			split := r.PerLayer["core.run_s"] + r.PerLayer["compact.ms"]/1e3
			fmt.Fprintf(w, "%-17s run_s %.4g s, core.run_s + compact.ms %.4g s (%.1f %%); patterns %.6g end to end, %.6g traced\n",
				r.Name, run, split, 100*ratio(split, run), r.EndToEnd["patterns"].Median, r.PerLayer["compact.pairs_after"])
		}
	}

	names := map[string]bool{}
	for _, r := range results {
		for n := range r.SelfMS {
			names[n] = true
		}
	}
	sorted := make([]string, 0, len(names))
	for n := range names {
		sorted = append(sorted, n)
	}
	sort.Strings(sorted)
	fmt.Fprintf(w, "\nself time per traced rep, ms\n%-30s", "span")
	for _, r := range results {
		fmt.Fprintf(w, " %17s", r.Name)
	}
	fmt.Fprintln(w)
	for _, n := range sorted {
		fmt.Fprintf(w, "%-30s", n)
		for _, r := range results {
			fmt.Fprintf(w, " %17.4g", r.SelfMS[n])
		}
		fmt.Fprintln(w)
	}
	fmt.Fprintln(w)
}

// resultFile is what -result writes and -compare reads.
type resultFile struct {
	Provenance provenance        `json:"provenance"`
	Workloads  []*workloadResult `json:"workloads"`
}

// provenance records what a result was measured on.
type provenance struct {
	GitSHA     string  `json:"git_sha"`
	GitDirty   bool    `json:"git_dirty"`
	GoVersion  string  `json:"go_version"`
	GOOS       string  `json:"goos"`
	GOARCH     string  `json:"goarch"`
	GOMAXPROCS int     `json:"gomaxprocs"`
	NumCPU     int     `json:"nproc"`
	CPUModel   string  `json:"cpu_model"`
	Seed       int64   `json:"seed"`
	Rounds     int     `json:"rounds"`
	Seconds    float64 `json:"seconds"`
	Date       string  `json:"date"`
}

func writeResult(ctx context.Context, path string, cfg config, results []*workloadResult) error {
	sha, dirty := gitState(ctx)
	rf := resultFile{
		Provenance: provenance{
			GitSHA: sha, GitDirty: dirty,
			GoVersion: runtime.Version(), GOOS: runtime.GOOS, GOARCH: runtime.GOARCH,
			GOMAXPROCS: runtime.GOMAXPROCS(0), NumCPU: runtime.NumCPU(), CPUModel: cpuModel(),
			Seed: cfg.seed, Rounds: cfg.rounds, Seconds: cfg.seconds,
			Date: time.Now().UTC().Format(time.RFC3339),
		},
		Workloads: results,
	}
	b, err := json.MarshalIndent(rf, "", " ")
	if err != nil {
		return err
	}
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	return os.WriteFile(path, append(b, '\n'), 0o644)
}

// gitState returns the checked-out commit and whether the work tree differs
// from it; outside a git work tree the commit is "unknown".
func gitState(ctx context.Context) (sha string, dirty bool) {
	out, err := exec.CommandContext(ctx, "git", "rev-parse", "HEAD").Output()
	if err != nil {
		return "unknown", false
	}
	st, err := exec.CommandContext(ctx, "git", "status", "--porcelain").Output()
	return strings.TrimSpace(string(out)), err == nil && len(st) > 0
}

func cpuModel() string {
	b, err := os.ReadFile("/proc/cpuinfo")
	if err != nil {
		return "unknown"
	}
	for _, l := range strings.Split(string(b), "\n") {
		if k, v, ok := strings.Cut(l, ":"); ok && strings.TrimSpace(k) == "model name" {
			return strings.TrimSpace(v)
		}
	}
	return "unknown"
}
