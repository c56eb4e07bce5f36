// Command benchcmp converts `go test -bench` output into a JSON benchmark
// record and compares two such records, failing on time regressions.  It is
// the engine of the CI bench job: every run on main uploads its record as
// an artifact, and later runs download the previous record and gate on it.
// Allocation budgets and metric floors are not its business: they are
// tests that `go test ./...` runs.
//
// Convert benchmark output (stdin or -in) to JSON:
//
//	go test -run '^$' -bench BenchmarkRun -benchtime=3x -count=3 . \
//	    | go run ./tools/benchcmp -convert -sha "$GITHUB_SHA" -out BENCH_$GITHUB_SHA.json
//
// Compare a new record against a previous one (exit status 1 plus a clear
// diff message when any of the named benchmarks regresses more than
// -max-regress percent; -key takes a comma-separated list):
//
//	go run ./tools/benchcmp -compare prev.json new.json \
//	    -key 'BenchmarkRun/workers=4,BenchmarkImply' -max-regress 25
//
// The JSON stores, per benchmark, every ns/op sample (one per -count
// repetition) and their median; the raw benchmark text is embedded under
// "raw", so `jq -r .raw old.json > old.txt` recovers input that benchstat
// consumes directly.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"io"
	"os"
	"regexp"
	"sort"
	"strconv"
	"strings"
)

// Record is the persisted form of one benchmark run.
type Record struct {
	// SHA is the commit the record was measured at.
	SHA string `json:"sha"`
	// Benchmarks holds one entry per benchmark name, sorted by name.
	Benchmarks []Benchmark `json:"benchmarks"`
	// Raw is the untouched `go test -bench` output (benchstat-compatible).
	Raw string `json:"raw"`
}

// Benchmark aggregates the samples of one benchmark.
type Benchmark struct {
	// Name is the benchmark name with the trailing -GOMAXPROCS suffix
	// stripped, e.g. "BenchmarkRun/workers=4".
	Name string `json:"name"`
	// NsPerOp lists every ns/op sample, in input order.
	NsPerOp []float64 `json:"ns_per_op"`
	// MedianNsPerOp is the median of NsPerOp, the comparison statistic.
	MedianNsPerOp float64 `json:"median_ns_per_op"`
}

// benchLine matches the start of one result line of `go test -bench`
// output; the value/unit pairs after the iteration count are read
// field-wise, so the ns/op column is found among -benchmem and custom
// ReportMetric columns.
var benchLine = regexp.MustCompile(`^(Benchmark\S+)\s+(\d+)\s+(.*)$`)

// procSuffix is the trailing -GOMAXPROCS decoration of benchmark names.
var procSuffix = regexp.MustCompile(`-\d+$`)

func main() {
	var (
		convert    = flag.Bool("convert", false, "convert benchmark text (stdin or -in) to JSON")
		in         = flag.String("in", "", "benchmark text input file for -convert (default stdin)")
		out        = flag.String("out", "", "JSON output file for -convert (default stdout)")
		sha        = flag.String("sha", "", "commit SHA recorded in the converted JSON")
		compare    = flag.Bool("compare", false, "compare two JSON records: benchcmp -compare old.json new.json")
		keys       = flag.String("key", "BenchmarkRun/workers=4", "comma-separated benchmark names gated by -compare")
		maxRegress = flag.Float64("max-regress", 25, "maximum allowed ns/op regression of each -key, in percent")
	)
	flag.Parse()

	switch {
	case *convert:
		if err := runConvert(*in, *out, *sha); err != nil {
			fatal(err)
		}
	case *compare:
		if flag.NArg() != 2 {
			fatal(fmt.Errorf("-compare needs exactly two arguments: old.json new.json"))
		}
		ok, report, err := runCompare(flag.Arg(0), flag.Arg(1), *keys, *maxRegress)
		if err != nil {
			fatal(err)
		}
		fmt.Print(report)
		if !ok {
			os.Exit(1)
		}
	default:
		fatal(fmt.Errorf("nothing to do: pass -convert or -compare (see -h)"))
	}
}

func fatal(err error) {
	fmt.Fprintln(os.Stderr, "benchcmp:", err)
	os.Exit(2)
}

func runConvert(in, out, sha string) error {
	var src io.Reader = os.Stdin
	if in != "" {
		f, err := os.Open(in)
		if err != nil {
			return err
		}
		defer f.Close()
		src = f
	}
	text, err := io.ReadAll(src)
	if err != nil {
		return err
	}
	rec, err := Parse(string(text), sha)
	if err != nil {
		return err
	}
	data, err := json.MarshalIndent(rec, "", "  ")
	if err != nil {
		return err
	}
	data = append(data, '\n')
	if out == "" {
		_, err = os.Stdout.Write(data)
		return err
	}
	return os.WriteFile(out, data, 0o644)
}

// Parse extracts the ns/op samples from `go test -bench` output.  The
// value/unit pairs after the iteration count are read pairwise, and every
// unit other than ns/op (B/op, allocs/op, custom metrics) is skipped.
func Parse(text, sha string) (Record, error) {
	byName := make(map[string][]float64)
	for _, line := range strings.Split(text, "\n") {
		m := benchLine.FindStringSubmatch(strings.TrimSpace(line))
		if m == nil {
			continue
		}
		fields := strings.Fields(m[3])
		if len(fields) < 2 || len(fields)%2 != 0 {
			continue
		}
		name := procSuffix.ReplaceAllString(m[1], "")
		sawNs := false
		for i := 0; i+1 < len(fields); i += 2 {
			if fields[i+1] != "ns/op" {
				continue
			}
			value, err := strconv.ParseFloat(fields[i], 64)
			if err != nil {
				return Record{}, fmt.Errorf("bad ns/op value in %q: %w", line, err)
			}
			byName[name] = append(byName[name], value)
			sawNs = true
		}
		if !sawNs {
			return Record{}, fmt.Errorf("no ns/op column in %q", line)
		}
	}
	if len(byName) == 0 {
		return Record{}, fmt.Errorf("no benchmark result lines found in input")
	}
	rec := Record{SHA: sha, Raw: string(text)}
	names := make([]string, 0, len(byName))
	for name := range byName {
		names = append(names, name)
	}
	sort.Strings(names)
	for _, name := range names {
		ns := byName[name]
		rec.Benchmarks = append(rec.Benchmarks, Benchmark{Name: name, NsPerOp: ns, MedianNsPerOp: median(ns)})
	}
	return rec, nil
}

func median(xs []float64) float64 {
	s := append([]float64(nil), xs...)
	sort.Float64s(s)
	n := len(s)
	if n%2 == 1 {
		return s[n/2]
	}
	return (s[n/2-1] + s[n/2]) / 2
}

func load(path string) (Record, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return Record{}, err
	}
	var rec Record
	if err := json.Unmarshal(data, &rec); err != nil {
		return Record{}, fmt.Errorf("%s: %w", path, err)
	}
	return rec, nil
}

func (r Record) find(name string) (Benchmark, bool) {
	for _, b := range r.Benchmarks {
		if b.Name == name {
			return b, true
		}
	}
	return Benchmark{}, false
}

// splitList parses a comma-separated flag value, dropping empty items.
func splitList(s string) []string {
	var out []string
	for _, item := range strings.Split(s, ",") {
		if item = strings.TrimSpace(item); item != "" {
			out = append(out, item)
		}
	}
	return out
}

// runCompare renders a delta table of every benchmark the two records share
// and gates on the named keys: ok is false when any key's median ns/op grew
// by more than maxRegress percent.
func runCompare(oldPath, newPath, keys string, maxRegress float64) (ok bool, report string, err error) {
	oldRec, err := load(oldPath)
	if err != nil {
		return false, "", err
	}
	newRec, err := load(newPath)
	if err != nil {
		return false, "", err
	}

	var sb strings.Builder
	fmt.Fprintf(&sb, "benchmark comparison: old=%s new=%s\n", orUnknown(oldRec.SHA), orUnknown(newRec.SHA))
	fmt.Fprintf(&sb, "%-40s %15s %15s %9s\n", "benchmark", "old ns/op", "new ns/op", "delta")
	for _, nb := range newRec.Benchmarks {
		ob, found := oldRec.find(nb.Name)
		if !found {
			fmt.Fprintf(&sb, "%-40s %15s %15.0f %9s\n", nb.Name, "-", nb.MedianNsPerOp, "new")
			continue
		}
		fmt.Fprintf(&sb, "%-40s %15.0f %15.0f %+8.1f%%\n",
			nb.Name, ob.MedianNsPerOp, nb.MedianNsPerOp, delta(ob, nb))
	}

	ok = true
	for _, key := range splitList(keys) {
		nb, found := newRec.find(key)
		if !found {
			return false, sb.String(), fmt.Errorf("benchmark %q missing from %s", key, newPath)
		}
		ob, found := oldRec.find(key)
		if !found {
			fmt.Fprintf(&sb, "\nno previous record of %q — nothing to gate on\n", key)
			continue
		}
		d := delta(ob, nb)
		if d > maxRegress {
			fmt.Fprintf(&sb, "\nFAIL: %s regressed %.1f%% (median %.0f -> %.0f ns/op, old sha %s), above the %.0f%% limit\n",
				key, d, ob.MedianNsPerOp, nb.MedianNsPerOp, orUnknown(oldRec.SHA), maxRegress)
			ok = false
			continue
		}
		fmt.Fprintf(&sb, "\nOK: %s within limits (%+.1f%% vs old sha %s, limit %.0f%%)\n",
			key, d, orUnknown(oldRec.SHA), maxRegress)
	}
	return ok, sb.String(), nil
}

func delta(before, after Benchmark) float64 {
	if before.MedianNsPerOp == 0 {
		return 0
	}
	return (after.MedianNsPerOp/before.MedianNsPerOp - 1) * 100
}

func orUnknown(sha string) string {
	if sha == "" {
		return "unknown"
	}
	return sha
}
