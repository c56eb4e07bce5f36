package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"reflect"
	"strings"
	"testing"
)

const sampleBench = `goos: linux
goarch: amd64
pkg: repro
BenchmarkRun/workers=4-8         	       3	 251000000 ns/op
BenchmarkRun/workers=4-8         	       3	 249000000 ns/op
BenchmarkRun/schedule=steal-8    	       3	 250000000 ns/op
BenchmarkImply-8                 	     500	     38000 ns/op	       0 B/op	       0 allocs/op
BenchmarkWireJob-8               	      20	  41000000 ns/op	       310.5 KB/job	 8160000 B/op	   12807 allocs/op
PASS
`

// TestParseCapturesMetrics checks the one metric a record keeps: every
// ns/op sample and its median, found among the -benchmem and custom
// columns, which are skipped.
func TestParseCapturesMetrics(t *testing.T) {
	rec, err := Parse(sampleBench, "abc")
	if err != nil {
		t.Fatal(err)
	}
	if rec.SHA != "abc" || rec.Raw != sampleBench {
		t.Errorf("sha = %q, raw kept = %v", rec.SHA, rec.Raw == sampleBench)
	}
	want := []Benchmark{
		{Name: "BenchmarkImply", NsPerOp: []float64{38000}, MedianNsPerOp: 38000},
		{Name: "BenchmarkRun/schedule=steal", NsPerOp: []float64{250000000}, MedianNsPerOp: 250000000},
		{Name: "BenchmarkRun/workers=4", NsPerOp: []float64{251000000, 249000000}, MedianNsPerOp: 250000000},
		{Name: "BenchmarkWireJob", NsPerOp: []float64{41000000}, MedianNsPerOp: 41000000},
	}
	if !reflect.DeepEqual(rec.Benchmarks, want) {
		t.Errorf("benchmarks = %+v\nwant %+v", rec.Benchmarks, want)
	}
	if _, err := Parse("BenchmarkImply-8 500 0 B/op 0 allocs/op\n", ""); err == nil {
		t.Error("a result line without ns/op parsed")
	}
}

// writeRecord converts text to a JSON record on disk.
func writeRecord(t *testing.T, dir, name, text string) string {
	t.Helper()
	rec, err := Parse(text, name)
	if err != nil {
		t.Fatal(err)
	}
	data, err := json.Marshal(rec)
	if err != nil {
		t.Fatal(err)
	}
	path := filepath.Join(dir, name+".json")
	if err := os.WriteFile(path, data, 0o644); err != nil {
		t.Fatal(err)
	}
	return path
}

// TestCompareGates checks the time gate: identical records pass, a key
// that regressed more than -max-regress fails, and a key missing from the
// new record is an error.
func TestCompareGates(t *testing.T) {
	dir := t.TempDir()
	oldPath := writeRecord(t, dir, "old", sampleBench)

	newPath := writeRecord(t, dir, "new", sampleBench)
	ok, report, err := runCompare(oldPath, newPath, "BenchmarkRun/workers=4,BenchmarkRun/schedule=steal", 25)
	if err != nil {
		t.Fatal(err)
	}
	if !ok || strings.Count(report, "OK: ") != 2 {
		t.Fatalf("identical records should pass both keys:\n%s", report)
	}

	// 250 -> 310 ms is +24 %, within the limit; 250 -> 450 ms is +80 %.
	for _, tc := range []struct {
		ns   string
		pass bool
	}{{"310000000", true}, {"450000000", false}} {
		slow := strings.ReplaceAll(sampleBench, "BenchmarkRun/schedule=steal-8    	       3	 250000000",
			"BenchmarkRun/schedule=steal-8    	       3	 "+tc.ns)
		slowPath := writeRecord(t, dir, "slow", slow)
		ok, report, err = runCompare(oldPath, slowPath, "BenchmarkRun/schedule=steal", 25)
		if err != nil {
			t.Fatal(err)
		}
		if ok != tc.pass || strings.Contains(report, "FAIL") == tc.pass {
			t.Errorf("steal at %s ns/op: ok = %v, want %v:\n%s", tc.ns, ok, tc.pass, report)
		}
	}

	if _, _, err := runCompare(oldPath, newPath, "BenchmarkGone", 25); err == nil {
		t.Error("a key missing from the new record should error")
	}
}
