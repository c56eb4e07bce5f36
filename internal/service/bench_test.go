package service

import (
	"context"
	"net/http/httptest"
	"testing"
)

// BenchmarkServiceCache measures the compiled-circuit cache on the
// canonical service workload: one client submitting the same design
// repeatedly, hash-first.  The first submission misses twice (the unknown
// hash probe, then the compile); the rest ride the cache.  The reported
// hitrate metric is gated in CI (benchcmp -min-metric): it dropping below
// 0.5 means hash-first submission stopped hitting the cache — every job
// would re-parse and re-levelize its circuit.
func BenchmarkServiceCache(b *testing.B) {
	_, text := benchText(b, "c432")
	ctx := context.Background()
	var hits, misses int
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		co, err := NewCoordinator(Config{})
		if err != nil {
			b.Fatal(err)
		}
		srv := httptest.NewServer(co)
		cl := NewClient(srv.URL)
		for k := 0; k < 4; k++ {
			// Zero faults: the job completes without workers, leaving the
			// submission path (and the cache) as the measured work.
			sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{SimInterval: intp(0)}, nil)
			if err != nil {
				b.Fatal(err)
			}
			if _, err := cl.Wait(ctx, sub.JobID); err != nil {
				b.Fatal(err)
			}
		}
		h, m := co.Cache().Stats()
		hits += h
		misses += m
		srv.Close()
		co.Close()
	}
	b.ReportMetric(float64(hits)/float64(hits+misses), "hitrate")
}
