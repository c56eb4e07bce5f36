//go:build !race

package service

import (
	"context"
	"fmt"
	"net/http/httptest"
	"testing"
)

// TestHashFirstSubmitsHitTheCache guards the compiled-circuit cache on the
// canonical service workload: one client submitting the same design four
// times, hash-first.  The first submission misses twice (the unknown hash
// probe, then the compile); the other three ride the cache.  A miss among
// them means every job re-parses and re-levelizes its circuit.  It is a
// budget, not a concurrency check, so like the allocation guards it builds
// without the race detector.
func TestHashFirstSubmitsHitTheCache(t *testing.T) {
	_, text := benchText(t, "c432")
	ctx := context.Background()
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	cl := NewClient(srv.URL)
	for k, want := range []bool{false, true, true, true} {
		// Zero faults: the job completes without workers, leaving the
		// submission path (and the cache) as the work.
		sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{SimInterval: intp(0)}, nil)
		if err != nil {
			t.Fatal(err)
		}
		if sub.CacheHit != want {
			t.Errorf("submission %d: cache hit %v, want %v", k+1, sub.CacheHit, want)
		}
		if _, err := cl.Wait(ctx, sub.JobID); err != nil {
			t.Fatal(err)
		}
	}
	if hits, misses := co.Cache().Stats(); hits != 3 || misses != 2 {
		t.Errorf("cache counted %d hits and %d misses, want 3 and 2", hits, misses)
	}
}

// TestCacheEvictsOldest: the cache holds cacheCap circuits, and compiling
// one more distinct circuit evicts the first compiled, and only that one.
func TestCacheEvictsOldest(t *testing.T) {
	ca := NewCache()
	hashes := make([]string, cacheCap+1)
	for i := range hashes {
		bench := fmt.Sprintf("# circuit %d\nINPUT(a)\nOUTPUT(z)\nz = NOT(a)\n", i)
		_, h, err := ca.Compile("", bench)
		if err != nil {
			t.Fatal(err)
		}
		hashes[i] = h
	}
	if _, ok := ca.Bench(hashes[0]); ok {
		t.Errorf("circuit 1 of %d is still cached, past the bound of %d", len(hashes), cacheCap)
	}
	for i, h := range hashes[1:] {
		if _, ok := ca.Get(h); !ok {
			t.Errorf("circuit %d of %d was evicted", i+2, len(hashes))
		}
	}
}
