package sched

import (
	"sync"
	"testing"
)

func seq(n int) []int {
	out := make([]int, n)
	for i := range out {
		out[i] = i
	}
	return out
}

func TestGroup(t *testing.T) {
	units := Group(seq(10), 4)
	if len(units) != 3 {
		t.Fatalf("Group(10, 4) = %d units, want 3", len(units))
	}
	want := [][]int{{0, 1, 2, 3}, {4, 5, 6, 7}, {8, 9}}
	for i, u := range units {
		if len(u.Faults) != len(want[i]) {
			t.Fatalf("unit %d = %v, want %v", i, u.Faults, want[i])
		}
		for j := range u.Faults {
			if u.Faults[j] != want[i][j] {
				t.Fatalf("unit %d = %v, want %v", i, u.Faults, want[i])
			}
		}
	}
	if got := Group(nil, 4); len(got) != 0 {
		t.Errorf("Group(nil) = %v, want empty", got)
	}
	if got := Group(seq(3), 0); len(got) != 3 {
		t.Errorf("Group with width 0 should clamp to 1, got %d units", len(got))
	}
}

// TestLoadBalancesFaultCount checks that the initial contiguous split is
// balanced by covered fault count, matching the old near-even fault-shard
// bounds when the units are singletons.
func TestLoadBalancesFaultCount(t *testing.T) {
	for _, tc := range []struct {
		n, workers int
		wantSizes  []int
	}{
		{10, 4, []int{3, 3, 2, 2}},
		{4, 4, []int{1, 1, 1, 1}},
		{7, 2, []int{4, 3}},
	} {
		s := New(tc.workers)
		s.Load(Group(seq(tc.n), 1))
		for w := 0; w < tc.workers; w++ {
			if got := len(s.queues[w]); got != tc.wantSizes[w] {
				t.Errorf("n=%d workers=%d: worker %d got %d units, want %d",
					tc.n, tc.workers, w, got, tc.wantSizes[w])
			}
		}
		// Contiguity, completeness and head-first order: taking exactly each
		// worker's own share through Next, in worker order, yields 0..n-1.
		// No steal can happen while a worker's own queue is non-empty.
		next := 0
		for w := 0; w < tc.workers; w++ {
			for i := 0; i < tc.wantSizes[w]; i++ {
				u, ok := s.Next(w)
				if !ok {
					t.Fatalf("n=%d workers=%d: worker %d ran out after %d units", tc.n, tc.workers, w, i)
				}
				for _, f := range u.Faults {
					if f != next {
						t.Fatalf("n=%d workers=%d: fault %d dispatched out of order (want %d)", tc.n, tc.workers, f, next)
					}
					next++
				}
			}
		}
		if next != tc.n {
			t.Fatalf("n=%d workers=%d: drained %d faults", tc.n, tc.workers, next)
		}
		if st := s.Stats(); st.Steals != 0 {
			t.Errorf("n=%d workers=%d: %d steals while draining own queues", tc.n, tc.workers, st.Steals)
		}
	}
}

// TestStealRebalances pins work stealing: an idle worker takes units from
// the tail of the most loaded peer, and nobody goes idle while queued work
// remains anywhere.
func TestStealRebalances(t *testing.T) {
	s := New(2)
	s.Load(Group(seq(8), 1))
	// Worker 1 drains its own 4 units head-first, then steals worker 0's
	// entire queue from the tail.
	want := []int{4, 5, 6, 7, 3, 2, 1, 0}
	var got []int
	for {
		u, ok := s.Next(1)
		if !ok {
			break
		}
		got = append(got, u.Faults...)
	}
	if len(got) != len(want) {
		t.Fatalf("worker 1 processed faults %v, want %v", got, want)
	}
	for i := range want {
		if got[i] != want[i] {
			t.Fatalf("worker 1 processed faults %v, want %v", got, want)
		}
	}
	st := s.Stats()
	if st.Steals != 4 {
		t.Errorf("steals = %d, want 4", st.Steals)
	}
	if st.IdleUnits != 0 {
		t.Errorf("idle units = %d, want 0", st.IdleUnits)
	}
	// Worker 0 finds its queue emptied.
	if _, ok := s.Next(0); ok {
		t.Error("worker 0 got a unit after its queue was stolen empty")
	}
}

// TestConcurrentDrainIsComplete hammers Next from several goroutines: every
// unit must be dispatched exactly once.
func TestConcurrentDrainIsComplete(t *testing.T) {
	const workers, n = 4, 1000
	s := New(workers)
	s.Load(Group(seq(n), 3))

	var mu sync.Mutex
	seen := make(map[int]int)
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func(w int) {
			defer wg.Done()
			for {
				u, ok := s.Next(w)
				if !ok {
					return
				}
				mu.Lock()
				for _, f := range u.Faults {
					seen[f]++
				}
				mu.Unlock()
			}
		}(w)
	}
	wg.Wait()
	if len(seen) != n {
		t.Fatalf("dispatched %d distinct faults, want %d", len(seen), n)
	}
	for f, c := range seen {
		if c != 1 {
			t.Fatalf("fault %d dispatched %d times", f, c)
		}
	}
	st := s.Stats()
	if st.Units != (n+2)/3 {
		t.Errorf("units stat = %d, want %d", st.Units, (n+2)/3)
	}
	if st.IdleUnits != 0 {
		t.Errorf("idle units = %d, want 0", st.IdleUnits)
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Units: 10, Steals: 2, IdleUnits: 3}
	a.Add(Stats{Units: 5, Steals: 1, IdleUnits: 4})
	if a.Units != 15 || a.Steals != 3 || a.IdleUnits != 7 {
		t.Errorf("Stats.Add gave %+v", a)
	}
}
