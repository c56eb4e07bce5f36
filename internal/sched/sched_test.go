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

// TestNextDrainsInCutOrder checks that a lone claimer receives every unit
// once, in cut order, and that an exhausted scheduler stays exhausted.
func TestNextDrainsInCutOrder(t *testing.T) {
	units := Group(seq(10), 3)
	s := New(units)
	for i := range units {
		u, ok := s.Next()
		if !ok {
			t.Fatalf("scheduler ran out after %d of %d units", i, len(units))
		}
		if u.Faults[0] != units[i].Faults[0] {
			t.Fatalf("claim %d returned unit %v, want %v", i, u.Faults, units[i].Faults)
		}
	}
	for i := 0; i < 2; i++ {
		if u, ok := s.Next(); ok {
			t.Fatalf("drained scheduler handed out %v", u.Faults)
		}
	}
	if _, ok := New(nil).Next(); ok {
		t.Error("a scheduler over no units handed one out")
	}
}

// TestConcurrentDrainIsComplete hammers Next from several goroutines: every
// unit must be claimed exactly once, and each claimer must receive units in
// strictly increasing cut positions.
func TestConcurrentDrainIsComplete(t *testing.T) {
	const workers, n, width = 4, 1000, 3
	units := Group(seq(n), width)
	s := New(units)

	claims := make([]int, len(units))
	var mu sync.Mutex
	var wg sync.WaitGroup
	for w := 0; w < workers; w++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			last := -1
			for {
				u, ok := s.Next()
				if !ok {
					return
				}
				pos := u.Faults[0] / width
				if pos <= last {
					t.Errorf("a claimer received unit %d after unit %d", pos, last)
				}
				last = pos
				mu.Lock()
				claims[pos]++
				mu.Unlock()
			}
		}()
	}
	wg.Wait()
	for pos, c := range claims {
		if c != 1 {
			t.Fatalf("unit %d claimed %d times, want once", pos, c)
		}
	}
}

func TestStatsAdd(t *testing.T) {
	a := Stats{Units: 10, Leases: 2, Requeues: 1}
	a.Add(Stats{Units: 5, Leases: 3, Duplicates: 4})
	if want := (Stats{Units: 15, Leases: 5, Requeues: 1, Duplicates: 4}); a != want {
		t.Errorf("Stats.Add gave %+v, want %+v", a, want)
	}
}
