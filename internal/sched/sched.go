// Package sched owns fault dispatch for the generation engine: it cuts a
// run's target fault list into work units (word-parallel fault groups) and
// hands them out to N workers.
//
// Every worker starts from one contiguous run of units — preserving the
// locality that makes the interleaved simulation's dropping effective —
// and a worker whose own queue runs dry takes queued units from the tail of
// the most loaded peer, so clustered hard faults are rebalanced instead of
// serialized on one worker.
//
// The scheduler only decides *which worker processes which unit*; result
// ordering is untouched.  Consumers write each fault's result into a slot
// keyed by the fault's original index and reassemble test sets in input
// order, so the merge is deterministic and input-ordered whatever the steal
// interleaving (see internal/core and docs/ARCHITECTURE.md "Scheduling").
package sched

import (
	"fmt"
	"sync"
)

// Unit is one work unit: a group of fault indices (into the run's target
// fault slice) processed together as one word-parallel group.  The
// scheduler knows nothing of the search: the consumer's own options set
// the group width and backtrack budget.
type Unit struct {
	Faults []int
}

// Stats aggregates the dispatch behavior of one or more passes, whether a
// Scheduler hands their units to local workers or a LeaseQueue leases them
// to remote ones.
type Stats struct {
	// Units counts the work units dispatched.
	Units int
	// Steals counts units a worker took from another worker's queue.
	Steals int
	// IdleUnits measures skew: every time a worker goes permanently idle,
	// the units still queued (not yet started) on the other workers are
	// added up.  It is structurally zero — a worker only goes idle when
	// nothing is left to steal — so a nonzero value would mean stealing
	// stranded work.
	IdleUnits int

	// Leases counts units a LeaseQueue handed out, re-leases after expiry
	// included.
	Leases int
	// Requeues counts expired leases put back on the pending queue.
	Requeues int
	// Duplicates counts completions of already-completed units (the
	// at-least-once case: the original worker's result arrived after the
	// requeued unit completed elsewhere).
	Duplicates int
}

// Add accumulates the counters of another pass into s.
func (s *Stats) Add(o Stats) {
	s.Units += o.Units
	s.Steals += o.Steals
	s.IdleUnits += o.IdleUnits
	s.Leases += o.Leases
	s.Requeues += o.Requeues
	s.Duplicates += o.Duplicates
}

// String renders a one-line summary; the lease counters appear once a unit
// was leased.
func (s Stats) String() string {
	out := fmt.Sprintf("units=%d steals=%d idle-units=%d", s.Units, s.Steals, s.IdleUnits)
	if s.Leases > 0 {
		out += fmt.Sprintf(" leases=%d requeues=%d duplicates=%d", s.Leases, s.Requeues, s.Duplicates)
	}
	return out
}

// Scheduler hands out the loaded units to workers.  Next is safe for
// concurrent use by the workers; Load is not (load before the workers
// start).
type Scheduler struct {
	mu     sync.Mutex
	queues [][]Unit // queues[w][heads[w]:] is worker w's pending FIFO
	heads  []int
	stats  Stats
}

// New creates a scheduler for the given number of workers.
func New(workers int) *Scheduler {
	if workers < 1 {
		workers = 1
	}
	return &Scheduler{
		queues: make([][]Unit, workers),
		heads:  make([]int, workers),
	}
}

// Workers returns the number of worker queues.
func (s *Scheduler) Workers() int { return len(s.queues) }

// Load distributes the units across the worker queues: contiguous runs of
// units, balanced by fault count (the near-even contiguous fault sharding).
// It resets any previous load; call it once per run, with the workers
// quiesced.
func (s *Scheduler) Load(units []Unit) {
	s.mu.Lock()
	defer s.mu.Unlock()
	s.stats.Units += len(units)

	remWeight := 0
	for _, u := range units {
		remWeight += len(u.Faults)
	}
	i := 0
	for w := range s.queues {
		s.heads[w] = 0
		remWorkers := len(s.queues) - w
		take, weight := 0, 0
		for i+take < len(units) && weight*remWorkers < remWeight {
			weight += len(units[i+take].Faults)
			take++
		}
		s.queues[w] = units[i : i+take]
		i += take
		remWeight -= weight
	}
	// Weight-zero tails (empty units) cannot be reached by the balancing
	// loop; give them to the last worker so nothing is dropped.
	if i < len(units) {
		last := len(s.queues) - 1
		s.queues[last] = append(append([]Unit{}, s.queues[last]...), units[i:]...)
	}
}

// Next returns the next unit for the worker: the head of its own queue, or
// the tail of the most loaded peer's queue.  It returns ok=false when no
// unit is available anywhere, which is final for the current load: the
// worker should exit.
//
//atpgvet:noalloc
func (s *Scheduler) Next(worker int) (Unit, bool) {
	s.mu.Lock()
	defer s.mu.Unlock()
	if q := s.queues[worker]; s.heads[worker] < len(q) {
		u := q[s.heads[worker]]
		s.heads[worker]++
		return u, true
	}
	victim, best := -1, 0
	for v := range s.queues {
		if rem := len(s.queues[v]) - s.heads[v]; rem > best {
			best, victim = rem, v
		}
	}
	if victim >= 0 {
		q := s.queues[victim]
		u := q[len(q)-1]
		s.queues[victim] = q[:len(q)-1]
		s.stats.Steals++
		return u, true
	}
	// The worker goes permanently idle; record how many queued units it
	// leaves behind on the other workers, the witness that stealing strands
	// nothing.
	for v := range s.queues {
		s.stats.IdleUnits += len(s.queues[v]) - s.heads[v]
	}
	return Unit{}, false
}

// Stats returns the counters accumulated so far.
func (s *Scheduler) Stats() Stats {
	s.mu.Lock()
	defer s.mu.Unlock()
	return s.stats
}

// Group cuts the fault indices into units of at most width faults each,
// preserving input order.  The unit slices alias the indices slice, which
// must not be mutated afterwards.
func Group(indices []int, width int) []Unit {
	if width < 1 {
		width = 1
	}
	units := make([]Unit, 0, (len(indices)+width-1)/width)
	for start := 0; start < len(indices); start += width {
		end := start + width
		if end > len(indices) {
			end = len(indices)
		}
		units = append(units, Unit{Faults: indices[start:end]})
	}
	return units
}
