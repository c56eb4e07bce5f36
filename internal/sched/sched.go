// Package sched owns fault dispatch for the generation engine: it cuts a
// run's target fault list into work units (word-parallel fault groups) and
// hands them out, to local workers through a Scheduler and to remote ones
// through a LeaseQueue.
//
// Both hand units out from one FIFO in cut order.  A Scheduler is an atomic
// cursor over the cut: each claim takes the next unclaimed unit without a
// lock, so no worker idles while a unit is left.
//
// The scheduler only decides *which worker processes which unit*; result
// ordering is untouched.  Consumers write each fault's result into a slot
// keyed by the fault's original index and reassemble test sets in input
// order, so the merge is deterministic and input-ordered whatever the claim
// interleaving (see internal/core and docs/ARCHITECTURE.md "Scheduling").
package sched

import (
	"fmt"
	"sync/atomic"
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
	// Steals and IdleUnits are always zero: dispatch is one FIFO, so no
	// worker takes a unit from another and none idles while a unit is
	// queued.  They stay declared for the benchmark's sched.steals and
	// sched.idle_units rows.
	Steals    int
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
	s.Leases += o.Leases
	s.Requeues += o.Requeues
	s.Duplicates += o.Duplicates
}

// String renders a one-line summary; the lease counters appear once a unit
// was leased.
func (s Stats) String() string {
	out := fmt.Sprintf("units=%d", s.Units)
	if s.Leases > 0 {
		out += fmt.Sprintf(" leases=%d requeues=%d duplicates=%d", s.Leases, s.Requeues, s.Duplicates)
	}
	return out
}

// Scheduler hands out the units of one run in cut order through one atomic
// cursor.  Next is safe for concurrent use.
type Scheduler struct {
	units []Unit
	next  atomic.Int64 // position of the next unclaimed unit
}

// New creates a scheduler over the units of one run, in cut order.
func New(units []Unit) *Scheduler {
	return &Scheduler{units: units}
}

// Next claims the next unit in cut order.  It returns ok=false once every
// unit is claimed, which is final: the worker should exit.
//
//atpgvet:noalloc
func (s *Scheduler) Next() (Unit, bool) {
	i := s.next.Add(1) - 1
	if i >= int64(len(s.units)) {
		return Unit{}, false
	}
	return s.units[i], true
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
