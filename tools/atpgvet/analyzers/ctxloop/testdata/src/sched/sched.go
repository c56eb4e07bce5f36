// Package sched mocks the engine's work scheduler for ctxloop fixtures;
// the analyzer matches by (package path suffix "sched", type Scheduler,
// method Next).
package sched

// Unit is one claimable work unit.
type Unit struct {
	Faults []int
}

// Scheduler hands out units in cut order.
type Scheduler struct{ units []Unit }

// Next claims the next unit.
func (s *Scheduler) Next() (Unit, bool) {
	if len(s.units) == 0 {
		return Unit{}, false
	}
	u := s.units[0]
	s.units = s.units[1:]
	return u, true
}
