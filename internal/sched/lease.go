package sched

import (
	"context"
	"sync"
	"time"
)

// LeaseQueue dispatches the work units of one generation pass to remote
// workers under time-bounded leases: a worker leases a batch of units,
// processes them and completes each one; units whose lease expires (the
// worker died or stalled) are requeued and leased to someone else.  The
// queue is at-least-once — a requeued unit may end up processed twice, which
// the consumer must tolerate (the core's RemoteRun.Apply is first-write-wins
// per fault, so duplicates are no-ops there).
//
// Time is injected: Lease and Expire take the current time as a parameter,
// so tests drive expiry deterministically and the caller owns the clock.
// All methods are safe for concurrent use.
type LeaseQueue struct {
	mu      sync.Mutex
	units   []Unit
	pending []int // unit IDs awaiting dispatch, FIFO
	leased  map[int]lease
	done    []bool
	left    int // units not yet completed
	stats   Stats

	// doneCh is closed when every unit has completed.
	doneCh chan struct{}
}

type lease struct {
	worker  string
	expires time.Time
}

// LeasedUnit is one unit handed to a worker: the stable unit ID it must
// complete, and the unit itself (the exact word-parallel fault group the
// pass pipeline cut — workers must process it whole, never regroup).
type LeasedUnit struct {
	ID   int
	Unit Unit
}

// NewLeaseQueue builds a queue over the units of one pass.  Unit IDs are the
// unit's index in the slice.  A queue over zero units is complete
// immediately.
func NewLeaseQueue(units []Unit) *LeaseQueue {
	q := &LeaseQueue{
		units:  units,
		leased: make(map[int]lease),
		done:   make([]bool, len(units)),
		left:   len(units),
		stats:  Stats{Units: len(units)},
		doneCh: make(chan struct{}),
	}
	q.pending = make([]int, len(units))
	for i := range units {
		q.pending[i] = i
	}
	if q.left == 0 {
		close(q.doneCh)
	}
	return q
}

// Lease hands out up to max units to the worker, each under a lease that
// expires at now+ttl.  Expired leases are requeued first, so a died worker's
// units are re-dispatched by the next Lease call even without an Expire
// ticker.  Units are handed out in FIFO order, the input order the pass cut
// them in.  An empty result means
// nothing is pending right now (everything is completed or leased out);
// the caller should back off and retry, or Wait.
func (q *LeaseQueue) Lease(worker string, max int, ttl time.Duration, now time.Time) []LeasedUnit {
	q.mu.Lock()
	defer q.mu.Unlock()
	q.expireLocked(now)
	if max < 1 {
		max = 1
	}
	var out []LeasedUnit
	for len(out) < max && len(q.pending) > 0 {
		id := q.pending[0]
		q.pending = q.pending[1:]
		if q.done[id] {
			continue // completed while queued (late result beat the requeue)
		}
		q.leased[id] = lease{worker: worker, expires: now.Add(ttl)}
		q.stats.Leases++
		out = append(out, LeasedUnit{ID: id, Unit: q.units[id]})
	}
	return out
}

// Complete marks the unit done and reports whether this was its first
// completion.  A false return is the at-least-once duplicate: the caller
// must not apply the result again (applying anyway is safe for the core's
// first-write-wins merge, but skipping keeps ledgers and counters exact).
func (q *LeaseQueue) Complete(id int) bool {
	q.mu.Lock()
	defer q.mu.Unlock()
	if id < 0 || id >= len(q.done) {
		return false
	}
	if q.done[id] {
		q.stats.Duplicates++
		return false
	}
	q.done[id] = true
	delete(q.leased, id)
	q.left--
	if q.left == 0 {
		close(q.doneCh)
	}
	return true
}

// Expire requeues every lease that expired before now and returns how many
// it requeued.  The coordinator runs it on a ticker so a died worker's units
// become leasable without waiting for the next Lease call.
func (q *LeaseQueue) Expire(now time.Time) int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.expireLocked(now)
}

func (q *LeaseQueue) expireLocked(now time.Time) int {
	n := 0
	for id, l := range q.leased {
		if !now.After(l.expires) {
			continue
		}
		delete(q.leased, id)
		if q.done[id] {
			continue
		}
		// Requeue at the front: an expired unit has waited longest.
		q.pending = append([]int{id}, q.pending...)
		q.stats.Requeues++
		n++
	}
	return n
}

// Remaining returns the number of units not yet completed.
func (q *LeaseQueue) Remaining() int {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.left
}

// Stats returns the counters accumulated so far: Units is the pass's unit
// count, and Steals and IdleUnits, which only a Scheduler counts, stay zero.
func (q *LeaseQueue) Stats() Stats {
	q.mu.Lock()
	defer q.mu.Unlock()
	return q.stats
}

// Wait blocks until every unit has completed or the context ends, returning
// ctx.Err() in the latter case.  It is the pass barrier of a distributed
// run: the coordinator's dispatch returns when Wait does.
func (q *LeaseQueue) Wait(ctx context.Context) error {
	select {
	case <-q.doneCh:
		return nil
	case <-ctx.Done():
		return ctx.Err()
	}
}
