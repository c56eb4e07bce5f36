package sched

import (
	"context"
	"testing"
	"time"
)

func leaseUnits(n int) []Unit {
	units := make([]Unit, n)
	for i := range units {
		units[i] = Unit{Faults: []int{i}}
	}
	return units
}

func TestLeaseQueueBasic(t *testing.T) {
	q := NewLeaseQueue(leaseUnits(5))
	now := time.Unix(0, 0)
	ttl := time.Minute

	got := q.Lease("w1", 3, ttl, now)
	if len(got) != 3 || got[0].ID != 0 || got[1].ID != 1 || got[2].ID != 2 {
		t.Fatalf("lease returned %v, want units 0..2 in FIFO order", got)
	}
	if rest := q.Lease("w2", 10, ttl, now); len(rest) != 2 {
		t.Fatalf("second lease returned %d units, want 2", len(rest))
	}
	if empty := q.Lease("w3", 1, ttl, now); len(empty) != 0 {
		t.Fatalf("lease on drained queue returned %v", empty)
	}
	for id := 0; id < 5; id++ {
		if !q.Complete(id) {
			t.Fatalf("first completion of %d reported duplicate", id)
		}
	}
	if err := q.Wait(context.Background()); err != nil {
		t.Fatalf("wait on complete queue: %v", err)
	}
	st := q.Stats()
	if want := (Stats{Units: 5, Leases: 5}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
}

func TestLeaseQueueExpiryRequeues(t *testing.T) {
	q := NewLeaseQueue(leaseUnits(3))
	now := time.Unix(0, 0)
	ttl := time.Minute

	ghost := q.Lease("ghost", 2, ttl, now)
	if len(ghost) != 2 {
		t.Fatalf("ghost leased %d units", len(ghost))
	}
	// Before expiry nothing is leasable beyond the remaining unit.
	if got := q.Lease("w1", 5, ttl, now.Add(30*time.Second)); len(got) != 1 || got[0].ID != 2 {
		t.Fatalf("pre-expiry lease returned %v, want just unit 2", got)
	}
	q.Complete(2)
	// After expiry the ghost's units are requeued and leasable again.
	late := now.Add(2 * time.Minute)
	if n := q.Expire(late); n != 2 {
		t.Fatalf("expire requeued %d, want 2", n)
	}
	re := q.Lease("w1", 5, ttl, late)
	if len(re) != 2 {
		t.Fatalf("post-expiry lease returned %d units, want the 2 requeued", len(re))
	}
	for _, u := range re {
		if !q.Complete(u.ID) {
			t.Fatalf("completion of requeued %d reported duplicate", u.ID)
		}
	}
	// The ghost's results arrive after the requeue completed: duplicates.
	for _, u := range ghost {
		if q.Complete(u.ID) {
			t.Fatalf("late ghost completion of %d not flagged duplicate", u.ID)
		}
	}
	st := q.Stats()
	if want := (Stats{Units: 3, Leases: 5, Requeues: 2, Duplicates: 2}); st != want {
		t.Fatalf("stats %+v, want %+v", st, want)
	}
	if err := q.Wait(context.Background()); err != nil {
		t.Fatal(err)
	}
}

func TestLeaseQueueLeaseExpiresStaleFirst(t *testing.T) {
	// Lease itself requeues expired units, so a died worker's units are
	// re-dispatched even without an Expire ticker.
	q := NewLeaseQueue(leaseUnits(2))
	now := time.Unix(0, 0)
	q.Lease("ghost", 2, time.Second, now)
	re := q.Lease("w1", 2, time.Minute, now.Add(time.Hour))
	if len(re) != 2 {
		t.Fatalf("lease after ghost expiry returned %d units, want 2", len(re))
	}
	if q.Stats().Requeues != 2 {
		t.Fatalf("requeues=%d, want 2", q.Stats().Requeues)
	}
}

func TestLeaseQueueCompleteWhileQueued(t *testing.T) {
	// A unit completed while sitting on the pending queue (late result beat
	// the requeue) must not be leased again.
	q := NewLeaseQueue(leaseUnits(2))
	now := time.Unix(0, 0)
	q.Lease("ghost", 1, time.Second, now)
	if n := q.Expire(now.Add(time.Minute)); n != 1 {
		t.Fatalf("expire requeued %d, want 1", n)
	}
	if !q.Complete(0) {
		t.Fatal("completion of requeued-but-pending unit rejected")
	}
	got := q.Lease("w1", 5, time.Minute, now.Add(time.Minute))
	if len(got) != 1 || got[0].ID != 1 {
		t.Fatalf("lease returned %v, want just unit 1 (unit 0 completed while queued)", got)
	}
}

func TestLeaseQueueEmptyAndWaitCancel(t *testing.T) {
	if err := NewLeaseQueue(nil).Wait(context.Background()); err != nil {
		t.Fatalf("empty queue wait: %v", err)
	}
	q := NewLeaseQueue(leaseUnits(1))
	ctx, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Wait(ctx); err != context.Canceled {
		t.Fatalf("wait on canceled context: %v", err)
	}
	if q.Complete(-1) || q.Complete(7) {
		t.Fatal("out-of-range completion accepted")
	}
}

// TestLeaseQueuePreseedForReplay models ledger resume: completions recorded
// in the ledger are replayed onto a fresh queue before any worker leases,
// and only the remainder is dispatched.
func TestLeaseQueuePreseedForReplay(t *testing.T) {
	q := NewLeaseQueue(leaseUnits(4))
	for _, id := range []int{1, 3} {
		if !q.Complete(id) {
			t.Fatalf("replay completion of %d rejected", id)
		}
	}
	got := q.Lease("w1", 10, time.Minute, time.Unix(0, 0))
	if len(got) != 2 || got[0].ID != 0 || got[1].ID != 2 {
		t.Fatalf("post-replay lease returned %v, want units 0 and 2", got)
	}
	canceled, cancel := context.WithCancel(context.Background())
	cancel()
	if err := q.Wait(canceled); err != context.Canceled {
		t.Fatalf("wait with units 0 and 2 open: %v, want the context's error", err)
	}
	for _, u := range got {
		if !q.Complete(u.ID) {
			t.Fatalf("completion of %d reported duplicate", u.ID)
		}
	}
	if err := q.Wait(context.Background()); err != nil {
		t.Fatalf("wait after the remainder completed: %v", err)
	}
	if want := (Stats{Units: 4, Leases: 2}); q.Stats() != want {
		t.Fatalf("stats %+v, want %+v", q.Stats(), want)
	}
}
