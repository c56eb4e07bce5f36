package service

import (
	"context"
	"net/http"
	"strconv"
	"sync"
	"time"
)

// maxWait caps every long-poll window a request may ask for: the status
// wait, the parked lease and the event feed.
const maxWait = 30 * time.Second

// broadcast is the coordinator's one wake mechanism: a closed-and-replaced
// channel.  A waiter takes the current channel with wait *before* it checks
// the state it waits on, and every change of that state is followed by fire,
// which closes the channel — so a change that lands between the check and
// the wait still wakes the waiter.  The channel is made on the first wait
// after a fire, so firing with nobody waiting costs nothing.
type broadcast struct {
	mu sync.Mutex
	ch chan struct{}
}

func (b *broadcast) wait() <-chan struct{} {
	b.mu.Lock()
	defer b.mu.Unlock()
	if b.ch == nil {
		b.ch = make(chan struct{})
	}
	return b.ch
}

func (b *broadcast) fire() {
	b.mu.Lock()
	if b.ch != nil {
		close(b.ch)
		b.ch = nil
	}
	b.mu.Unlock()
}

// waitMS reads a wait window in milliseconds, clamped to [0, maxWait];
// anything unparsable means no wait.
func waitMS(ms int) time.Duration {
	return min(max(time.Duration(ms)*time.Millisecond, 0), maxWait)
}

func waitQuery(r *http.Request) time.Duration {
	ms, _ := strconv.Atoi(r.URL.Query().Get("wait_ms"))
	return waitMS(ms)
}

// park holds a long-poll request until ready reports true or the wait window
// ends, re-running ready each time sig fires; ready runs after the request
// took sig's channel, so no change is lost between the two.  park reports
// whether the caller should answer with what ready last saw.  It does not
// when the client hung up — it is never asked ready again, so a parked lease
// never grants units to a worker that is gone — or when shutdown began, in
// which case park has answered 503 itself.
func (co *Coordinator) park(w http.ResponseWriter, r *http.Request, sig *broadcast, wait time.Duration, ready func() bool) bool {
	ctx, cancel := context.WithTimeout(r.Context(), wait)
	defer cancel()
	for {
		wake := sig.wait()
		switch {
		case co.draining():
			writeShutdown(w)
			return false
		case r.Context().Err() != nil:
			return false
		case ready() || ctx.Err() != nil:
			return true
		}
		select {
		case <-wake:
		case <-ctx.Done():
		case <-co.drain:
		}
	}
}

// BeginShutdown starts the coordinator's stop: from now on every parked and
// every new request is answered 503 shutting-down with Retry-After, so
// clients reconnect under their retry policy — to a successor on the same
// ledger — instead of reading the in-memory cancellation Close leaves
// behind.  It does not wait.  Register it with http.Server.RegisterOnShutdown
// so parked requests do not hold Shutdown up; Close calls it too.
func (co *Coordinator) BeginShutdown() {
	co.drainOnce.Do(func() { close(co.drain) })
}

func (co *Coordinator) draining() bool {
	select {
	case <-co.drain:
		return true
	default:
		return false
	}
}

func writeShutdown(w http.ResponseWriter) {
	w.Header().Set("Retry-After", "1")
	writeErr(w, http.StatusServiceUnavailable, "shutting-down", "coordinator shutting down")
}

// reply answers 200 with a body that reveals job state, unless shutdown has
// begun.  Close cancels running jobs in memory only, and the drain starts
// before it cancels anything, so checking after the state was read is
// enough to keep that cancellation from ever reaching a client.
func (co *Coordinator) reply(w http.ResponseWriter, v any) {
	if co.draining() {
		writeShutdown(w)
		return
	}
	writeJSON(w, http.StatusOK, v)
}
