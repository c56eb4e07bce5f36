package atpg_test

import (
	"bytes"
	"context"
	"net/http/httptest"
	"sync"
	"testing"
	"time"

	"repro/atpg"
	"repro/internal/service"
)

// startService spins up a coordinator behind a real HTTP listener plus n
// service workers leasing from it, and returns the base URL.  Cleanup stops
// the workers before the server so their final leases cannot race a dead
// socket.
func startService(t *testing.T, n int) string {
	t.Helper()
	co, err := service.NewCoordinator(service.Config{})
	if err != nil {
		t.Fatal(err)
	}
	srv := httptest.NewServer(co)
	ctx, cancel := context.WithCancel(context.Background())
	var wg sync.WaitGroup
	for i := 0; i < n; i++ {
		wk := service.NewWorker(service.WorkerConfig{
			Coordinator: srv.URL,
			ID:          "w" + string(rune('1'+i)),
		})
		wg.Add(1)
		go func() {
			defer wg.Done()
			_ = wk.Run(ctx)
		}()
	}
	t.Cleanup(func() {
		cancel()
		wg.Wait()
		srv.Close()
		co.Close()
	})
	return srv.URL
}

// remoteOptions is the shared option set of the equivalence tests: a narrow
// word cuts the faults into many units to lease, simulation off arms the
// exact determinism contract, compaction exercises the merge pipeline end
// to end.
func remoteOptions(extra ...atpg.Option) []atpg.Option {
	return append([]atpg.Option{
		atpg.WithWordWidth(8),
		atpg.WithInterleavedSim(0),
		atpg.WithCompaction(atpg.CompactReverse),
	}, extra...)
}

// TestRemoteRunMatchesLocal is the facade half of the service determinism
// contract: Engine.Run through WithRemote — two workers over real HTTP —
// must return bit-identical statuses and pattern indices, a byte-identical
// test set and equal coverage versus a local two-worker engine with the
// same options.  The second case carries full compaction with a seeded
// random X-fill over the wire.
func TestRemoteRunMatchesLocal(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 96, 1995)
	url := startService(t, 2)
	for _, tc := range []struct {
		name string
		opts []atpg.Option
	}{
		{"reverse", nil},
		{"full-random7", []atpg.Option{atpg.WithCompaction(atpg.CompactFull), atpg.WithXFill(atpg.XFillRandom(7))}},
	} {
		t.Run(tc.name, func(t *testing.T) { remoteMatchesLocal(t, c, faults, url, tc.opts...) })
	}
}

func remoteMatchesLocal(t *testing.T, c *atpg.Circuit, faults []atpg.Fault, url string, extra ...atpg.Option) {
	local, err := atpg.New(c, append(remoteOptions(extra...), atpg.WithWorkers(2))...)
	if err != nil {
		t.Fatal(err)
	}
	want, err := local.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}

	var progressed int
	remote, err := atpg.New(c, append(remoteOptions(extra...),
		atpg.WithRemote(url),
		atpg.WithProgress(func(atpg.Result) { progressed++ }),
	)...)
	if err != nil {
		t.Fatal(err)
	}
	got, err := remote.Run(context.Background(), faults)
	if err != nil {
		t.Fatal(err)
	}

	if len(got) != len(want) {
		t.Fatalf("remote returned %d results, local %d", len(got), len(want))
	}
	for i := range want {
		if gd, wd := c.Describe(got[i].Fault), c.Describe(want[i].Fault); gd != wd {
			t.Errorf("result %d: remote fault %s, local %s", i, gd, wd)
		}
		if got[i].Status != want[i].Status {
			t.Errorf("fault %d: remote status %v, local %v", i, got[i].Status, want[i].Status)
		}
		if got[i].PatternIndex != want[i].PatternIndex {
			t.Errorf("fault %d: remote pattern index %d, local %d",
				i, got[i].PatternIndex, want[i].PatternIndex)
		}
	}
	var localSet, remoteSet bytes.Buffer
	if err := local.Tests().Write(&localSet); err != nil {
		t.Fatal(err)
	}
	if err := remote.Tests().Write(&remoteSet); err != nil {
		t.Fatal(err)
	}
	if localSet.String() != remoteSet.String() {
		t.Errorf("merged test sets differ: remote %d bytes, local %d bytes",
			remoteSet.Len(), localSet.Len())
	}
	if lc, rc := local.Coverage(), remote.Coverage(); lc != rc {
		t.Errorf("coverage differs: remote %+v, local %+v", rc, lc)
	}
	if progressed != len(faults) {
		t.Errorf("progress callback ran %d times, want %d", progressed, len(faults))
	}
}

// TestRemoteStream checks the streamed path: every fault settles exactly
// once on the event feed, and after the stream ends the engine holds the
// imported test set and coverage.
func TestRemoteStream(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 48, 1995)
	url := startService(t, 2)
	e, err := atpg.New(c, remoteOptions(atpg.WithRemote(url))...)
	if err != nil {
		t.Fatal(err)
	}
	seen := make(map[string]int)
	for r := range e.Stream(context.Background(), faults) {
		seen[c.Describe(r.Fault)]++
		if r.Status == atpg.Pending {
			t.Errorf("fault %s streamed as pending", c.Describe(r.Fault))
		}
	}
	if len(seen) != len(faults) {
		t.Fatalf("streamed %d distinct faults, want %d", len(seen), len(faults))
	}
	for f, n := range seen {
		if n != 1 {
			t.Errorf("fault %s streamed %d times", f, n)
		}
	}
	if cov := e.Coverage(); cov.Faults != len(faults) {
		t.Errorf("coverage tracks %d faults after stream, want %d", cov.Faults, len(faults))
	}
	if e.Tests().Len() == 0 {
		t.Error("no test set imported after complete stream")
	}
}

// TestRemoteStreamBreak: breaking out of a remote stream must return
// promptly (it cancels the job on the coordinator) and not wedge the
// worker fleet.
func TestRemoteStreamBreak(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	faults := atpg.SampleFaults(c, 64, 1995)
	url := startService(t, 1)
	e, err := atpg.New(c, remoteOptions(atpg.WithRemote(url))...)
	if err != nil {
		t.Fatal(err)
	}
	done := make(chan struct{})
	go func() {
		defer close(done)
		for range e.Stream(context.Background(), faults) {
			break
		}
	}()
	select {
	case <-done:
	case <-time.After(30 * time.Second):
		t.Fatal("breaking out of a remote stream did not return")
	}
}

// TestRemoteOptionErrors: an empty coordinator address is rejected
// outright.
func TestRemoteOptionErrors(t *testing.T) {
	c, err := atpg.Builtin("c432")
	if err != nil {
		t.Fatal(err)
	}
	_, err = atpg.New(c, atpg.WithRemote(""))
	if err == nil {
		t.Error("WithRemote(\"\") accepted")
	}
}
