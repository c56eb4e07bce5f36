package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
	"time"

	"repro/internal/core"
	"repro/internal/paths"
)

// FuzzWire feeds arbitrary bytes to the wire decoders and, as request
// bodies, to the lease and unit-results handlers of a coordinator running a
// live job.  The invariants: nothing panics, and no body draws a 5xx — a
// malformed body is the client's fault, never the coordinator's.  Each
// request carries a short context, so a body asking for a parked lease
// returns when it ends.  The raw body is also decoded as a wire fault
// string, which must be refused unless it is the exact encoding of a fault
// of the circuit: every malformed string returns an error.
func FuzzWire(f *testing.F) {
	c, text := benchText(f, "c17")
	faults := paths.SampleFaults(c, 8, 1995)
	wireFaults := EncodeFaults(c, faults)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	coreOpts, err := opts.ToCore()
	if err != nil {
		f.Fatal(err)
	}
	co, err := NewCoordinator(Config{LeaseTTL: 50 * time.Millisecond, ExpireInterval: 50 * time.Millisecond})
	if err != nil {
		f.Fatal(err)
	}
	f.Cleanup(co.Close)
	mustJSON := func(v any) []byte {
		b, err := json.Marshal(v)
		if err != nil {
			f.Fatal(err)
		}
		return b
	}
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, API+"/jobs", bytes.NewReader(mustJSON(SubmitRequest{
		CircuitBench: text,
		Options:      opts,
		Faults:       wireFaults,
	}))))
	var sub SubmitResponse
	if rec.Code != http.StatusOK || json.Unmarshal(rec.Body.Bytes(), &sub) != nil {
		f.Fatalf("submit: HTTP %d: %s", rec.Code, rec.Body)
	}

	// Seeds: one valid body of every shape the target decodes.
	outs, _ := core.New(c, coreOpts).ProcessRemoteUnit(context.Background(), faults[:1], nil)
	wire := []WireOutcome{EncodeOutcome(outs[0])}
	f.Add(mustJSON(LeaseRequest{Worker: "w", MaxUnits: 2}))
	f.Add(mustJSON(LeaseRequest{Worker: "w", WaitMS: 10}))
	f.Add(mustJSON(PostResults{Worker: "w", Units: []UnitResult{{ID: 0, Outcomes: wire}}}))
	f.Add(mustJSON(wire))
	f.Add(mustJSON(wireFaults))
	result := EncodeResult(0, core.FaultResult{Fault: faults[0], Status: core.Tested, Test: outs[0].Test}, 0)
	f.Add(mustJSON(result))
	f.Add(mustJSON([]WireResult{result}))
	f.Add([]byte(`{"worker":"w","units":[{"id":-1,"outcomes":[]}]}`))
	for _, wf := range wireFaults[:2] {
		f.Add([]byte(wf))
	}
	f.Add([]byte("rising"))
	f.Add([]byte(strings.Replace(string(wireFaults[0]), " ", "  ", 1)))

	f.Fuzz(func(t *testing.T, body []byte) {
		if fault, err := DecodeFault(c, WireFault(body)); err == nil {
			if got := EncodeFault(c, fault); string(got) != string(body) {
				t.Fatalf("DecodeFault accepted %q, which encodes back as %q", body, got)
			}
		}
		var wfs []WireFault
		if json.Unmarshal(body, &wfs) == nil {
			_, _ = DecodeFaults(c, wfs)
		}
		var wos []WireOutcome
		if json.Unmarshal(body, &wos) == nil {
			_, _ = DecodeOutcomes(wos)
		}
		var wr WireResult
		if json.Unmarshal(body, &wr) == nil {
			_, _ = DecodeResult(faults, wr)
		}
		var wrs []WireResult
		if json.Unmarshal(body, &wrs) == nil {
			_, _ = DecodeResults(faults, wrs)
		}
		for _, path := range []string{API + "/lease", API + "/jobs/" + sub.JobID + "/results"} {
			ctx, cancel := context.WithTimeout(context.Background(), 20*time.Millisecond)
			rec := httptest.NewRecorder()
			co.ServeHTTP(rec, httptest.NewRequestWithContext(ctx, http.MethodPost, path, bytes.NewReader(body)))
			cancel()
			if rec.Code >= 500 {
				t.Fatalf("POST %s with %q: HTTP %d: %s", path, body, rec.Code, rec.Body)
			}
		}
	})
}
