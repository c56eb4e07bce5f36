package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"reflect"
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
// of the circuit: every malformed string returns an error.  Outcome columns
// that decode render to columns that decode, and render again the same.
func FuzzWire(f *testing.F) {
	c, text := benchText(f, "c17")
	faults := paths.SampleFaults(c, 8, 1995)
	wireFaults := EncodeFaults(c, faults)
	opts := JobOptions{WordWidth: 1, SimInterval: intp(0), Compact: "reverse"}
	coreOpts, err := opts.ToCore()
	if err != nil {
		f.Fatal(err)
	}
	co, err := NewCoordinator(Config{LeaseTTL: 50 * time.Millisecond})
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

	// Seeds: a valid and a malformed body of every shape the target
	// decodes.
	outs, _ := core.New(c, coreOpts).ProcessRemoteUnit(context.Background(), faults[:1], nil)
	cols := outcomeColumns(outs)
	f.Add(mustJSON(LeaseRequest{Worker: "w", MaxUnits: 2}))
	f.Add(mustJSON(LeaseRequest{Worker: "w", WaitMS: 10}))
	f.Add(mustJSON(PostResults{Worker: "w", Units: []UnitResult{{ID: 0, Outcomes: cols}}}))
	f.Add([]byte(`{"worker":"w","units":[{"id":-1,"outcomes":{}}]}`))
	f.Add([]byte(`{"worker":"w","units":[{"id":0,"outcomes":{"status":"tt","phase":"f","decisions":[0],"backtracks":[0],"tests":["0 -> 1"]}}]}`))
	f.Add(mustJSON(cols))
	f.Add([]byte(`{"status":"q","phase":"f","decisions":[1],"backtracks":[0],"raws":["0 -> 1"]}`))
	f.Add(mustJSON(wireFaults))
	f.Add(mustJSON(LeaseResponse{JobID: "j1", Units: []WireUnit{{ID: 0, Faults: wireFaults[:2]}}}))
	f.Add([]byte(`{"job_id":"j1","units":[{"id":0,"faults":["rising"]}]}`))
	f.Add(mustJSON(JobSpec{JobID: "j1", CircuitHash: HashBench(text), Options: opts}))
	f.Add([]byte(`{"job_id":"j1","options":{"word_width":-1},"faults":[0]}`))
	all := make([]core.FaultResult, len(faults))
	for i := range all {
		all[i] = core.FaultResult{Fault: faults[i], Status: core.Aborted, PatternIndex: -1, Err: context.Canceled}
	}
	all[0] = core.FaultResult{Fault: faults[0], Status: outs[0].Status, Phase: outs[0].Phase, Test: outs[0].Test}
	results := resultColumns(nil, all)
	f.Add(mustJSON(ResultsResponse{JobID: "j1", State: stateDone, Results: results}))
	f.Add([]byte(`{"job_id":"j1","results":{"status":"a","phase":"n","decisions":[0],"backtracks":[0],"pattern_index":[-1]}}`))
	f.Add(mustJSON(EventsResponse{Events: resultColumns([]int{3, 0}, []core.FaultResult{all[3], all[0]}), Next: 2}))
	f.Add([]byte(`{"events":{"status":"aa","phase":"nn","decisions":[0,0],"backtracks":[0,0],"pattern_index":[-1,-1],"index":[0,8]},"next":2}`))
	f.Add(mustJSON(results))
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
		var oc OutcomeColumns
		if json.Unmarshal(body, &oc) == nil {
			if outs, err := oc.outcomes(len(oc.Status)); err == nil {
				canon := outcomeColumns(outs)
				again, err := canon.outcomes(len(outs))
				if err != nil {
					t.Fatalf("columns %+v decode, but their rendering %+v does not: %v", oc, canon, err)
				}
				if back := outcomeColumns(again); !reflect.DeepEqual(back, canon) {
					t.Fatalf("columns render as %+v, then as %+v", canon, back)
				}
			}
		}
		var rc ResultColumns
		if json.Unmarshal(body, &rc) == nil {
			_, _ = rc.DecodeFinal(faults)
			_, _ = rc.DecodePage(faults)
		}
		var spec JobSpec
		if json.Unmarshal(body, &spec) == nil {
			_, _ = spec.Options.ToCore()
		}
		var lease LeaseResponse
		if json.Unmarshal(body, &lease) == nil {
			for _, u := range lease.Units {
				_, _ = DecodeFaults(c, u.Faults)
			}
		}
		var results ResultsResponse
		if json.Unmarshal(body, &results) == nil {
			_, _ = results.Results.DecodeFinal(faults)
		}
		var events EventsResponse
		if json.Unmarshal(body, &events) == nil {
			_, _ = events.Events.DecodePage(faults)
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
