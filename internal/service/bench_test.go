package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"sync/atomic"
	"testing"

	"repro/internal/circuit"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/sched"
)

// wireJob is the bench's service-loopback job in wire form: a 3,000-fault
// c880 job at width 64, run once in process, and the bodies its service run
// sends.  Every body is built with the calls the client, coordinator and
// worker make.
type wireJob struct {
	c       *circuit.Circuit
	faults  []paths.Fault
	submit  SubmitRequest
	leases  []LeaseResponse // every unit of the cut, unitsPerLease to a lease
	post    PostResults     // the first lease's units
	results []core.FaultResult
	final   ResultsResponse // Results is rendered per fetch, as the coordinator does
}

func newWireJob(b *testing.B) *wireJob {
	c, text := benchText(b, "c880")
	faults := paths.SampleFaults(c, 3000, 1995)
	opts := JobOptions{SimInterval: new(int), Compact: "reverse"}
	coreOpts, err := opts.ToCore()
	if err != nil {
		b.Fatal(err)
	}
	master := core.New(c, coreOpts)
	results := core.RunSharded(context.Background(), master, faults, 2)
	var tests bytes.Buffer
	if err := master.TestSet().Write(&tests); err != nil {
		b.Fatal(err)
	}
	wj := &wireJob{
		c:       c,
		faults:  faults,
		submit:  SubmitRequest{CircuitHash: HashBench(text), Options: opts, Faults: EncodeFaults(c, faults)},
		results: results,
		final:   ResultsResponse{JobID: "j1", State: stateDone, Tests: tests.String(), Stats: master.Stats()},
	}
	idx := make([]int, len(faults))
	for i := range idx {
		idx[i] = i
	}
	units := sched.Group(idx, coreOpts.WordWidth) // the cut of the job's pass
	for first := 0; first < len(units); first += unitsPerLease {
		lease := LeaseResponse{JobID: "j1"}
		for id := first; id < min(first+unitsPerLease, len(units)); id++ {
			u := WireUnit{ID: id}
			for _, fi := range units[id].Faults {
				u.Faults = append(u.Faults, wj.submit.Faults[fi])
			}
			lease.Units = append(lease.Units, u)
		}
		wj.leases = append(wj.leases, lease)
	}
	wj.post = PostResults{Worker: "w1"}
	for _, u := range units[:unitsPerLease] {
		outs := make([]core.RemoteOutcome, len(u.Faults))
		for i, fi := range u.Faults {
			r := results[fi]
			outs[i] = core.RemoteOutcome{Status: r.Status, Phase: r.Phase, Decisions: r.Decisions, Backtracks: r.Backtracks, Test: r.Test}
		}
		wj.post.Units = append(wj.post.Units, UnitResult{ID: len(wj.post.Units), Outcomes: outcomeColumns(outs)})
	}
	return wj
}

// BenchmarkWireJob measures the JSON wire of one 3,000-fault c880 job, the
// bench's service-loopback job: each iteration encodes and decodes the
// submit body (client to coordinator), the job's lease replies, which carry
// every fault once (coordinator to workers), one lease's unit results
// (worker to coordinator) and the final results (coordinator to client),
// and decodes each with the calls its receiver makes.  The run that
// produces the results happens once, outside the timer.  KB/job is the
// bodies' size.
func BenchmarkWireJob(b *testing.B) {
	wj := newWireJob(b)
	inputs := len(wj.c.Inputs())
	b.ReportAllocs()
	b.ResetTimer()
	var size int
	for i := 0; i < b.N; i++ {
		size = 0
		roundTrip := func(in, out any) {
			body, err := json.Marshal(in)
			if err != nil {
				b.Fatal(err)
			}
			size += len(body)
			dec := json.NewDecoder(bytes.NewReader(body))
			dec.DisallowUnknownFields()
			if err := dec.Decode(out); err != nil {
				b.Fatal(err)
			}
		}

		var sub SubmitRequest
		roundTrip(SubmitRequest{CircuitHash: wj.submit.CircuitHash, Options: wj.submit.Options, Faults: EncodeFaults(wj.c, wj.faults)}, &sub)
		if _, err := DecodeFaults(wj.c, sub.Faults); err != nil {
			b.Fatal(err)
		}

		for _, lease := range wj.leases {
			var got LeaseResponse
			roundTrip(lease, &got)
			for _, u := range got.Units {
				if _, err := DecodeFaults(wj.c, u.Faults); err != nil {
					b.Fatal(err)
				}
			}
		}

		var post PostResults
		roundTrip(wj.post, &post)
		for k := range post.Units {
			oc := &post.Units[k].Outcomes
			outs, err := oc.outcomes(len(wj.leases[0].Units[k].Faults))
			if err == nil {
				err = checkWidths(outs, inputs)
			}
			if err != nil {
				b.Fatal(err)
			}
		}

		final := wj.final
		final.Results = resultColumns(nil, wj.results)
		var resp ResultsResponse
		roundTrip(final, &resp)
		if _, err := resp.Results.DecodeFinal(wj.faults); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/1024, "KB/job")
}

// BenchmarkWireHTTP measures the service wire over HTTP on one 3,000-fault
// c880 job, the bench's service-loopback job: each iteration submits the
// job, takes its lease replies, which carry every fault once, posts one
// lease's unit results and fetches the results, through the client, from an
// httptest server that reads requests and answers with writeJSON as the
// coordinator does.  The run that produces the results happens once,
// outside the timer.  KB/job is the bodies' size.
func BenchmarkWireHTTP(b *testing.B) {
	wj := newWireJob(b)
	final := wj.final
	final.Results = resultColumns(nil, wj.results)
	bodies := []any{wj.submit, wj.post, final}
	for _, lease := range wj.leases {
		bodies = append(bodies, lease)
	}
	size := 0
	for _, v := range bodies {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		size += len(body)
	}

	var leased atomic.Int64
	mux := http.NewServeMux()
	mux.HandleFunc("POST "+API+"/jobs", func(w http.ResponseWriter, r *http.Request) {
		var req SubmitRequest
		dec := json.NewDecoder(r.Body)
		dec.DisallowUnknownFields()
		if err := dec.Decode(&req); err != nil {
			writeBodyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, SubmitResponse{JobID: "j1", CircuitHash: req.CircuitHash, Faults: len(req.Faults)})
	})
	mux.HandleFunc("POST "+API+"/lease", func(w http.ResponseWriter, r *http.Request) {
		var req LeaseRequest
		if err := decodeBody(w, r, maxLeaseBody, &req); err != nil {
			writeBodyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, wj.leases[int(leased.Add(1)-1)%len(wj.leases)])
	})
	mux.HandleFunc("POST "+API+"/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {
		var req PostResults
		if err := decodeBody(w, r, maxResultsBody, &req); err != nil {
			writeBodyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, PostResultsResponse{})
	})
	mux.HandleFunc("GET "+API+"/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {
		final := wj.final
		final.Results = resultColumns(nil, wj.results)
		writeJSON(w, http.StatusOK, final)
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Submit(ctx, wj.submit); err != nil {
			b.Fatal(err)
		}
		for range wj.leases {
			if _, ok, err := cl.Lease(ctx, "w1", unitsPerLease, 0); err != nil || !ok {
				b.Fatal(ok, err)
			}
		}
		if _, err := cl.PostUnitResults(ctx, "j1", wj.post); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Results(ctx, "j1"); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/1024, "KB/job")
}
