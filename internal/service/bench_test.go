package service

import (
	"bytes"
	"context"
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"testing"

	"repro/internal/core"
	"repro/internal/paths"
)

// BenchmarkWireJob measures the JSON wire of one 3,000-fault c880 job, the
// bench's service-loopback job: each iteration encodes and decodes the
// submit body (client to coordinator), the spec (coordinator to a worker)
// and the final results (coordinator to client), with the same calls the
// client, coordinator and worker make.  The run that produces the results
// happens once, outside the timer.  KB/job is the three bodies' size.
func BenchmarkWireJob(b *testing.B) {
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
	hash := HashBench(text)
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
		roundTrip(SubmitRequest{CircuitHash: hash, Options: opts, Faults: EncodeFaults(c, faults)}, &sub)
		if _, err := DecodeFaults(c, sub.Faults); err != nil {
			b.Fatal(err)
		}

		var spec JobSpec
		roundTrip(JobSpec{JobID: "j1", CircuitHash: hash, Options: sub.Options, Faults: sub.Faults}, &spec)
		if _, err := DecodeFaults(c, spec.Faults); err != nil {
			b.Fatal(err)
		}

		wire := make([]WireResult, len(results))
		for k, r := range results {
			wire[k] = EncodeResult(k, r, r.PatternIndex)
		}
		var resp ResultsResponse
		roundTrip(ResultsResponse{JobID: "j1", State: stateDone, Results: wire, Tests: tests.String(), Stats: master.Stats()}, &resp)
		if _, err := DecodeResults(faults, resp.Results); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/1024, "KB/job")
}

// BenchmarkWireHTTP measures the service wire over HTTP on one 3,000-fault
// c880 job, the bench's service-loopback job: each iteration fetches the
// job's spec and its results through the client from an httptest server
// that answers with writeJSON, and posts one lease's unit results (four
// units of 64 faults), which the server reads as the coordinator does.  The run that produces the results happens
// once, outside the timer.  KB/op is the three bodies' size.
func BenchmarkWireHTTP(b *testing.B) {
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
	spec := JobSpec{JobID: "j1", CircuitHash: HashBench(text), Options: opts, Faults: EncodeFaults(c, faults)}
	final := ResultsResponse{JobID: "j1", State: stateDone, Tests: tests.String(), Stats: master.Stats()}
	for i, r := range results {
		final.Results = append(final.Results, EncodeResult(i, r, r.PatternIndex))
	}
	post := PostResults{Worker: "w1"}
	for u := 0; u < 4; u++ {
		ur := UnitResult{ID: u}
		for i := 64 * u; i < 64*(u+1); i++ {
			r := results[i]
			ur.Outcomes = append(ur.Outcomes, EncodeOutcome(core.RemoteOutcome{
				Status: r.Status, Phase: r.Phase, Decisions: r.Decisions, Backtracks: r.Backtracks, Test: r.Test,
			}))
		}
		post.Units = append(post.Units, ur)
	}
	size := 0
	for _, v := range []any{spec, final, post} {
		body, err := json.Marshal(v)
		if err != nil {
			b.Fatal(err)
		}
		size += len(body)
	}

	mux := http.NewServeMux()
	mux.HandleFunc("GET "+API+"/jobs/j1/spec", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, spec)
	})
	mux.HandleFunc("GET "+API+"/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {
		writeJSON(w, http.StatusOK, final)
	})
	mux.HandleFunc("POST "+API+"/jobs/j1/results", func(w http.ResponseWriter, r *http.Request) {
		var req PostResults
		if err := decodeBody(w, r, maxResultsBody, &req); err != nil {
			writeBodyErr(w, err)
			return
		}
		writeJSON(w, http.StatusOK, PostResultsResponse{})
	})
	srv := httptest.NewServer(mux)
	defer srv.Close()
	cl := NewClient(srv.URL)
	ctx := context.Background()
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		if _, err := cl.Spec(ctx, "j1"); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.Results(ctx, "j1"); err != nil {
			b.Fatal(err)
		}
		if _, err := cl.PostUnitResults(ctx, "j1", post); err != nil {
			b.Fatal(err)
		}
	}
	b.ReportMetric(float64(size)/1024, "KB/op")
}
