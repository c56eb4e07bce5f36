package service

import (
	"encoding/json"
	"fmt"
	"io"
	"maps"
	"net/http"
	"net/http/httptest"
	"reflect"
	"runtime"
	"slices"
	"strconv"
	"strings"
	"sync"
	"testing"

	"repro/internal/compact"
	"repro/internal/core"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// TestWireFaultRoundTrip: EncodeFault then DecodeFault is the identity on
// large samples, and DecodeFault refuses every malformed string.
func TestWireFaultRoundTrip(t *testing.T) {
	for _, tc := range []struct {
		circuit string
		n       int
	}{
		{"c880", 3000},
		{"s38584", 1024},
	} {
		c, _ := benchText(t, tc.circuit)
		faults := paths.SampleFaults(c, tc.n, 1995)
		if len(faults) != tc.n {
			t.Fatalf("%s: sampled %d faults, want %d", tc.circuit, len(faults), tc.n)
		}
		wfs := EncodeFaults(c, faults)
		got, err := DecodeFaults(c, wfs)
		if err != nil {
			t.Fatalf("%s: %v", tc.circuit, err)
		}
		for i, f := range faults {
			if got[i].Transition != f.Transition || !slices.Equal(got[i].Path.Nets, f.Path.Nets) {
				t.Fatalf("%s: fault %d %q decodes to %s, want %s", tc.circuit, i, wfs[i], got[i].Describe(c), f.Describe(c))
			}
		}
	}

	c, _ := benchText(t, "c880")
	good := string(EncodeFault(c, paths.SampleFaults(c, 1, 1995)[0]))
	nets := strings.SplitN(good, " ", 2)[1]
	// Drop the path's second net: the rest is no longer a structural path.
	names := strings.Split(nets, " ")
	gap := strings.Join(append([]string{names[0]}, names[2:]...), " ")
	for _, bad := range []string{
		"",
		"rising",
		"rising ",
		strings.Replace(good, " ", "  ", 1),
		good + " ",
		" " + good,
		"sideways " + nets,
		"rising " + nets + "x",
		"rising nosuchnet " + nets,
		"rising " + gap,
	} {
		if f, err := DecodeFault(c, WireFault(bad)); err == nil {
			t.Errorf("DecodeFault(%q) = %s, want an error", bad, f.Describe(c))
		}
	}
}

// TestWireOptionsRoundTrip pins the option codec a job record and a job
// spec carry.  For normalized options o (from core.New) across both modes,
// widths 1, 64 and 128, simulation intervals 0, 1 and the width, budgets 1
// and 64, each phase off, each compaction level and the zero, one and
// seeded random fill, WireOptions(o) sent through JSON resolves under ToCore
// to options that render the same and that core.New runs as o: the wire
// carries every option but what core.New derives (EmitUnfilled).  An empty
// JobOptions resolves to the defaults and renders back with every field
// explicit.
func TestWireOptionsRoundTrip(t *testing.T) {
	c, _ := benchText(t, "c17")
	opts := []core.Options{core.DefaultOptions(sensitize.Robust), core.DefaultOptions(sensitize.Nonrobust)}
	vary := func(n int, set func(o *core.Options, k int)) {
		var out []core.Options
		for _, o := range opts {
			for k := range n {
				set(&o, k)
				out = append(out, o)
			}
		}
		opts = out
	}
	vary(3, func(o *core.Options, k int) { o.WordWidth = []int{1, 64, 128}[k] })
	vary(3, func(o *core.Options, k int) { o.FaultSimInterval = []int{0, 1, o.WordWidth}[k] })
	vary(2, func(o *core.Options, k int) { o.MaxBacktracks = []int{1, 64}[k] })
	vary(3, func(o *core.Options, k int) { o.UseFPTPG, o.UseAPTPG = k != 1, k != 2 })
	vary(3, func(o *core.Options, k int) {
		o.Compaction = []compact.Level{compact.None, compact.Reverse, compact.Full}[k]
	})
	vary(3, func(o *core.Options, k int) {
		o.CompactionXFill = []compact.Filler{compact.ZeroFill(), compact.OneFill(), compact.RandomFill(1995)}[k]
	})
	for _, o := range opts {
		want := core.New(c, o).Options()
		wire := WireOptions(want)
		b, err := json.Marshal(wire)
		if err != nil {
			t.Fatal(err)
		}
		var sent JobOptions
		if err := json.Unmarshal(b, &sent); err != nil {
			t.Fatal(err)
		}
		got, err := sent.ToCore()
		if err != nil {
			t.Fatalf("%s does not resolve: %v", b, err)
		}
		if !reflect.DeepEqual(WireOptions(got), wire) || core.New(c, got).Options() != want {
			t.Fatalf("%s resolves to %+v, want %+v", b, got, want)
		}
	}

	def, err := JobOptions{}.ToCore()
	if err != nil || def != core.DefaultOptions(sensitize.Robust) {
		t.Fatalf("empty options resolve to %+v (%v), want the defaults %+v", def, err, core.DefaultOptions(sensitize.Robust))
	}
	explicit := JobOptions{Mode: "robust", WordWidth: 64, Backtracks: 8, SimInterval: intp(64), Compact: "none", XFill: "zero"}
	if got := WireOptions(def); !reflect.DeepEqual(got, explicit) {
		t.Fatalf("the defaults render as %+v, want %+v", got, explicit)
	}
}

// TestWireStatsKeys pins the statistics on the wire: a results post's
// effort carries exactly the seven effort counters, and a finished job's
// statistics the classification counters, the effort and the dispatch and
// compaction summaries.
func TestWireStatsKeys(t *testing.T) {
	keys := func(v any, field string) []string {
		t.Helper()
		var body, obj map[string]json.RawMessage
		b, err := json.Marshal(v)
		if err == nil {
			err = json.Unmarshal(b, &body)
		}
		if err == nil {
			err = json.Unmarshal(body[field], &obj)
		}
		if err != nil {
			t.Fatal(err)
		}
		return slices.Sorted(maps.Keys(obj))
	}
	effort := []string{"FPTPGGroups", "APTPGFaults", "Decisions", "Backtracks", "Implications", "SensitizeTime", "GenerateTime"}
	stats := append([]string{"Faults", "Tested", "Redundant", "Aborted", "DetectedBySim", "Sched", "Compaction"}, effort...)
	slices.Sort(effort)
	slices.Sort(stats)
	if got := keys(PostResults{}, "effort"); !slices.Equal(got, effort) {
		t.Errorf("results post effort keys %q, want %q", got, effort)
	}
	if got := keys(ResultsResponse{}, "stats"); !slices.Equal(got, stats) {
		t.Errorf("results stats keys %q, want %q", got, stats)
	}
}

// TestServiceRefusesWhitespaceNames: a circuit whose net names contain
// whitespace is refused at compile with 400 bad-circuit — its faults would
// not split back into the names they were made of.
func TestServiceRefusesWhitespaceNames(t *testing.T) {
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	body := `{"circuit_bench":"INPUT(a b)\nOUTPUT(z)\nz = NOT(a b)\n","options":{},"faults":["rising a b z"]}`
	rec := httptest.NewRecorder()
	co.ServeHTTP(rec, httptest.NewRequest(http.MethodPost, API+"/jobs", strings.NewReader(body)))
	if rec.Code != http.StatusBadRequest || !strings.Contains(rec.Body.String(), `"bad-circuit"`) {
		t.Fatalf("submit with a whitespace net name: HTTP %d %s, want 400 bad-circuit", rec.Code, rec.Body)
	}
}

// sizedReplies is coordinator middleware that checks every reply with a
// body against its Content-Length header, and notes the routes it served.
type sizedReplies struct {
	next http.Handler

	mu     sync.Mutex
	routes map[string]bool
	bad    []string
}

// countingWriter counts the body bytes a handler writes.
type countingWriter struct {
	http.ResponseWriter
	n int
}

func (cw *countingWriter) Write(p []byte) (int, error) {
	n, err := cw.ResponseWriter.Write(p)
	cw.n += n
	return n, err
}

func (s *sizedReplies) ServeHTTP(w http.ResponseWriter, r *http.Request) {
	cw := &countingWriter{ResponseWriter: w}
	s.next.ServeHTTP(cw, r) // the coordinator's mux sets r.Pattern
	declared := cw.Header().Get("Content-Length")
	s.mu.Lock()
	defer s.mu.Unlock()
	s.routes[r.Pattern] = true
	if (cw.n > 0 || declared != "") && declared != strconv.Itoa(cw.n) {
		s.bad = append(s.bad, fmt.Sprintf("%s %s: Content-Length %q for a %d-byte body", r.Method, r.URL, declared, cw.n))
	}
}

// TestServiceRepliesCarryLength runs a job through every route — a client
// submitting, following, waiting, fetching and canceling, two workers
// leasing, fetching the spec and the bench text and posting results — and
// checks that every reply with a body declares its
// exact length, error replies included.
func TestServiceRepliesCarryLength(t *testing.T) {
	c, text := benchText(t, "c432")
	faults := paths.SampleFaults(c, 48, 1995)
	check := &sizedReplies{routes: make(map[string]bool)}
	_, url := loopback(t, Config{}, func(h http.Handler) http.Handler {
		check.next = h
		return check
	})
	stop := startWorkers(t, url, 2)
	defer stop()
	cl := NewClient(url)
	ctx := budget(t)

	// The interleaved simulation on, so the lease replies carry the exchange.
	sub, err := cl.SubmitBench(ctx, "c432", text, JobOptions{SimInterval: intp(8)}, EncodeFaults(c, faults))
	if err != nil {
		t.Fatal(err)
	}
	for _, err := range cl.Follow(ctx, sub.JobID) {
		if err != nil {
			t.Fatal(err)
		}
	}
	if st, err := cl.Wait(ctx, sub.JobID); err != nil || st.State != stateDone {
		t.Fatalf("job ended %q (err %v)", st.State, err)
	}
	if _, err := cl.Results(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Cancel(ctx, sub.JobID); err != nil {
		t.Fatal(err)
	}
	if _, err := cl.Status(ctx, "j999"); err == nil {
		t.Fatal("status of an unknown job succeeded")
	}
	if _, err := cl.Submit(ctx, SubmitRequest{Name: "none"}); err == nil {
		t.Fatal("a submit without a circuit succeeded")
	}
	stop()

	check.mu.Lock()
	defer check.mu.Unlock()
	for _, b := range check.bad {
		t.Error(b)
	}
	for _, route := range []string{
		"POST " + API + "/jobs",
		"GET " + API + "/jobs/{id}",
		"DELETE " + API + "/jobs/{id}",
		"GET " + API + "/jobs/{id}/events",
		"GET " + API + "/jobs/{id}/results",
		"POST " + API + "/jobs/{id}/results",
		"GET " + API + "/jobs/{id}/spec",
		"GET " + API + "/circuits/{hash}",
		"POST " + API + "/lease",
	} {
		if !check.routes[route] {
			t.Errorf("route %s was never served", route)
		}
	}
}

// unreadBody is a request body that counts the reads made of it.
type unreadBody struct{ reads int }

func (b *unreadBody) Read([]byte) (int, error) {
	b.reads++
	return 0, io.EOF
}

// TestServiceRefusesDeclaredOversizeBodies: a results post or a lease
// request whose Content-Length is over its route's limit gets 413
// too-large before a byte of its body is read.
func TestServiceRefusesDeclaredOversizeBodies(t *testing.T) {
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	sub := submitC17(budget(t), t, NewClient(srv.URL), 4)

	for _, tc := range []struct {
		path  string
		limit int64
	}{
		{"/jobs/" + sub.JobID + "/results", maxResultsBody},
		{"/lease", maxLeaseBody},
	} {
		body := &unreadBody{}
		req := httptest.NewRequest(http.MethodPost, API+tc.path, body)
		req.ContentLength = tc.limit + 1
		rec := httptest.NewRecorder()
		co.ServeHTTP(rec, req)
		assertTooLarge(t, rec, "POST "+tc.path)
		if body.reads != 0 {
			t.Errorf("POST %s: the refused body was read %d times", tc.path, body.reads)
		}
	}
}

// TestServiceDeclaredLengthAllocatesOnArrival: a results post that declares
// maxResultsBody and ends after a few bytes gets 400 bad-request, and the
// coordinator sets aside no more than maxPresize for it: the buffer follows
// the bytes that arrive, not the length the post declares.
func TestServiceDeclaredLengthAllocatesOnArrival(t *testing.T) {
	co, err := NewCoordinator(Config{})
	if err != nil {
		t.Fatal(err)
	}
	defer co.Close()
	srv := httptest.NewServer(co)
	defer srv.Close()
	sub := submitC17(budget(t), t, NewClient(srv.URL), 4)

	req := httptest.NewRequest(http.MethodPost, API+"/jobs/"+sub.JobID+"/results", strings.NewReader(`{"worker":`))
	req.ContentLength = maxResultsBody
	rec := httptest.NewRecorder()
	var before, after runtime.MemStats
	runtime.ReadMemStats(&before)
	co.ServeHTTP(rec, req)
	runtime.ReadMemStats(&after)
	if rec.Code != http.StatusBadRequest {
		t.Errorf("a post that ends short of its declared length: %d %s, want 400", rec.Code, rec.Body)
	}
	if grew := after.TotalAlloc - before.TotalAlloc; grew > 4*maxPresize {
		t.Errorf("a post declaring %d bytes and sending 10 allocated %d bytes", maxResultsBody, grew)
	}
}
