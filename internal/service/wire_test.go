package service

import (
	"net/http"
	"net/http/httptest"
	"slices"
	"strings"
	"testing"

	"repro/internal/paths"
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
