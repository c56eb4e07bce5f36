package main

import (
	"encoding/json"
	"os"
	"path/filepath"
	"sort"
	"time"
)

// span is one timed call into a layer.  Parent names the enclosing span of
// the same rep ("" for the rep itself); names are unique within a rep except
// for the per-request service spans, which are leaves.
type span struct {
	Workload string `json:"workload"`
	Rep      int    `json:"rep"`
	Name     string `json:"name"`
	Parent   string `json:"parent"`
	StartNS  int64  `json:"start_ns"`
	EndNS    int64  `json:"end_ns"`
}

// tracer keeps the spans of one workload's traced pass in memory; they are
// written out once the benchmark ends.  It is used from one goroutine.
type tracer struct {
	workload string
	base     time.Time
	rep      int
	spans    []span
}

func newTracer(workload string) *tracer {
	return &tracer{workload: workload, base: time.Now()}
}

// start opens a span; the returned function closes it and returns its
// duration.  A nil tracer records nothing, so one code path serves a traced
// run and its untraced twin.
func (t *tracer) start(name, parent string) func() time.Duration {
	t0 := time.Now()
	return func() time.Duration {
		t1 := time.Now()
		if t != nil {
			t.add(name, parent, t0, t1)
		}
		return t1.Sub(t0)
	}
}

func (t *tracer) add(name, parent string, start, end time.Time) {
	t.spans = append(t.spans, span{
		Workload: t.workload, Rep: t.rep, Name: name, Parent: parent,
		StartNS: start.Sub(t.base).Nanoseconds(), EndNS: end.Sub(t.base).Nanoseconds(),
	})
}

// write stores the spans as dir/trace-<workload>.json.
func (t *tracer) write(dir string) error {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return err
	}
	b, err := json.MarshalIndent(t.spans, "", " ")
	if err != nil {
		return err
	}
	return os.WriteFile(filepath.Join(dir, "trace-"+t.workload+".json"), b, 0o644)
}

// selfTimes returns each span name's self time summed over all spans of that
// name: a span's duration minus the part of it that its children cover.
// Children may overlap (concurrent service requests); the covered part is
// the union of their intervals clipped to the parent.
func selfTimes(spans []span) map[string]time.Duration {
	type key struct {
		workload string
		rep      int
		name     string
	}
	children := map[key][]span{}
	for _, s := range spans {
		if s.Parent != "" {
			k := key{s.Workload, s.Rep, s.Parent}
			children[k] = append(children[k], s)
		}
	}
	self := map[string]time.Duration{}
	for _, s := range spans {
		kids := children[key{s.Workload, s.Rep, s.Name}]
		sort.Slice(kids, func(i, j int) bool { return kids[i].StartNS < kids[j].StartNS })
		covered, reach := int64(0), s.StartNS
		for _, c := range kids {
			lo, hi := max(c.StartNS, reach), min(c.EndNS, s.EndNS)
			if hi > lo {
				covered += hi - lo
				reach = hi
			}
		}
		self[s.Name] += time.Duration(s.EndNS - s.StartNS - covered)
	}
	return self
}
