package circuit_test

import (
	"errors"
	"slices"
	"strings"
	"testing"
	"unicode"

	"repro/internal/bench"
	"repro/internal/circuit"
)

// TestParseBuilderErrorsAreParseErrors pins the fix for builder-stage
// failures (duplicate names, no primary inputs) escaping ParseBench without
// the ParseError wrapper.
func TestParseBuilderErrorsAreParseErrors(t *testing.T) {
	for _, src := range []string{
		"INPUT(a)\nINPUT(a)\n",
		"# a comment, but no inputs\n",
	} {
		_, err := circuit.ParseBenchString("t.bench", src)
		if err == nil {
			t.Fatalf("ParseBenchString(%q) succeeded, want error", src)
		}
		var pe *circuit.ParseError
		if !errors.As(err, &pe) || pe.File != "t.bench" {
			t.Errorf("ParseBenchString(%q) error = %T (%v), want *ParseError naming the source", src, err, err)
		}
	}
}

// TestParseRefusesWhitespaceNames: a net name with whitespace is refused
// with a *ParseError naming its line, wherever the name appears, while every
// built-in circuit (names N…, pi… and g…) still parses from its bench text.
func TestParseRefusesWhitespaceNames(t *testing.T) {
	for _, tc := range []struct {
		src  string
		line int
	}{
		{"INPUT(a b)\nOUTPUT(z)\nz = NOT(a b)\n", 1},
		{"INPUT(a)\nOUTPUT(z z)\nz = NOT(a)\n", 2},
		{"INPUT(a)\nOUTPUT(z)\nz y = NOT(a)\n", 3},
		{"INPUT(a)\nINPUT(b)\nOUTPUT(z)\nz = AND(a, b c)\n", 4},
		{"INPUT(a\tb)\n", 1},
		{"INPUT(a\u00a0b)\n", 1},
	} {
		_, err := circuit.ParseBenchString("t.bench", tc.src)
		var pe *circuit.ParseError
		if !errors.As(err, &pe) || pe.Line != tc.line || !strings.Contains(err.Error(), "whitespace") {
			t.Errorf("ParseBenchString(%q) = %v, want a *ParseError on line %d about whitespace", tc.src, err, tc.line)
		}
	}
	for _, name := range bench.Names() {
		c, err := bench.Get(name)
		if err != nil {
			t.Fatal(err)
		}
		if _, err := circuit.ParseBenchString(name, circuit.BenchString(c)); err != nil {
			t.Errorf("built-in %s no longer parses: %v", name, err)
		}
	}
}

// FuzzParse feeds the .bench parser arbitrary input.  The repository ships
// no .bench files — circuits are generated — so the seed corpus is the
// serialized form of every generator in internal/bench plus a handful of
// malformed shapes.  Invariants: the parser never panics, every error is a
// *ParseError carrying the source name, no parsed net name contains
// whitespace, OrderPos inverts TopoOrder, levels never fall along TopoOrder,
// every Fanout list names the gates reading the net in increasing ID order,
// and parsing is a fixpoint under WriteBench serialization.
func FuzzParse(f *testing.F) {
	seeds := []*circuit.Circuit{
		bench.C17(),
		bench.PaperExample(),
		bench.RedundantExample(),
		bench.Adder(2),
		bench.ParityTree(3),
		bench.MuxTree(2),
		bench.Comparator(2),
	}
	for _, c := range seeds {
		f.Add(circuit.BenchString(c))
	}
	f.Add("")
	f.Add("# comment only\n")
	f.Add("INPUT(a)\nOUTPUT(z)\nz = AND(a, b)\n")
	f.Add("z = AND(z)\n")
	f.Add("INPUT(a)\nINPUT(a)\n")
	f.Add("OUTPUT(q)\nq = NAND(a b)\n")
	f.Add("INPUT(a)\nOUTPUT(a)\na = NOT(a)\n")
	f.Add("INPUT(\nOUTPUT)\n= ()\n")
	f.Add("INPUT(a b)\nOUTPUT(z)\nz = NOT(a b)\n")

	f.Fuzz(func(t *testing.T, src string) {
		c, err := circuit.ParseBenchString("fuzz.bench", src)
		if err != nil {
			var pe *circuit.ParseError
			if !errors.As(err, &pe) {
				t.Fatalf("error is not a *ParseError: %T: %v", err, err)
			}
			if pe.File != "fuzz.bench" {
				t.Fatalf("ParseError.File = %q, want %q", pe.File, "fuzz.bench")
			}
			if pe.Line < 0 {
				t.Fatalf("ParseError.Line = %d, want >= 0", pe.Line)
			}
			if !strings.HasPrefix(pe.Error(), "fuzz.bench") {
				t.Fatalf("ParseError message %q does not lead with the source name", pe.Error())
			}
			return
		}
		for id := 0; id < c.NumNets(); id++ {
			if n := c.NetName(circuit.NetID(id)); strings.IndexFunc(n, unicode.IsSpace) >= 0 {
				t.Fatalf("parsed net name %q contains whitespace", n)
			}
		}
		// Objective ordering breaks ties by OrderPos, and the implication
		// engine's event buckets follow the level order; Validate checks
		// neither.
		order := c.TopoOrder()
		for i, id := range order {
			if got := c.OrderPos(id); got != i {
				t.Fatalf("OrderPos(%q) = %d, want its TopoOrder index %d", c.NetName(id), got, i)
			}
			if i > 0 && c.Gate(id).Level < c.Gate(order[i-1]).Level {
				t.Fatalf("level falls along TopoOrder at %d: %q (level %d) follows %q (level %d)",
					i, c.NetName(id), c.Gate(id).Level, c.NetName(order[i-1]), c.Gate(order[i-1]).Level)
			}
		}
		// Fanout is the inverse of Fanin: a net's list names every gate
		// that reads it, once per fanin pin, in increasing ID order.
		readers := make([][]circuit.NetID, c.NumNets())
		for _, g := range c.Gates() {
			for _, f := range g.Fanin {
				readers[f] = append(readers[f], g.ID)
			}
		}
		for _, g := range c.Gates() {
			if !slices.Equal(g.Fanout, readers[g.ID]) {
				t.Fatalf("Fanout(%q) = %v, want its readers %v", g.Name, g.Fanout, readers[g.ID])
			}
		}
		// A circuit the parser accepts must serialize to a form it accepts
		// again, and serialization must be a fixpoint of the round trip
		// (same source name, since the name is part of the emitted header).
		out := circuit.BenchString(c)
		c2, err := circuit.ParseBenchString("fuzz.bench", out)
		if err != nil {
			t.Fatalf("round-trip parse failed: %v\nserialized:\n%s", err, out)
		}
		if got := circuit.BenchString(c2); got != out {
			t.Fatalf("round-trip is not a fixpoint:\nfirst:\n%s\nsecond:\n%s", out, got)
		}
	})
}
