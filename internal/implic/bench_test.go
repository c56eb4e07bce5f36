package implic

import (
	"fmt"
	"testing"

	"repro/internal/bench"
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// The micro-benchmarks below measure the generator's hot loop: one framed
// input decision implied (and simulated) incrementally, then undone.  Run
// them with -benchmem: the steady state must not allocate (the CI bench job
// gates allocs/op at zero).  The *FullSweep variants measure the retained
// from-scratch oracle on the identical workload, which is the speed-up the
// event-driven engine is buying.  Each benchmark runs at every supported
// word width so CI tracks the per-word cost of the widened planes.

// benchWidths are the word widths the micro-benchmarks parameterize over.
var benchWidths = []int{64, 128, 256, 512}

// benchImplyState builds a c880-class state loaded with the sensitization
// requirements of `width` faults (one per bit level) and an implied base
// closure, mirroring the generator's state when it starts making decisions.
func benchImplyState(b *testing.B, fullSweep bool, width int) (*State, []circuit.NetID) {
	b.Helper()
	p, ok := bench.ProfileByName("c880")
	if !ok {
		b.Fatal("unknown profile c880")
	}
	c := bench.MustSynthesize(p)
	st := NewStateWidth(c, width)
	st.FullSweep = fullSweep
	st.MaxSweeps = 3 // the generator's default bound
	active := logic.LevelsMask(width)
	st.Reset(active)
	faults := paths.SampleFaults(c, width, 1)
	for lvl := 0; lvl < width; lvl++ {
		f := faults[lvl%len(faults)]
		cond, err := sensitize.Sensitize(c, f, sensitize.Robust)
		if err != nil {
			b.Fatal(err)
		}
		for _, a := range cond.Assignments {
			st.AddRequirement(a.Net, a.Value, logic.BitMask(lvl))
		}
	}
	st.Imply()
	st.ForwardSim()
	return st, c.Inputs()
}

// decisionStep is one framed decision: assign an input on all levels, imply
// (and optionally simulate), undo.
func decisionStep(st *State, inputs []circuit.NetID, i int, sim bool) {
	in := inputs[i%len(inputs)]
	v := logic.Stable1
	if i%2 == 1 {
		v = logic.Stable0
	}
	st.Assign()
	st.AssignPI(in, v, st.Active())
	st.Imply()
	if sim {
		st.ForwardSim()
	}
	st.Undo()
}

// BenchmarkImply measures the steady-state incremental implication closure:
// one framed input decision implied and undone per iteration, at every word
// width.  (The few reported B/op are the amortized growth of the
// simulation-pending list, which this benchmark never drains because it
// never calls ForwardSim; the generator's real loop always does.  allocs/op
// stays zero.)
func BenchmarkImply(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			st, inputs := benchImplyState(b, false, width)
			for i := 0; i < 256; i++ {
				decisionStep(st, inputs, i, false) // warm up trail/queue capacities
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decisionStep(st, inputs, i, false)
			}
		})
	}
}

// BenchmarkImplyOneFault measures the state APTPG searches in: one c7552
// fault's sensitization conditions and launch on all 64 levels.  Its
// requirement cone is one fault's, about a quarter of the circuit, where the
// 64 faults of BenchmarkImply cover most of c880 between them.  Each
// iteration is a framed decision on a primary input of that cone, implied,
// simulated and undone.
func BenchmarkImplyOneFault(b *testing.B) {
	p, ok := bench.ProfileByName("c7552")
	if !ok {
		b.Fatal("unknown profile c7552")
	}
	c := bench.MustSynthesize(p)
	st := NewState(c)
	st.MaxSweeps = 3 // the generator's default bound
	all := logic.LevelsMask(logic.WordWidth)
	// The first sampled fault whose conditions do not conflict outright:
	// APTPG searches only those.
	for _, f := range paths.SampleFaults(c, 64, 1) {
		cond, err := sensitize.Sensitize(c, f, sensitize.Robust)
		if err != nil {
			continue
		}
		st.Reset(all)
		for _, a := range cond.Assignments {
			st.AddRequirement(a.Net, a.Value, all)
		}
		st.AssignPI(f.Path.Input(), f.Transition.Value7(), all)
		if st.Imply().IsZero() {
			break
		}
	}
	if !st.ConflictMask().IsZero() {
		b.Fatal("every sampled fault conflicts outright")
	}
	st.ForwardSim()
	var inputs []circuit.NetID
	cone := reqCone(st)
	for _, in := range c.Inputs() {
		if cone[in] && st.PIValue(in).IsZero() {
			inputs = append(inputs, in)
		}
	}
	for i := 0; i < 256; i++ {
		decisionStep(st, inputs, i, true) // warm up trail/queue capacities
	}
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		decisionStep(st, inputs, i, true)
	}
}

// BenchmarkImplyDead is BenchmarkImply with every other bit level dead: a
// contradictory requirement (stable 0 and stable 1) on the net with the
// largest fanout conflicts the odd levels before the first decision.  Dead
// levels are frozen, so each decision should cost what it costs on the live
// half alone; a closure that kept deriving on the dead levels would storm
// through the whole circuit on every decision.
func BenchmarkImplyDead(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			st, inputs := benchImplyState(b, false, width)
			c := st.Circuit()
			hub := circuit.NetID(0)
			for n := 0; n < c.NumNets(); n++ {
				if id := circuit.NetID(n); len(c.Gate(id).Fanout) > len(c.Gate(hub).Fanout) {
					hub = id
				}
			}
			var odd logic.Mask
			for lvl := 1; lvl < width; lvl += 2 {
				odd = odd.Or(logic.BitMask(lvl))
			}
			st.AddRequirement(hub, logic.Stable0, odd)
			st.AddRequirement(hub, logic.Stable1, odd)
			if st.Imply().And(odd) != odd {
				b.Fatal("the contradictory requirement did not conflict the odd levels")
			}
			st.ForwardSim()
			for i := 0; i < 256; i++ {
				decisionStep(st, inputs, i, false)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decisionStep(st, inputs, i, false)
			}
		})
	}
}

// BenchmarkImplyFullSweep is the identical workload on the full-sweep
// oracle: every Imply recomputes the closure from scratch.
func BenchmarkImplyFullSweep(b *testing.B) {
	st, inputs := benchImplyState(b, true, logic.WordWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		st.AssignPI(in, logic.Stable1, st.Active())
		st.Imply()
	}
}

// BenchmarkForwardSim measures the steady-state incremental forward
// simulation on top of the implied decision (the generator always implies a
// decision before simulating it), at every word width.
func BenchmarkForwardSim(b *testing.B) {
	for _, width := range benchWidths {
		b.Run(fmt.Sprintf("w%d", width), func(b *testing.B) {
			st, inputs := benchImplyState(b, false, width)
			for i := 0; i < 256; i++ {
				decisionStep(st, inputs, i, true)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				decisionStep(st, inputs, i, true)
			}
		})
	}
}

// BenchmarkForwardSimFullSweep is the identical workload with from-scratch
// whole-circuit simulation.
func BenchmarkForwardSimFullSweep(b *testing.B) {
	st, inputs := benchImplyState(b, true, logic.WordWidth)
	b.ReportAllocs()
	b.ResetTimer()
	for i := 0; i < b.N; i++ {
		in := inputs[i%len(inputs)]
		st.AssignPI(in, logic.Stable1, st.Active())
		st.Imply()
		st.ForwardSim()
	}
}
