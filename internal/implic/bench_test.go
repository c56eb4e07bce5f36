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
// gates allocs/op at zero).  The *FullSweep variants measure the full-sweep
// reference on the identical workload, which is the speed-up the
// event-driven engine is buying.

// benchWidths are the word widths the micro-benchmarks parameterize over.
var benchWidths = []int{64}

// benchImplyState builds a c880-class state loaded with the sensitization
// requirements of `width` faults (one per bit level) and an implied base
// closure, mirroring the generator's state when it starts making decisions.
func benchImplyState(tb testing.TB, fullSweep bool, width int) (*State, []circuit.NetID) {
	tb.Helper()
	p, ok := bench.ProfileByName("c880")
	if !ok {
		tb.Fatal("unknown profile c880")
	}
	c := bench.MustSynthesize(p)
	newState := NewState
	if fullSweep {
		newState = NewFullSweepState
	}
	st := newState(c)
	active := logic.LevelsMask(width)
	st.Reset(active)
	faults := paths.SampleFaults(c, width, 1)
	for lvl := 0; lvl < width; lvl++ {
		f := faults[lvl%len(faults)]
		cond, err := sensitize.Sensitize(c, f, sensitize.Robust)
		if err != nil {
			tb.Fatal(err)
		}
		for _, a := range cond.Assignments {
			st.AddRequirement(a.Net, a.Value, logic.BitMask(lvl))
		}
	}
	st.Imply()
	st.ForwardSim()
	return st, c.Inputs()
}

// oneFaultState builds the state of BenchmarkImplyOneFault: the first
// sampled c7552 fault whose conditions do not conflict outright, on all 64
// levels, implied and simulated, and the unassigned inputs of its cone.
func oneFaultState(tb testing.TB) (*State, []circuit.NetID) {
	tb.Helper()
	p, ok := bench.ProfileByName("c7552")
	if !ok {
		tb.Fatal("unknown profile c7552")
	}
	c := bench.MustSynthesize(p)
	st := NewState(c)
	all := logic.LevelsMask(logic.WordWidth)
	// APTPG searches only faults whose conditions do not conflict outright.
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
		if st.Imply() == 0 {
			break
		}
	}
	if st.ConflictMask() != 0 {
		tb.Fatal("every sampled fault conflicts outright")
	}
	st.ForwardSim()
	var inputs []circuit.NetID
	cone := reqCone(st)
	for _, in := range c.Inputs() {
		if cone[in] && st.PIValue(in) == (logic.Word7{}) {
			inputs = append(inputs, in)
		}
	}
	return st, inputs
}

// aptpgStart is a fault placed on a window level: its sensitization
// conditions, its launch and the level.
type aptpgStart struct {
	cond   sensitize.Conditions
	launch circuit.NetID
	value  logic.Value7
	level  int
}

// sampleWindow returns a window as the generator fills one: the first
// `width` sampled faults of c whose conditions exist in mode, one per bit
// level, each with the launch value the generator assigns in that mode.
func sampleWindow(tb testing.TB, c *circuit.Circuit, mode sensitize.Mode, width int, seed int64) []aptpgStart {
	tb.Helper()
	var faults []aptpgStart
	for _, f := range paths.SampleFaults(c, 2*width, seed) {
		if len(faults) == width {
			break
		}
		cond, err := sensitize.Sensitize(c, f, mode)
		if err != nil {
			continue
		}
		v := f.Transition.Value7()
		if mode == sensitize.Nonrobust {
			v = logic.Value7From3(f.Transition.FinalValue3())
		}
		faults = append(faults, aptpgStart{cond: cond, launch: f.Path.Input(), value: v, level: len(faults)})
	}
	return faults
}

// openWindow resets st to `width` levels, places every fault of the window
// on its own level, implies the window once and saves the closure, as the
// generator opens a window.  It returns the window's conflict mask.
func openWindow(st *State, faults []aptpgStart, width int) logic.Mask {
	st.Reset(logic.LevelsMask(width))
	for _, fs := range faults {
		fs.place(st, logic.BitMask(fs.level))
	}
	conf := st.Imply()
	st.SaveClosure()
	return conf
}

// liveFaults returns the faults of a window whose level does not conflict.
func liveFaults(faults []aptpgStart, conf logic.Mask) []aptpgStart {
	var live []aptpgStart
	for _, fs := range faults {
		if !conf.Bit(fs.level) {
			live = append(live, fs)
		}
	}
	return live
}

// place puts the fault's requirements and launch on the levels of mask.
func (fs aptpgStart) place(st *State, mask logic.Mask) {
	for _, a := range fs.cond.Assignments {
		st.AddRequirement(a.Net, a.Value, mask)
	}
	st.AssignPI(fs.launch, fs.value, mask)
}

// startOneFault resets st to the fault alone on every level of active, as
// APTPG does before its first closure.
func (fs aptpgStart) startOneFault(st *State, active logic.Mask) {
	st.Reset(active)
	fs.place(st, active)
}

// BenchmarkAPTPGStart measures the first closure of an APTPG search on
// BenchmarkImplyOneFault's c7552 stand-in: `imply` resets the state, puts the
// fault's requirements and launch on all 64 levels and implies them; `load`
// does the same but takes the closure from the snapshot of a 64-fault
// window holding the fault (implic.State.LoadClosure), as the generator
// does.
func BenchmarkAPTPGStart(b *testing.B) {
	c, err := bench.Get("c7552")
	if err != nil {
		b.Fatal(err)
	}
	st := NewState(c)
	window := sampleWindow(b, c, sensitize.Robust, logic.WordWidth, 1)
	faults := liveFaults(window, openWindow(st, window, logic.WordWidth))
	if len(faults) == 0 {
		b.Fatal("every window level conflicts")
	}
	all := logic.LevelsMask(logic.WordWidth)
	b.Run("imply", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs := faults[i%len(faults)]
			fs.startOneFault(st, all)
			st.Imply()
		}
	})
	b.Run("load", func(b *testing.B) {
		b.ReportAllocs()
		for i := 0; i < b.N; i++ {
			fs := faults[i%len(faults)]
			fs.startOneFault(st, all)
			st.LoadClosure(fs.level)
		}
	})
}

// deadState builds the state of BenchmarkImplyDead: benchImplyState with a
// contradictory requirement (stable 0 and stable 1) on the net with the
// largest fanout, which conflicts every odd level before the first decision.
func deadState(tb testing.TB, width int) (*State, []circuit.NetID) {
	tb.Helper()
	st, inputs := benchImplyState(tb, false, width)
	c := st.Circuit()
	hub := circuit.NetID(0)
	for n := 0; n < c.NumNets(); n++ {
		if id := circuit.NetID(n); len(c.Gate(id).Fanout) > len(c.Gate(hub).Fanout) {
			hub = id
		}
	}
	var odd logic.Mask
	for lvl := 1; lvl < width; lvl += 2 {
		odd |= logic.BitMask(lvl)
	}
	st.AddRequirement(hub, logic.Stable0, odd)
	st.AddRequirement(hub, logic.Stable1, odd)
	if st.Imply()&odd != odd {
		tb.Fatal("the contradictory requirement did not conflict the odd levels")
	}
	st.ForwardSim()
	return st, inputs
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
// width.
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
	st, inputs := oneFaultState(b)
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
			st, inputs := deadState(b, width)
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
// reference: every Imply recomputes the closure from scratch.
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

// BenchmarkNewState measures the construction of one implication state; its
// B/op is the plane, trail-stamp and event-queue storage every state holds.
// It runs on c7552 and on the s38584 stand-in.
func BenchmarkNewState(b *testing.B) {
	for _, name := range []string{"c7552", "s38584"} {
		b.Run(name+"/w64", func(b *testing.B) {
			c, err := bench.Get(name)
			if err != nil {
				b.Fatal(err)
			}
			b.ReportAllocs()
			b.ResetTimer()
			for i := 0; i < b.N; i++ {
				NewState(c)
			}
		})
	}
}
