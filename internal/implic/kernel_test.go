package implic

import (
	"math/rand"
	"slices"
	"testing"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// wordOf returns plane word w of a two-word vector as a one-word vector.
func wordOf(v logic.Word7V, w int) logic.Word7V {
	return logic.Word7V{
		Zero:     logic.Mask{v.Zero[w]},
		One:      logic.Mask{v.One[w]},
		Stable:   logic.Mask{v.Stable[w]},
		Instable: logic.Mask{v.Instable[w]},
	}
}

// assertWordsMatch checks a two-word state against the two one-word states
// that received its requirements and assignments word by word: plane word w
// of wide must agree with words[w] in its conflict mask, JustifiedMask and
// UnjustifiedWord, in Val on the conflict-free levels and in Sim, on every
// net that lies in both states' requirement cones (Val and Sim are exact on
// the cone only, and the wide cone also holds the fanin of the other word's
// requirements).
func assertWordsMatch(t *testing.T, wide *State, words [logic.MaxK]*State, tag string) {
	t.Helper()
	c := wide.Circuit()
	conf, just := wide.ConflictMask(), wide.JustifiedMask(wide.Active())
	wideCone := reqCone(wide)
	for w, st := range words {
		if got, want := conf[w], st.ConflictMask()[0]; got != want {
			t.Fatalf("%s: word %d: conflict mask %064b, one-word state %064b", tag, w, got, want)
		}
		if got, want := just[w], st.JustifiedMask(st.Active())[0]; got != want {
			t.Fatalf("%s: word %d: JustifiedMask %064b, one-word state %064b", tag, w, got, want)
		}
		if got, want := unjustifiedWord(wide, w), unjustifiedWord(st, 0); !slices.Equal(got, want) {
			t.Fatalf("%s: UnjustifiedWord(%d) = %v, one-word state %v", tag, w, got, want)
		}
		keep := logic.Mask{^conf[w]}
		cone := reqCone(st)
		for n := 0; n < c.NumNets(); n++ {
			id := circuit.NetID(n)
			if !wideCone[id] || !cone[id] {
				continue
			}
			if got, want := wordOf(wide.ImpliedValue(id), w).SelectLevels(keep), st.ImpliedValue(id).SelectLevels(keep); got != want {
				t.Fatalf("%s: word %d: Val[%s] on conflict-free levels differs:\n  two-word %v\n  one-word %v",
					tag, w, c.NetName(id), got.StringN(logic.WordWidth), want.StringN(logic.WordWidth))
			}
			if got, want := wordOf(wide.SimValue(id), w), st.SimValue(id); got != want {
				t.Fatalf("%s: word %d: Sim[%s] differs:\n  two-word %v\n  one-word %v",
					tag, w, c.NetName(id), got.StringN(logic.WordWidth), want.StringN(logic.WordWidth))
			}
		}
	}
}

// TestTwoWordKernelsMatchOneWord pins the two-word kernels (backImply2,
// mergeVal2) to the one-word ones (backImply1, mergeVal1).  The oracle tests
// cannot: the full-sweep reference dispatches on the word count like the
// engine does, so a two-word kernel that drifted from the one-word algebra
// would drift in both.  Here a width-128 state runs against two width-64
// states that get the same requirements and assignments, word by word, and
// every plane word must match its one-word state after each closure and
// after each Undo.
func TestTwoWordKernelsMatchOneWord(t *testing.T) {
	const width = logic.MaxWordWidth
	rng := rand.New(rand.NewSource(1995))
	for _, c := range equivCircuits(t) {
		wide := NewStateWidth(c, width)
		var words [logic.MaxK]*State
		for w := range words {
			words[w] = NewState(c)
		}
		each := func(f func(s *State)) {
			f(wide)
			for _, st := range words {
				f(st)
			}
		}
		addReq := func(net circuit.NetID, v logic.Value7, m logic.Mask) {
			wide.AddRequirement(net, v, m)
			for w, st := range words {
				st.AddRequirement(net, v, logic.Mask{m[w]})
			}
		}
		closure := func(tag string) {
			each(func(s *State) {
				s.Imply()
				s.ForwardSim()
			})
			assertWordsMatch(t, wide, words, tag)
		}
		inputs := c.Inputs()
		for trial := 0; trial < 6; trial++ {
			// Both words active, so the wide state runs two-word epochs.
			active := randMask(rng, width).
				Or(logic.BitMask(rng.Intn(logic.WordWidth))).
				Or(logic.BitMask(logic.WordWidth + rng.Intn(logic.WordWidth)))
			wide.Reset(active)
			for w, st := range words {
				st.Reset(logic.Mask{active[w]})
			}
			for i := 0; i < 6; i++ {
				addReq(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
			}
			closure(c.Name + "/base")

			depth := 0
			for d := 0; d < 8; d++ {
				each(func(s *State) { s.Assign() })
				depth++
				in := inputs[rng.Intn(len(inputs))]
				switch rng.Intn(3) {
				case 0:
					v := randPIWord(rng, width)
					wide.AssignPIWord(in, v)
					for w, st := range words {
						st.AssignPIWord(in, wordOf(v, w))
					}
				case 1:
					v, m := equivValues[rng.Intn(len(equivValues))], randMask(rng, width)
					wide.AssignPI(in, v, m)
					for w, st := range words {
						st.AssignPI(in, v, logic.Mask{m[w]})
					}
				default:
					addReq(circuit.NetID(rng.Intn(c.NumNets())), equivValues[rng.Intn(len(equivValues))], randMask(rng, width))
				}
				closure(c.Name + "/decide")
			}
			for ; depth > 0; depth-- {
				each(func(s *State) { s.Undo() })
				assertWordsMatch(t, wide, words, c.Name+"/undo")
				closure(c.Name + "/undo-closure")
			}
		}
	}
}
