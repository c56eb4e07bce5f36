// Package testability computes SCOAP-style testability measures for the
// levelized circuit model: 0/1 controllability with one forward topological
// sweep, observability with one backward sweep, and a per-fault hardness
// score for robust and nonrobust path delay fault targets.
//
// The measures are pure structural estimates — integers that grow with the
// expected search effort — and are used to *order* work, never to decide
// outcomes: backtrace input selection and objective selection consume them
// as priorities, so a wrong estimate costs time, not coverage (see
// docs/ARCHITECTURE.md, "Testability-guided search").
package testability

import (
	"repro/internal/circuit"
	"repro/internal/logic"
	"repro/internal/paths"
	"repro/internal/sensitize"
)

// MaxMeasure is the saturation bound of every measure: costs are added along
// reconvergent structures and must not overflow on deep circuits.
const MaxMeasure = 1 << 28

// Measures holds the per-net testability measures of one circuit, indexed by
// NetID.  CC0[n] and CC1[n] estimate the effort of driving net n to 0 and to
// 1; CO[n] estimates the effort of propagating a value change on n to some
// primary output.  Unobservable nets (no path to an output) keep
// CO == MaxMeasure.
type Measures struct {
	CC0 []int
	CC1 []int
	CO  []int
}

// Analyze computes the measures of the circuit: one forward levelized sweep
// for the controllabilities, one backward sweep for the observabilities.
func Analyze(c *circuit.Circuit) *Measures {
	n := c.NumNets()
	m := &Measures{CC0: make([]int, n), CC1: make([]int, n), CO: make([]int, n)}
	m.sweepControllability(c)
	m.sweepObservability(c)
	return m
}

// memoKey keys the cached measures on circuit.Memo; being unexported it
// cannot collide with another package's cache entries.
type memoKey struct{}

// For returns the measures of the circuit, computing them on first use and
// caching them on the circuit itself: every generator and backtrace of the
// same compiled circuit shares one analysis.
func For(c *circuit.Circuit) *Measures {
	return c.Memo(memoKey{}, func() any { return Analyze(c) }).(*Measures)
}

// sweepControllability fills CC0/CC1 with the classic SCOAP recurrences in
// one topological sweep: inputs cost 1; an AND output 1 needs every input at
// 1 (sum), an AND output 0 needs one input at 0 (min); OR is the dual;
// NAND/NOR swap the results; XOR/XNOR use a two-level parity approximation.
//
//atpgvet:noalloc
func (m *Measures) sweepControllability(c *circuit.Circuit) {
	for _, id := range c.TopoOrder() {
		g := c.Gate(id)
		switch g.Kind {
		case logic.Input:
			m.CC0[id], m.CC1[id] = 1, 1
		case logic.Const0:
			m.CC0[id], m.CC1[id] = 1, MaxMeasure
		case logic.Const1:
			m.CC0[id], m.CC1[id] = MaxMeasure, 1
		case logic.Buf:
			m.CC0[id] = sat(m.CC0[g.Fanin[0]] + 1)
			m.CC1[id] = sat(m.CC1[g.Fanin[0]] + 1)
		case logic.Not:
			m.CC0[id] = sat(m.CC1[g.Fanin[0]] + 1)
			m.CC1[id] = sat(m.CC0[g.Fanin[0]] + 1)
		case logic.And, logic.Nand:
			sum1, min0 := 0, MaxMeasure
			for _, f := range g.Fanin {
				sum1 = sat(sum1 + m.CC1[f])
				if m.CC0[f] < min0 {
					min0 = m.CC0[f]
				}
			}
			c1 := sat(sum1 + 1)
			c0 := sat(min0 + 1)
			if g.Kind == logic.And {
				m.CC1[id], m.CC0[id] = c1, c0
			} else {
				m.CC0[id], m.CC1[id] = c1, c0
			}
		case logic.Or, logic.Nor:
			sum0, min1 := 0, MaxMeasure
			for _, f := range g.Fanin {
				sum0 = sat(sum0 + m.CC0[f])
				if m.CC1[f] < min1 {
					min1 = m.CC1[f]
				}
			}
			c0 := sat(sum0 + 1)
			c1 := sat(min1 + 1)
			if g.Kind == logic.Or {
				m.CC0[id], m.CC1[id] = c0, c1
			} else {
				m.CC1[id], m.CC0[id] = c0, c1
			}
		case logic.Xor, logic.Xnor:
			// Two-level approximation: cost of making the parity even/odd.
			even, odd := 0, MaxMeasure
			for _, f := range g.Fanin {
				ne := minInt(sat(even+m.CC0[f]), sat(odd+m.CC1[f]))
				no := minInt(sat(even+m.CC1[f]), sat(odd+m.CC0[f]))
				even, odd = ne, no
			}
			c0 := sat(even + 1)
			c1 := sat(odd + 1)
			if g.Kind == logic.Xor {
				m.CC0[id], m.CC1[id] = c0, c1
			} else {
				m.CC0[id], m.CC1[id] = c1, c0
			}
		}
	}
}

// sweepObservability fills CO with one backward sweep over the reversed
// topological order.  Primary outputs observe for free; propagating through
// a gate costs the gate itself plus driving every side input to its
// non-controlling value (AND/NAND: CC1, OR/NOR: CC0); XOR/XNOR side inputs
// follow the stable-0 convention of the sensitization conditions, so they
// cost CC0.  A multi-fanout net takes the cheapest of its branches.
//
// Reverse topological order guarantees CO[id] is final before id's fanins
// are relaxed: every gate reading id comes later in topological order and
// has therefore already been processed.
//
//atpgvet:noalloc
func (m *Measures) sweepObservability(c *circuit.Circuit) {
	for i := range m.CO {
		m.CO[i] = MaxMeasure
	}
	for _, id := range c.Outputs() {
		m.CO[id] = 0
	}
	order := c.TopoOrder()
	for i := len(order) - 1; i >= 0; i-- {
		id := order[i]
		g := c.Gate(id)
		if len(g.Fanin) == 0 || m.CO[id] >= MaxMeasure {
			continue
		}
		switch g.Kind {
		case logic.Buf, logic.Not:
			cand := sat(m.CO[id] + 1)
			if cand < m.CO[g.Fanin[0]] {
				m.CO[g.Fanin[0]] = cand
			}
		case logic.And, logic.Nand, logic.Or, logic.Nor, logic.Xor, logic.Xnor:
			side := 0
			for _, s := range g.Fanin {
				side = sat(side + m.sideCost(g.Kind, s))
			}
			for _, f := range g.Fanin {
				cand := sat(m.CO[id] + 1 + side - m.sideCost(g.Kind, f))
				if cand < m.CO[f] {
					m.CO[f] = cand
				}
			}
		}
	}
}

// sideCost is the cost of putting one side input of a gate of the given kind
// into its propagation-enabling state: the non-controlling value for the
// AND/OR families, stable 0 for the XOR family (the convention the
// sensitization conditions fix parity with).
func (m *Measures) sideCost(kind logic.Kind, s circuit.NetID) int {
	switch kind {
	case logic.And, logic.Nand:
		return m.CC1[s]
	case logic.Or, logic.Nor:
		return m.CC0[s]
	case logic.Xor, logic.Xnor:
		return m.CC0[s]
	}
	return 0
}

func sat(v int) int {
	if v > MaxMeasure {
		return MaxMeasure
	}
	return v
}

func minInt(a, b int) int {
	if a < b {
		return a
	}
	return b
}

// Cost returns the controllability cost of setting net to the given final
// value.
func (m *Measures) Cost(net circuit.NetID, v logic.Value3) int {
	if v == logic.Zero3 {
		return m.CC0[net]
	}
	return m.CC1[net]
}

// FaultScore estimates the search effort of generating a test for the path
// delay fault: the observability of the path input (how deep the launch
// point is buried) plus, for every on-path gate, the cost of driving each
// side input to its propagation-enabling value.  In robust mode a side input
// must additionally stay *stable* at the non-controlling value whenever the
// on-path input of its gate transitions towards the controlling value (the
// Lin/Reddy condition the sensitization package implements); those sides
// count double, so robust scores dominate nonrobust scores on the same
// fault.  Scores saturate at MaxMeasure.
//
// The score is a pure function of the circuit structure and the fault, so
// equal inputs always produce equal scores and a ranking built on them is
// deterministic.
func (m *Measures) FaultScore(c *circuit.Circuit, f paths.Fault, mode sensitize.Mode) int {
	nets := f.Path.Nets
	if len(nets) == 0 {
		return 0
	}
	trans := f.Transitions(c)
	score := m.CO[nets[0]]
	for i := 1; i < len(nets); i++ {
		g := c.Gate(nets[i])
		if len(g.Fanin) < 2 {
			continue
		}
		stable := false
		if mode == sensitize.Robust && g.Kind.HasControlling() {
			ctrl, _ := g.Kind.Controlling()
			stable = trans[i-1].FinalValue3() == ctrl
		}
		for _, s := range g.Fanin {
			if s == nets[i-1] {
				continue
			}
			cost := m.sideCost(g.Kind, s)
			if stable {
				cost = sat(2 * cost)
			}
			score = sat(score + cost)
		}
	}
	return score
}
