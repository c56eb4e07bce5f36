// Package circuit provides the gate-level combinational netlist model used
// by the path delay fault test pattern generator: construction, ISCAS .bench
// input/output, levelization and structural analysis.
//
// Sequential circuits are handled the way the paper handles them: only the
// combinational part is considered.  D flip-flops found in a .bench file are
// replaced by a pseudo primary input (the flip-flop output) and a pseudo
// primary output (the flip-flop input).
//
// A Circuit is built once, by a Builder or by ParseBench, and is immutable
// afterwards.  Its gates sit in one table indexed by NetID; every gate's
// Fanin and Fanout list is a capped slice of one of two contiguous arrays,
// which hold all fanin lists and all fanout lists in ID order.  Building is
// linear in the number of nets plus fanin entries: Kahn's queue levelizes
// the netlist and detects cycles, and one counting pass over the levels
// yields TopoOrder.  Builder.Grow presizes a builder for a circuit whose
// size the caller knows.
package circuit

import (
	"fmt"
	"sort"
	"sync"

	"repro/internal/logic"
)

// NetID identifies a net (equivalently, the gate driving it) inside a
// Circuit.  NetIDs are dense indices starting at 0 and are stable for the
// lifetime of the circuit.
type NetID int32

// InvalidNet is returned by lookups that fail.
const InvalidNet NetID = -1

// Gate is a single-output combinational gate.  The gate and the net it
// drives share the same identifier; primary inputs are modelled as gates of
// kind logic.Input with no fanin.
type Gate struct {
	ID    NetID
	Name  string
	Kind  logic.Kind
	Fanin []NetID

	// Fanout lists the gates whose fanin contains this net, in increasing
	// ID order (a gate reading the net on two pins appears twice).  It is
	// computed by Build and never modified afterwards.
	Fanout []NetID

	// Level is the topological level: inputs have level 0, every other gate
	// has level 1 + max(level of fanin).
	Level int

	// IsOutput marks primary (or pseudo primary) outputs.
	IsOutput bool

	// PseudoInput and PseudoOutput mark nets that replaced a sequential
	// element when the combinational part was extracted.
	PseudoInput  bool
	PseudoOutput bool
}

// Circuit is an immutable combinational netlist.  Use a Builder or the
// .bench parser to construct one.
type Circuit struct {
	Name string

	gates   []Gate
	inputs  []NetID
	outputs []NetID
	order   []NetID // topological order, inputs first
	byName  map[string]NetID

	// orderPos[id] is the index of net id in order, precomputed by Build for
	// the event-driven implication engine.
	orderPos []int32
	// inputPos[id] is the index of net id in inputs, -1 for a net that is
	// not an input.
	inputPos []int32

	maxLevel int
	numDFF   int

	// memo caches derived analyses keyed by an analysis-owned key type (see
	// Memo).  It is the only mutable state of a Circuit; everything above is
	// frozen by Build.
	memoMu sync.Mutex
	memo   map[any]any
}

// Memo returns the value cached under key, calling compute and caching its
// result on the first request.  It lets analysis packages attach derived,
// circuit-lifetime data (e.g. testability measures) to the circuit they were
// computed from, so independent consumers share one computation without a
// global registry that would outlive the circuit.
//
// Each caller should key with its own unexported struct type, which cannot
// collide across packages.  Memo is safe for concurrent use; compute runs
// under the cache lock and must not call Memo on the same circuit.
func (c *Circuit) Memo(key any, compute func() any) any {
	c.memoMu.Lock()
	defer c.memoMu.Unlock()
	if v, ok := c.memo[key]; ok {
		return v
	}
	if c.memo == nil {
		c.memo = make(map[any]any)
	}
	v := compute()
	c.memo[key] = v
	return v
}

// NumNets returns the number of nets (gates plus primary inputs).
func (c *Circuit) NumNets() int { return len(c.gates) }

// NumGates returns the number of logic gates, excluding primary inputs.
func (c *Circuit) NumGates() int { return len(c.gates) - len(c.inputs) }

// NumDFF returns the number of sequential elements that were removed when
// the combinational part was extracted.
func (c *Circuit) NumDFF() int { return c.numDFF }

// Inputs returns the primary (and pseudo primary) input nets in declaration
// order.  The returned slice must not be modified.
func (c *Circuit) Inputs() []NetID { return c.inputs }

// Outputs returns the primary (and pseudo primary) output nets in
// declaration order.  The returned slice must not be modified.
func (c *Circuit) Outputs() []NetID { return c.outputs }

// Gate returns the gate driving net id.
func (c *Circuit) Gate(id NetID) *Gate { return &c.gates[id] }

// Gates returns all gates indexed by NetID.  The returned slice must not be
// modified.
func (c *Circuit) Gates() []Gate { return c.gates }

// TopoOrder returns all nets in topological order (fanin before fanout).
// The returned slice must not be modified.
func (c *Circuit) TopoOrder() []NetID { return c.order }

// OrderPos returns the position of net id in TopoOrder.  It is the ordering
// key used by the event-driven implication engine to keep levelized event
// processing consistent with the full forward/backward sweeps.
func (c *Circuit) OrderPos(id NetID) int { return int(c.orderPos[id]) }

// InputPos returns the position of net id in Inputs, or -1 when id is not a
// primary input.  Per-input storage (the implication engine's assignment
// plane, the fault simulator's pattern columns) is indexed by it.
func (c *Circuit) InputPos(id NetID) int { return int(c.inputPos[id]) }

// NumLevels returns the number of topological levels (MaxLevel + 1), the
// bucket count of per-level event queues.
func (c *Circuit) NumLevels() int { return c.maxLevel + 1 }

// MaxLevel returns the largest topological level, i.e. the logic depth.
func (c *Circuit) MaxLevel() int { return c.maxLevel }

// NetByName returns the net with the given name, or InvalidNet if the name
// is unknown.
func (c *Circuit) NetByName(name string) NetID {
	if id, ok := c.byName[name]; ok {
		return id
	}
	return InvalidNet
}

// Name of the net with the given id.
func (c *Circuit) NetName(id NetID) string { return c.gates[id].Name }

// IsInput reports whether id is a primary (or pseudo primary) input.
func (c *Circuit) IsInput(id NetID) bool { return c.gates[id].Kind == logic.Input }

// IsOutput reports whether id is a primary (or pseudo primary) output.
func (c *Circuit) IsOutput(id NetID) bool { return c.gates[id].IsOutput }

// Stats summarises the structural properties of a circuit.
type Stats struct {
	Name        string
	Inputs      int
	Outputs     int
	Gates       int
	DFFs        int
	MaxLevel    int
	MaxFanin    int
	MaxFanout   int
	KindCounts  map[logic.Kind]int
	TotalFanins int
}

// Stats computes structural statistics of the circuit.
func (c *Circuit) Stats() Stats {
	s := Stats{
		Name:       c.Name,
		Inputs:     len(c.inputs),
		Outputs:    len(c.outputs),
		Gates:      c.NumGates(),
		DFFs:       c.numDFF,
		MaxLevel:   c.maxLevel,
		KindCounts: make(map[logic.Kind]int),
	}
	for i := range c.gates {
		g := &c.gates[i]
		if g.Kind == logic.Input {
			continue
		}
		s.KindCounts[g.Kind]++
		s.TotalFanins += len(g.Fanin)
		if len(g.Fanin) > s.MaxFanin {
			s.MaxFanin = len(g.Fanin)
		}
	}
	for i := range c.gates {
		if n := len(c.gates[i].Fanout); n > s.MaxFanout {
			s.MaxFanout = n
		}
	}
	return s
}

// String renders a short single-line summary of the circuit.
func (c *Circuit) String() string {
	return fmt.Sprintf("%s: %d inputs, %d outputs, %d gates, depth %d",
		c.Name, len(c.inputs), len(c.outputs), c.NumGates(), c.maxLevel)
}

// FaninCone returns the set of nets in the transitive fanin of the given
// nets (including the nets themselves), as a sorted slice.
func (c *Circuit) FaninCone(roots ...NetID) []NetID {
	seen := make(map[NetID]bool)
	var stack []NetID
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[id].Fanin {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return sortedNetSet(seen)
}

// FanoutCone returns the set of nets in the transitive fanout of the given
// nets (including the nets themselves), as a sorted slice.
func (c *Circuit) FanoutCone(roots ...NetID) []NetID {
	seen := make(map[NetID]bool)
	var stack []NetID
	for _, r := range roots {
		if !seen[r] {
			seen[r] = true
			stack = append(stack, r)
		}
	}
	for len(stack) > 0 {
		id := stack[len(stack)-1]
		stack = stack[:len(stack)-1]
		for _, f := range c.gates[id].Fanout {
			if !seen[f] {
				seen[f] = true
				stack = append(stack, f)
			}
		}
	}
	return sortedNetSet(seen)
}

func sortedNetSet(set map[NetID]bool) []NetID {
	out := make([]NetID, 0, len(set))
	for id := range set {
		out = append(out, id)
	}
	sort.Slice(out, func(i, j int) bool { return out[i] < out[j] })
	return out
}

// Validate performs structural sanity checks and returns the first problem
// found, or nil.  Builders and the parser validate automatically; Validate
// is exposed so tests and tools can re-check invariants.
func (c *Circuit) Validate() error {
	if len(c.inputs) == 0 {
		return fmt.Errorf("circuit %q has no primary inputs", c.Name)
	}
	if len(c.outputs) == 0 {
		return fmt.Errorf("circuit %q has no primary outputs", c.Name)
	}
	for i := range c.gates {
		g := &c.gates[i]
		if g.ID != NetID(i) {
			return fmt.Errorf("gate %q: id %d stored at index %d", g.Name, g.ID, i)
		}
		if !g.Kind.Valid() {
			return fmt.Errorf("gate %q: invalid kind", g.Name)
		}
		switch g.Kind {
		case logic.Input, logic.Const0, logic.Const1:
			if len(g.Fanin) != 0 {
				return fmt.Errorf("gate %q: %v must not have fanin", g.Name, g.Kind)
			}
		case logic.Buf, logic.Not:
			if len(g.Fanin) != 1 {
				return fmt.Errorf("gate %q: %v must have exactly one fanin, has %d", g.Name, g.Kind, len(g.Fanin))
			}
		default:
			if len(g.Fanin) < 2 {
				return fmt.Errorf("gate %q: %v must have at least two fanins, has %d", g.Name, g.Kind, len(g.Fanin))
			}
		}
		for _, f := range g.Fanin {
			if f < 0 || int(f) >= len(c.gates) {
				return fmt.Errorf("gate %q: fanin %d out of range", g.Name, f)
			}
			if c.gates[f].Level >= g.Level {
				return fmt.Errorf("gate %q: fanin %q does not precede it in level order", g.Name, c.gates[f].Name)
			}
		}
	}
	if len(c.order) != len(c.gates) {
		return fmt.Errorf("topological order has %d entries for %d gates", len(c.order), len(c.gates))
	}
	return nil
}
