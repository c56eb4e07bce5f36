package circuit

import (
	"fmt"
	"sort"

	"repro/internal/logic"
)

// Builder constructs a Circuit incrementally.  Nets are created by Input,
// Const and Gate calls; Output marks primary outputs.  Build finalizes the
// netlist: it computes fanout lists, levelizes the circuit, checks for
// combinational cycles and validates gate arities.
type Builder struct {
	name    string
	gates   []Gate
	inputs  []NetID
	outputs []NetID
	byName  map[string]NetID
	numDFF  int
	err     error
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]NetID)}
}

// Err returns the first error recorded by the builder, if any.  All builder
// methods become no-ops once an error has been recorded, so a construction
// sequence can be written without intermediate checks and the error examined
// once at Build time.
func (b *Builder) Err() error { return b.err }

func (b *Builder) fail(format string, args ...interface{}) NetID {
	if b.err == nil {
		b.err = fmt.Errorf(format, args...)
	}
	return InvalidNet
}

func (b *Builder) addNet(name string, kind logic.Kind, fanin []NetID) NetID {
	if b.err != nil {
		return InvalidNet
	}
	if name == "" {
		name = fmt.Sprintf("n%d", len(b.gates))
	}
	if _, dup := b.byName[name]; dup {
		return b.fail("circuit %q: duplicate net name %q", b.name, name)
	}
	for _, f := range fanin {
		if f < 0 || int(f) >= len(b.gates) {
			return b.fail("circuit %q: gate %q references unknown net %d", b.name, name, f)
		}
	}
	id := NetID(len(b.gates))
	b.gates = append(b.gates, Gate{ID: id, Name: name, Kind: kind, Fanin: append([]NetID(nil), fanin...)})
	b.byName[name] = id
	return id
}

// Input declares a primary input net.
func (b *Builder) Input(name string) NetID {
	id := b.addNet(name, logic.Input, nil)
	if id != InvalidNet {
		b.inputs = append(b.inputs, id)
	}
	return id
}

// PseudoInput declares a pseudo primary input (a removed flip-flop output).
func (b *Builder) PseudoInput(name string) NetID {
	id := b.Input(name)
	if id != InvalidNet {
		b.gates[id].PseudoInput = true
		b.numDFF++
	}
	return id
}

// Const declares a constant driver net.
func (b *Builder) Const(name string, one bool) NetID {
	kind := logic.Const0
	if one {
		kind = logic.Const1
	}
	return b.addNet(name, kind, nil)
}

// Gate declares a logic gate driving a new net with the given name.
func (b *Builder) Gate(name string, kind logic.Kind, fanin ...NetID) NetID {
	switch kind {
	case logic.Input:
		return b.fail("circuit %q: use Input to declare primary input %q", b.name, name)
	case logic.Const0, logic.Const1:
		if len(fanin) != 0 {
			return b.fail("circuit %q: constant %q must not have fanin", b.name, name)
		}
	case logic.Buf, logic.Not:
		if len(fanin) != 1 {
			return b.fail("circuit %q: gate %q (%v) needs exactly one fanin, got %d", b.name, name, kind, len(fanin))
		}
	default:
		if len(fanin) < 2 {
			return b.fail("circuit %q: gate %q (%v) needs at least two fanins, got %d", b.name, name, kind, len(fanin))
		}
	}
	return b.addNet(name, kind, fanin)
}

// Output marks an existing net as a primary output.
func (b *Builder) Output(id NetID) {
	if b.err != nil {
		return
	}
	if id < 0 || int(id) >= len(b.gates) {
		b.fail("circuit %q: output references unknown net %d", b.name, id)
		return
	}
	if b.gates[id].IsOutput {
		return
	}
	b.gates[id].IsOutput = true
	b.outputs = append(b.outputs, id)
}

// PseudoOutput marks an existing net as a pseudo primary output (a removed
// flip-flop input).
func (b *Builder) PseudoOutput(id NetID) {
	b.Output(id)
	if b.err == nil {
		b.gates[id].PseudoOutput = true
	}
}

// Build finalizes the circuit.  It computes fanout lists and topological
// levels, verifies the netlist is acyclic and structurally valid, and
// returns the immutable Circuit.
func (b *Builder) Build() (*Circuit, error) {
	if b.err != nil {
		return nil, b.err
	}
	if len(b.inputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no primary inputs", b.name)
	}
	if len(b.outputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no primary outputs", b.name)
	}

	c := &Circuit{
		Name:    b.name,
		gates:   b.gates,
		inputs:  b.inputs,
		outputs: b.outputs,
		byName:  b.byName,
		numDFF:  b.numDFF,
	}

	// Fanout lists.  Build may be called more than once on the same builder
	// (for example to add outputs discovered after a first build), so reset
	// any previously computed fanout lists and levels first.
	for i := range c.gates {
		c.gates[i].Fanout = nil
		c.gates[i].Level = 0
	}
	for i := range c.gates {
		g := &c.gates[i]
		for _, f := range g.Fanin {
			c.gates[f].Fanout = append(c.gates[f].Fanout, g.ID)
		}
	}

	// Kahn levelization; detects combinational cycles.
	n := len(c.gates)
	pending := make([]int, n)
	queue := make([]NetID, 0, n)
	for i := range c.gates {
		pending[i] = len(c.gates[i].Fanin)
		if pending[i] == 0 {
			queue = append(queue, NetID(i))
		}
	}
	order := make([]NetID, 0, n)
	for len(queue) > 0 {
		id := queue[0]
		queue = queue[1:]
		order = append(order, id)
		g := &c.gates[id]
		level := 0
		for _, f := range g.Fanin {
			if l := c.gates[f].Level + 1; l > level {
				level = l
			}
		}
		g.Level = level
		if level > c.maxLevel {
			c.maxLevel = level
		}
		for _, fo := range g.Fanout {
			pending[fo]--
			if pending[fo] == 0 {
				queue = append(queue, fo)
			}
		}
	}
	if len(order) != n {
		return nil, fmt.Errorf("circuit %q contains a combinational cycle", b.name)
	}
	// Re-sort the order by (level, id) so iteration is deterministic and
	// level-monotone, which the implication engine relies on.
	sort.Slice(order, func(i, j int) bool {
		li, lj := c.gates[order[i]].Level, c.gates[order[j]].Level
		if li != lj {
			return li < lj
		}
		return order[i] < order[j]
	})
	c.order = order

	// Precompute the topological positions the event-driven implication
	// engine schedules on.
	c.orderPos = make([]int32, n)
	for pos, id := range order {
		c.orderPos[id] = int32(pos)
	}
	c.inputPos = make([]int32, n)
	for id := range c.inputPos {
		c.inputPos[id] = -1
	}
	for pos, id := range c.inputs {
		c.inputPos[id] = int32(pos)
	}

	if err := c.Validate(); err != nil {
		return nil, err
	}
	return c, nil
}
