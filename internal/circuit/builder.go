package circuit

import (
	"fmt"
	"maps"
	"slices"
	"strconv"

	"repro/internal/logic"
)

// Builder constructs a Circuit incrementally.  Nets are created by Input,
// Const and Gate calls; Output marks primary outputs.  Build finalizes the
// netlist: it lays out the fanin and fanout lists, levelizes the circuit,
// checks for combinational cycles and validates gate arities, in time
// linear in the size of the netlist.
//
// A builder builds one circuit.  Build hands the builder's storage to the
// circuit it returns, so the builder is spent afterwards: every later call,
// Build included, records an error instead of touching that circuit.
type Builder struct {
	name  string
	gates []Gate
	// fanin holds every gate's fanin list back to back in ID order; Build
	// reslices the gates' Fanin lists out of its final backing array.
	fanin   []NetID
	inputs  []NetID
	outputs []NetID
	byName  map[string]NetID
	numDFF  int
	built   bool
	err     error
}

// NewBuilder returns an empty builder for a circuit with the given name.
func NewBuilder(name string) *Builder {
	return &Builder{name: name, byName: make(map[string]NetID)}
}

// Grow is a capacity hint, like strings.Builder.Grow: it makes room for n
// more nets, so a caller that knows the circuit's size declares every net
// without growing the gate table, the fanin storage or the name index on
// the way.  The fanin storage gets two entries per net, more than the
// ISCAS circuits average once their fanin-free inputs are counted; a
// circuit of wider gates grows it as it goes.
func (b *Builder) Grow(n int) {
	if !b.usable() || n <= 0 {
		return
	}
	b.gates = slices.Grow(b.gates, n)
	b.fanin = slices.Grow(b.fanin, 2*n)
	byName := make(map[string]NetID, len(b.byName)+n)
	maps.Copy(byName, b.byName)
	b.byName = byName
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

// usable reports whether a builder call may go ahead: no error is recorded
// and Build has not run.  A call after Build records that as the error.
func (b *Builder) usable() bool {
	if b.built {
		b.fail("circuit %q: builder used after Build", b.name)
	}
	return b.err == nil
}

func (b *Builder) addNet(name string, kind logic.Kind, fanin []NetID) NetID {
	if !b.usable() {
		return InvalidNet
	}
	id := NetID(len(b.gates))
	if name == "" {
		name = "n" + strconv.Itoa(int(id))
	}
	if _, dup := b.byName[name]; dup {
		return b.fail("circuit %q: duplicate net name %q", b.name, name)
	}
	for _, f := range fanin {
		if f < 0 || f >= id {
			return b.fail("circuit %q: gate %q references unknown net %d", b.name, name, f)
		}
	}
	g := Gate{ID: id, Name: name, Kind: kind}
	if len(fanin) > 0 {
		start := len(b.fanin)
		b.fanin = append(b.fanin, fanin...)
		g.Fanin = b.fanin[start:len(b.fanin):len(b.fanin)]
	}
	b.gates = append(b.gates, g)
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

// Gate declares a logic gate driving a new net with the given name.  The
// builder copies fanin, so the caller may reuse the slice.
func (b *Builder) Gate(name string, kind logic.Kind, fanin ...NetID) NetID {
	if !b.usable() {
		return InvalidNet
	}
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

// Output marks an existing net as a primary output.  Marking a net twice
// keeps its first position among the outputs.
func (b *Builder) Output(id NetID) {
	if !b.usable() {
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

// Build finalizes the circuit and spends the builder.  It lays every fanin
// list and every fanout list out in two contiguous arrays, computes the
// topological levels with Kahn's queue (which also detects combinational
// cycles), orders the nets by (level, ID) with one counting pass over the
// levels, verifies the netlist is structurally valid, and returns the
// immutable Circuit.  Each step is linear in the number of nets plus fanin
// entries.
func (b *Builder) Build() (*Circuit, error) {
	if !b.usable() {
		return nil, b.err
	}
	b.built = true
	if len(b.inputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no primary inputs", b.name)
	}
	if len(b.outputs) == 0 {
		return nil, fmt.Errorf("circuit %q has no primary outputs", b.name)
	}

	gates := slices.Clip(b.gates)
	n := len(gates)
	c := &Circuit{
		Name:    b.name,
		gates:   gates,
		inputs:  b.inputs,
		outputs: b.outputs,
		byName:  b.byName,
		numDFF:  b.numDFF,
	}

	// Fanin lists: the fanin storage may have moved as it grew, so slice
	// every list out of its final array, where they lie in ID order.
	fanin := b.fanin
	off := 0
	for i := range gates {
		if k := len(gates[i].Fanin); k > 0 {
			gates[i].Fanin = fanin[off : off+k : off+k]
			off += k
		}
	}

	// Fanout lists: count each net's readers, turn the counts into the
	// starts of the lists in one array, then walk the readers in ID order,
	// advancing each start to its list's end.  A list thus names its
	// readers in increasing ID order, a reader of two fanin pins twice.
	end := make([]int32, n)
	for _, f := range fanin {
		end[f]++
	}
	countsToStarts(end)
	fanout := make([]NetID, len(fanin))
	for i := range gates {
		for _, f := range gates[i].Fanin {
			fanout[end[f]] = NetID(i)
			end[f]++
		}
	}
	start := int32(0)
	for i := range gates {
		if end[i] > start {
			gates[i].Fanout = fanout[start:end[i]:end[i]]
		}
		start = end[i]
	}

	// Kahn levelization; detects combinational cycles.
	pending := end // each net's count of unplaced fanin pins
	queue := make([]NetID, 0, n)
	for i := range gates {
		pending[i] = int32(len(gates[i].Fanin))
		if pending[i] == 0 {
			queue = append(queue, NetID(i))
		}
	}
	for head := 0; head < len(queue); head++ {
		g := &gates[queue[head]]
		level := 0
		for _, f := range g.Fanin {
			if l := gates[f].Level + 1; l > level {
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
	if len(queue) != n {
		return nil, fmt.Errorf("circuit %q contains a combinational cycle", b.name)
	}

	// Order the nets by (level, ID), so iteration is deterministic and
	// level-monotone, which the implication engine relies on: count the
	// nets of each level, then place them in ID order at their level's
	// next slot.  The queue's storage takes the order.
	next := make([]int32, c.maxLevel+1)
	for i := range gates {
		next[gates[i].Level]++
	}
	countsToStarts(next)
	order := queue
	for i := range gates {
		l := gates[i].Level
		order[next[l]] = NetID(i)
		next[l]++
	}
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

// countsToStarts turns the sizes of consecutive runs in one array into the
// index where each run starts.
func countsToStarts(counts []int32) {
	sum := int32(0)
	for i, k := range counts {
		counts[i] = sum
		sum += k
	}
}
