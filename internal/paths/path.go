// Package paths provides the structural path model for path delay faults:
// path representation, rising/falling path delay faults, exact path
// counting, lazy enumeration and uniform sampling.
//
// A structural path runs from a primary input to a primary output through
// the fanin/fanout edges of the circuit.  Following the path delay fault
// model of Smith, every structural path carries two potential delay faults,
// one for a rising and one for a falling transition at the path input.
package paths

import (
	"fmt"
	"strings"

	"repro/internal/circuit"
	"repro/internal/logic"
)

// Path is a structural path: the sequence of nets from a primary input
// (first element) to a primary output (last element).  Consecutive nets are
// connected by a fanin edge of the circuit.
type Path struct {
	Nets []circuit.NetID
}

// Input returns the primary input the path starts at.
func (p Path) Input() circuit.NetID { return p.Nets[0] }

// Output returns the primary output the path ends at.
func (p Path) Output() circuit.NetID { return p.Nets[len(p.Nets)-1] }

// Len returns the number of nets on the path.
func (p Path) Len() int { return len(p.Nets) }

// Clone returns a deep copy of the path.
func (p Path) Clone() Path {
	return Path{Nets: append([]circuit.NetID(nil), p.Nets...)}
}

// Key returns a compact unique key for the path, usable as a map key.
func (p Path) Key() string {
	var sb strings.Builder
	for i, n := range p.Nets {
		if i > 0 {
			sb.WriteByte('.')
		}
		fmt.Fprintf(&sb, "%d", n)
	}
	return sb.String()
}

// Describe renders the path with net names, e.g. "b - p - x".
func (p Path) Describe(c *circuit.Circuit) string {
	names := make([]string, len(p.Nets))
	for i, n := range p.Nets {
		names[i] = c.NetName(n)
	}
	return strings.Join(names, " - ")
}

// Validate checks that the path is structurally present in the circuit:
// it starts at a primary input, ends at a primary output and every
// consecutive pair is a fanin edge.
func (p Path) Validate(c *circuit.Circuit) error {
	if len(p.Nets) == 0 {
		return fmt.Errorf("paths: empty path")
	}
	if !c.IsInput(p.Input()) {
		return fmt.Errorf("paths: path does not start at a primary input (%s)", c.NetName(p.Input()))
	}
	if !c.IsOutput(p.Output()) {
		return fmt.Errorf("paths: path does not end at a primary output (%s)", c.NetName(p.Output()))
	}
	for i := 1; i < len(p.Nets); i++ {
		found := false
		for _, f := range c.Gate(p.Nets[i]).Fanin {
			if f == p.Nets[i-1] {
				found = true
				break
			}
		}
		if !found {
			return fmt.Errorf("paths: %s is not a fanin of %s", c.NetName(p.Nets[i-1]), c.NetName(p.Nets[i]))
		}
	}
	return nil
}

// Transition is the direction of the signal change at a net.
type Transition uint8

// The two transition directions.
const (
	Rising  Transition = iota // 0 -> 1
	Falling                   // 1 -> 0
)

// String returns "rising" or "falling".
func (t Transition) String() string {
	if t == Rising {
		return "rising"
	}
	return "falling"
}

// Invert returns the opposite transition.
func (t Transition) Invert() Transition { return t ^ 1 }

// Value7 returns the seven-valued logic value representing the transition
// (its final value): a rising transition is 1ŝ, a falling transition is 0ŝ.
func (t Transition) Value7() logic.Value7 {
	if t == Rising {
		return logic.Rise7
	}
	return logic.Fall7
}

// FinalValue3 returns the three-valued final value of the transition.
func (t Transition) FinalValue3() logic.Value3 {
	if t == Rising {
		return logic.One3
	}
	return logic.Zero3
}

// Fault is a path delay fault: a structural path together with the direction
// of the transition launched at the path input.
type Fault struct {
	Path       Path
	Transition Transition
}

// Key returns a unique key for the fault.
func (f Fault) Key() string {
	return fmt.Sprintf("%s/%s", f.Path.Key(), f.Transition)
}

// Describe renders the fault with net names and the launch transition.
func (f Fault) Describe(c *circuit.Circuit) string {
	return fmt.Sprintf("%s (%s at %s)", f.Path.Describe(c), f.Transition, c.NetName(f.Path.Input()))
}

// Transitions returns the transition direction expected at every net along
// the path, starting with the launch transition at the path input.  The
// direction flips through inverting gates (NOT, NAND, NOR); for XOR and XNOR
// gates the convention of the sensitization procedure is used: side inputs
// are held at the gate's neutral value (0 for XOR, giving a non-inverting
// stage; XNOR is then inverting).
func (f Fault) Transitions(c *circuit.Circuit) []Transition {
	out := make([]Transition, len(f.Path.Nets))
	t := f.Transition
	out[0] = t
	for i := 1; i < len(f.Path.Nets); i++ {
		if c.Gate(f.Path.Nets[i]).Kind.Inverting() {
			t = t.Invert()
		}
		out[i] = t
	}
	return out
}

// Faults expands a set of paths into path delay faults.  When both is true,
// each path yields a rising and a falling fault; otherwise only the rising
// fault is produced.
func Faults(ps []Path, both bool) []Fault {
	out := make([]Fault, 0, len(ps)*2)
	for _, p := range ps {
		out = append(out, Fault{Path: p, Transition: Rising})
		if both {
			out = append(out, Fault{Path: p, Transition: Falling})
		}
	}
	return out
}
